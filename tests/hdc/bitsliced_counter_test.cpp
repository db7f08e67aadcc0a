#include "hdc/bitsliced_counter.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace generic::hdc {
namespace {

// Window counts straddling every plane boundary up to nine planes.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 7, 8, 9, 255, 256, 257};

TEST(BitSlicedCounter, MatchesRepeatedAccumulate) {
  Rng rng(31);
  for (std::size_t dims : {64u, 256u, 100u, 129u}) {
    for (std::size_t count : kCounts) {
      BitSlicedCounter counter(dims, count);
      IntHV expect(dims, 0);
      for (std::size_t r = 0; r < count; ++r) {
        const BinaryHV row = BinaryHV::random(dims, rng);
        counter.add(row);
        row.accumulate_into(expect);
      }
      const IntHV got = counter.expand();
      EXPECT_EQ(got, expect) << "dims=" << dims << " count=" << count;
      EXPECT_EQ(counter.added(), count);
    }
  }
}

TEST(BitSlicedCounter, SaturatedColumnsReachEveryPlane) {
  // All-ones and all-zeros rows drive every dimension to the extremes
  // (count == capacity and count == 0), so the top plane is exercised.
  for (std::size_t dims : {64u, 129u}) {
    for (std::size_t count : kCounts) {
      BinaryHV ones(dims);
      for (std::size_t i = 0; i < dims; ++i) ones.set(i, i % 3 != 0);
      BitSlicedCounter counter(dims, count);
      for (std::size_t r = 0; r < count; ++r) counter.add(ones);
      const IntHV got = counter.expand();
      ASSERT_EQ(got.size(), dims);
      for (std::size_t i = 0; i < dims; ++i)
        ASSERT_EQ(got[i], i % 3 != 0 ? static_cast<std::int32_t>(count)
                                     : -static_cast<std::int32_t>(count))
            << "dims=" << dims << " count=" << count << " i=" << i;
    }
  }
}

TEST(BitSlicedCounter, PartialFillExpandsOverRowsAdded) {
  // Fewer rows than capacity (encode_masked skipping windows): the
  // expansion subtracts the rows actually added, not the capacity.
  Rng rng(37);
  BitSlicedCounter counter(200, 257);
  IntHV expect(200, 0);
  for (int r = 0; r < 70; ++r) {
    const BinaryHV row = BinaryHV::random(200, rng);
    counter.add(row);
    row.accumulate_into(expect);
  }
  EXPECT_EQ(counter.expand(), expect);
}

TEST(BitSlicedCounter, RejectsOverflowAndDimMismatch) {
  BitSlicedCounter counter(64, 2);
  const BinaryHV row(64);
  counter.add(row);
  counter.add(row);
  EXPECT_THROW(counter.add(row), std::length_error);
  BitSlicedCounter other(64, 4);
  EXPECT_THROW(other.add(BinaryHV(128)), std::invalid_argument);
}

}  // namespace
}  // namespace generic::hdc
