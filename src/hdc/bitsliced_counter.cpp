#include "hdc/bitsliced_counter.h"

#include <bit>
#include <stdexcept>

namespace generic::hdc {

BitSlicedCounter::BitSlicedCounter(std::size_t dims, std::size_t capacity)
    : dims_(dims),
      words_(words_for_bits(dims)),
      capacity_(capacity),
      planes_(static_cast<std::size_t>(std::bit_width(capacity))),
      bits_(planes_ * words_, 0ULL),
      carry_(words_, 0ULL) {}

void BitSlicedCounter::add(const BinaryHV& row) {
  if (row.dims() != dims_)
    throw std::invalid_argument("BitSlicedCounter::add: dimension mismatch");
  if (added_ == capacity_)
    throw std::length_error("BitSlicedCounter::add: capacity exhausted");
  ++added_;
  // No count exceeds added_ yet, so carries die within its bit width: the
  // planes above it are still all zero and need no pass.
  const auto live = static_cast<std::size_t>(std::bit_width(added_));
  // Locals, not members: std::size_t and std::uint64_t are the same type
  // here, so stores through the word pointers could alias the members and
  // would keep the loops below from vectorizing.
  const std::size_t nw = words_;
  const std::uint64_t* x = row.words().data();
  std::uint64_t* c = carry_.data();
  std::uint64_t* plane = bits_.data();
  for (std::size_t w = 0; w < nw; ++w) {
    c[w] = plane[w] & x[w];
    plane[w] ^= x[w];
  }
  for (std::size_t p = 1; p < live; ++p) {
    plane += nw;
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t t = plane[w] & c[w];
      plane[w] ^= c[w];
      c[w] = t;
    }
  }
}

IntHV BitSlicedCounter::expand() const {
  IntHV out(dims_, -static_cast<std::int32_t>(added_));
  const std::size_t full = dims_ / kWordBits;
  for (std::size_t p = 0; p < planes_; ++p) {
    const std::uint64_t* plane = bits_.data() + p * words_;
    const unsigned shift = static_cast<unsigned>(p) + 1;  // 2 * 2^p
    for (std::size_t w = 0; w < full; ++w) {
      const std::uint64_t word = plane[w];
      std::int32_t* o = out.data() + w * kWordBits;
      for (std::size_t b = 0; b < kWordBits; ++b)
        o[b] += static_cast<std::int32_t>(((word >> b) & 1ULL) << shift);
    }
    if (full < words_) {
      const std::uint64_t word = plane[full];
      std::int32_t* o = out.data() + full * kWordBits;
      for (std::size_t b = 0; b < dims_ - full * kWordBits; ++b)
        o[b] += static_cast<std::int32_t>(((word >> b) & 1ULL) << shift);
    }
  }
  return out;
}

}  // namespace generic::hdc
