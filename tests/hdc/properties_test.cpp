// Parameterized property tests over the HDC algebra: the statistical
// identities the paper's encoding correctness rests on (§2, §3.1, §4.3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"

namespace generic::hdc {
namespace {

class HvDimsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HvDimsTest, RandomPairsQuasiOrthogonal) {
  const std::size_t dims = GetParam();
  Rng rng(101);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const BinaryHV b = BinaryHV::random(dims, rng);
  // |dot| of independent bipolar vectors concentrates around sqrt(dims).
  const double bound = 6.0 * std::sqrt(static_cast<double>(dims));
  EXPECT_LE(std::abs(static_cast<double>(a.dot(b))), bound);
}

TEST_P(HvDimsTest, BindingPreservesDistance) {
  // hamming(a^c, b^c) == hamming(a, b): binding is an isometry.
  const std::size_t dims = GetParam();
  Rng rng(103);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const BinaryHV b = BinaryHV::random(dims, rng);
  const BinaryHV c = BinaryHV::random(dims, rng);
  EXPECT_EQ((a ^ c).hamming(b ^ c), a.hamming(b));
}

TEST_P(HvDimsTest, PermutationIsIsometry) {
  const std::size_t dims = GetParam();
  Rng rng(107);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const BinaryHV b = BinaryHV::random(dims, rng);
  for (std::size_t k : {1u, 3u, 17u})
    EXPECT_EQ(a.rotated(k).hamming(b.rotated(k)), a.hamming(b));
}

TEST_P(HvDimsTest, PermutationDecorrelates) {
  // rho^k(a) is quasi-orthogonal to a for k != 0 — the property that lets
  // permutation encode position and the ASIC regenerate ids by rotation.
  const std::size_t dims = GetParam();
  Rng rng(109);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const double bound = 6.0 * std::sqrt(static_cast<double>(dims));
  for (std::size_t k : {1u, 2u, 5u})
    EXPECT_LE(std::abs(static_cast<double>(a.dot(a.rotated(k)))), bound);
}

TEST_P(HvDimsTest, XorDistributesOverPermutation) {
  // rho(a ^ b) == rho(a) ^ rho(b) — needed for Eq. 1 to be well-defined.
  const std::size_t dims = GetParam();
  Rng rng(113);
  const BinaryHV a = BinaryHV::random(dims, rng);
  const BinaryHV b = BinaryHV::random(dims, rng);
  EXPECT_EQ((a ^ b).rotated(9), a.rotated(9) ^ b.rotated(9));
}

TEST_P(HvDimsTest, BundlePreservesSimilarityToMembers) {
  // A bundle of hypervectors stays measurably closer to each member than
  // to an unrelated vector — the basis of HDC training (§2.1).
  const std::size_t dims = GetParam();
  Rng rng(127);
  IntHV bundle(dims, 0);
  std::vector<BinaryHV> members;
  for (int i = 0; i < 5; ++i) {
    members.push_back(BinaryHV::random(dims, rng));
    members.back().accumulate_into(bundle);
  }
  const IntHV outsider = BinaryHV::random(dims, rng).to_int();
  for (const auto& m : members)
    EXPECT_GT(dot(bundle, m.to_int()), 2 * std::abs(dot(bundle, outsider)));
}

INSTANTIATE_TEST_SUITE_P(Dims, HvDimsTest,
                         ::testing::Values(512, 1024, 2048, 4096, 8192));

class LevelSpacingTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LevelSpacingTest, HammingProportionalToValueGap) {
  const auto [dims, levels] = GetParam();
  LevelMemory lm(dims, levels, 555);
  // d(level_0, level_l) ~= l/(L-1) * dims/2, within rounding.
  for (std::size_t l = 0; l < levels; ++l) {
    const double expected = static_cast<double>(l) /
                            static_cast<double>(levels - 1) *
                            static_cast<double>(dims) / 2.0;
    EXPECT_NEAR(static_cast<double>(lm.level(0).hamming(lm.level(l))),
                expected, 2.0)
        << "l=" << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, LevelSpacingTest,
    ::testing::Combine(::testing::Values(1024, 4096),
                       ::testing::Values(8, 64, 128)));

}  // namespace
}  // namespace generic::hdc
