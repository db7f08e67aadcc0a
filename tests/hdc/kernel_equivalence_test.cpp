// Differential equivalence suite for the runtime-dispatched kernels
// (hdc/kernels.h): every compiled backend must be BYTE-IDENTICAL to the
// scalar reference — same raw span sums, same hamming_many orders, same
// nearest_hamming winners including ties, same int dot products — across
// ragged dimension sweeps.
// This is the contract that lets golden `generic.*.v1` fixtures stay
// byte-stable no matter which backend dispatch picks (docs/kernels.md).
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "hdc/kernels.h"
#include "hdc/ops.h"

namespace generic::hdc {
namespace {

namespace k = kernels;

/// The dims the suite sweeps: word-aligned, ragged-tail (127, 4095), odd
/// multi-tile-ish sizes. 10000 = 156 words + 16-bit tail.
const std::vector<std::size_t> kDimsSweep = {64,   127,  128,  512,
                                             4095, 4096, 10000};

/// Restore the process-wide backend after a test forced it.
class BackendGuard {
 public:
  BackendGuard() : saved_(k::active_backend()) {}
  ~BackendGuard() { k::set_backend(saved_); }

 private:
  k::Backend saved_;
};

/// Per-bit Hamming reference that never touches a kernel table.
std::size_t naive_hamming(const BinaryHV& a, const BinaryHV& b) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.dims(); ++i) d += a.bit(i) != b.bit(i);
  return d;
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng.next_u64();
  return w;
}

std::vector<k::Backend> simd_backends() {
  std::vector<k::Backend> out;
  for (k::Backend b : k::compiled_backends())
    if (b != k::Backend::kScalar && k::available(b)) out.push_back(b);
  return out;
}

std::vector<k::Backend> all_backends() {
  std::vector<k::Backend> out;
  for (k::Backend b : k::compiled_backends())
    if (k::available(b)) out.push_back(b);
  return out;
}

using IntRows = std::vector<std::vector<std::int32_t>>;

/// Exact reference for dot_many: a plain loop with a 128-bit accumulator,
/// which cannot wrap. Callers pick inputs whose exact sums fit in int64.
std::int64_t naive_dot(const std::vector<std::int32_t>& q,
                       const std::vector<std::int32_t>& row) {
  __int128 s = 0;
  for (std::size_t i = 0; i < q.size(); ++i)
    s += static_cast<__int128>(q[i]) * row[i];
  EXPECT_EQ(static_cast<__int128>(static_cast<std::int64_t>(s)), s)
      << "test input overflows int64";
  return static_cast<std::int64_t>(s);
}

/// out[r] = seed[r] + dot(q, rows[r]) through one backend's dot_many.
std::vector<std::int64_t> run_dot_many(const k::Kernels& table,
                                       const std::vector<std::int32_t>& q,
                                       const IntRows& rows,
                                       std::vector<std::int64_t> out) {
  std::vector<const std::int32_t*> ptrs;
  for (const auto& row : rows) ptrs.push_back(row.data());
  table.dot_many(q.data(), ptrs.data(), rows.size(), q.size(), out.data());
  return out;
}

std::vector<std::int32_t> random_ints(std::size_t n, Rng& rng, int span) {
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = static_cast<std::int32_t>(rng.range(-span, span));
  return v;
}

/// The lengths the int dot sweeps: empty, shorter than one vector, one
/// vector on either side of the 8/16-lane blocks, and whole hypervectors.
const std::vector<std::size_t> kDotLengths = {0,   1,   7,    15,  16,
                                              17,  127, 128,  4095, 4096};

TEST(KernelEquivalence, RawSpanSumsMatchScalarForRaggedLengths) {
  const k::Kernels& scalar = k::get(k::Backend::kScalar);
  Rng rng(0xA11CE);
  for (k::Backend b : simd_backends()) {
    const k::Kernels& simd = k::get(b);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8}, std::size_t{15},
                          std::size_t{16}, std::size_t{27}, std::size_t{28},
                          std::size_t{29}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{112}, std::size_t{113},
                          std::size_t{127}, std::size_t{128},
                          std::size_t{156}, std::size_t{200}}) {
      const auto a = random_words(n, rng);
      const auto c = random_words(n, rng);
      EXPECT_EQ(simd.xor_popcount(a.data(), c.data(), n),
                scalar.xor_popcount(a.data(), c.data(), n))
          << k::to_string(b) << " diverged at n=" << n;
    }
  }
}

TEST(KernelEquivalence, RawManyAccumulatesIdenticallyToScalar) {
  const k::Kernels& scalar = k::get(k::Backend::kScalar);
  Rng rng(0xBEE5);
  for (k::Backend b : simd_backends()) {
    const k::Kernels& simd = k::get(b);
    for (std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                             std::size_t{3}, std::size_t{5}, std::size_t{8}}) {
      for (std::size_t words :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
            std::size_t{63}, std::size_t{64}, std::size_t{65}}) {
        const auto q = random_words(words, rng);
        std::vector<std::vector<std::uint64_t>> store(rows);
        std::vector<const std::uint64_t*> refs(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          store[r] = random_words(words, rng);
          refs[r] = store[r].data();
        }
        // Seed outputs non-zero: the kernel contract is `out[r] +=`, and a
        // backend that assigns instead of accumulating must fail here.
        std::vector<std::size_t> want(rows, 1000), got(rows, 1000);
        scalar.xor_popcount_many(q.data(), refs.data(), rows, words,
                                 want.data());
        simd.xor_popcount_many(q.data(), refs.data(), rows, words,
                               got.data());
        EXPECT_EQ(got, want) << k::to_string(b) << " rows=" << rows
                             << " words=" << words;
      }
    }
  }
}

TEST(KernelEquivalence, HammingMatchesNaiveOnEveryBackend) {
  BackendGuard guard;
  Rng rng(0xD1FF);
  for (std::size_t dims : kDimsSweep) {
    const auto a = BinaryHV::random(dims, rng);
    const auto b = BinaryHV::random(dims, rng);
    const std::size_t naive = naive_hamming(a, b);
    for (k::Backend backend : all_backends()) {
      k::set_backend(backend);
      EXPECT_EQ(a.hamming(b), naive)
          << k::to_string(backend) << " dims=" << dims;
    }
  }
}

TEST(KernelEquivalence, HammingManyOrdersIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(0x0D0E5);
  for (std::size_t dims : kDimsSweep) {
    const auto query = BinaryHV::random(dims, rng);
    std::vector<BinaryHV> refs;
    for (int r = 0; r < 13; ++r) refs.push_back(BinaryHV::random(dims, rng));

    k::set_backend(k::Backend::kScalar);
    const auto baseline = hamming_many(query, refs);
    ASSERT_EQ(baseline.size(), refs.size());
    for (std::size_t r = 0; r < refs.size(); ++r)
      ASSERT_EQ(baseline[r], query.hamming(refs[r])) << "scalar r=" << r;

    for (k::Backend backend : simd_backends()) {
      k::set_backend(backend);
      EXPECT_EQ(hamming_many(query, refs), baseline)
          << k::to_string(backend) << " dims=" << dims;
    }
  }
}

TEST(KernelEquivalence, NearestWinnerIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(0x9E57);
  for (std::size_t dims : kDimsSweep) {
    const auto query = BinaryHV::random(dims, rng);
    std::vector<BinaryHV> refs;
    for (int r = 0; r < 29; ++r) refs.push_back(BinaryHV::random(dims, rng));

    k::set_backend(k::Backend::kScalar);
    const std::size_t want = nearest_hamming(query, refs);
    for (k::Backend backend : simd_backends()) {
      k::set_backend(backend);
      EXPECT_EQ(nearest_hamming(query, refs), want)
          << k::to_string(backend) << " dims=" << dims;
    }
  }
}

TEST(KernelEquivalence, TiesResolveToLowestIndexOnEveryBackend) {
  BackendGuard guard;
  // Zero query; two refs at identical distance (same popcount, different
  // bits) placed behind a worse ref: every backend must pick the first of
  // the tied pair, never the later one.
  for (std::size_t dims : {std::size_t{128}, std::size_t{4095}}) {
    const BinaryHV query(dims);
    BinaryHV tied_a(dims), tied_b(dims), worse(dims);
    tied_a.set(1, true);
    tied_a.set(5, true);
    tied_b.set(2, true);
    tied_b.set(dims - 1, true);
    for (std::size_t i = 0; i < 7; ++i) worse.set(i, true);
    const std::vector<BinaryHV> refs = {worse, tied_a, tied_b};
    for (k::Backend backend : k::compiled_backends()) {
      if (!k::available(backend)) continue;
      k::set_backend(backend);
      EXPECT_EQ(nearest_hamming(query, refs), 1u)
          << k::to_string(backend) << " dims=" << dims;
    }
  }
}

// ---- Int dot (dot_many) ---------------------------------------------------

TEST(KernelEquivalence, DotManyMatchesNaiveForRaggedLengthsAndRowCounts) {
  Rng rng(0xD07D07);
  for (std::size_t n : kDotLengths) {
    for (std::size_t nrows = 0; nrows <= 9; ++nrows) {
      const auto q = random_ints(n, rng, 100000);
      IntRows rows;
      for (std::size_t r = 0; r < nrows; ++r)
        rows.push_back(random_ints(n, rng, 100000));
      std::vector<std::int64_t> want(nrows);
      for (std::size_t r = 0; r < nrows; ++r) want[r] = naive_dot(q, rows[r]);
      for (k::Backend b : all_backends())
        EXPECT_EQ(run_dot_many(k::get(b), q, rows,
                               std::vector<std::int64_t>(nrows, 0)),
                  want)
            << k::to_string(b) << " n=" << n << " nrows=" << nrows;
    }
  }
}

TEST(KernelEquivalence, DotManyIsExactAtInt32Extremes) {
  // Each query element i in the first half of a group of 2P is paired with
  // i + P: q holds (a, a') with a + a' in {0, -1}, and each row repeats one
  // extreme value b on both, so a pair adds (a + a') * b, at most 2^31 in
  // magnitude, and the exact total fits in int64 at every length. Single
  // products reach 2^62 and P = 8 puts a pair's halves in different SIMD
  // lanes or blocks, so partial sums run far past int64 on every backend
  // and must wrap back to the exact total. Unpaired tail elements are small.
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::int32_t kFirst[] = {kMin, kMax, kMin + 1, -7, 0};
  const std::int32_t kRowValues[] = {kMin, kMax, -1, 1};
  Rng rng(0xE87);
  for (std::size_t pair : {std::size_t{1}, std::size_t{8}}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                          std::size_t{16}, std::size_t{17}, std::size_t{33},
                          std::size_t{128}, std::size_t{4095},
                          std::size_t{4096}}) {
      auto partner = [&](std::size_t i) {
        return i % (2 * pair) < pair ? i + pair : n;  // n: none
      };
      std::vector<std::int32_t> q(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % (2 * pair) >= pair) continue;  // set with its partner
        if (partner(i) >= n) {
          q[i] = static_cast<std::int32_t>(rng.range(-7, 7));
          continue;
        }
        const std::int32_t a = kFirst[rng.below(5)];
        q[i] = a;
        q[partner(i)] = a == kMin ? kMax : -a;
      }
      for (std::size_t nrows = 1; nrows <= 9; ++nrows) {
        IntRows rows(nrows, std::vector<std::int32_t>(n));
        for (auto& row : rows)
          for (std::size_t i = 0; i < n; ++i) {
            if (i % (2 * pair) >= pair) continue;
            row[i] = kRowValues[rng.below(4)];
            if (partner(i) < n) row[partner(i)] = row[i];
          }
        std::vector<std::int64_t> want(nrows);
        for (std::size_t r = 0; r < nrows; ++r)
          want[r] = naive_dot(q, rows[r]);
        for (k::Backend b : all_backends())
          EXPECT_EQ(run_dot_many(k::get(b), q, rows,
                                 std::vector<std::int64_t>(nrows, 0)),
                    want)
              << k::to_string(b) << " pair=" << pair << " n=" << n
              << " nrows=" << nrows;
      }
    }
  }
}

TEST(KernelEquivalence, DotManyAccumulatesIntoOut) {
  // The contract is out[r] += dot: a backend that assigns instead, or
  // touches a row it was not given, fails here.
  Rng rng(0xACC);
  const std::vector<std::int64_t> seeds = {-5, 0, 7, std::int64_t{1} << 40,
                                           -(std::int64_t{1} << 41), 3};
  for (std::size_t n : kDotLengths) {
    const auto q = random_ints(n, rng, 3000);
    IntRows rows;
    for (std::size_t r = 0; r < 5; ++r)
      rows.push_back(random_ints(n, rng, 3000));
    std::vector<std::int64_t> once(seeds), twice(seeds);
    for (std::size_t r = 0; r < 5; ++r) {
      const std::int64_t d = naive_dot(q, rows[r]);
      once[r] += d;
      twice[r] += 2 * d;
    }
    for (k::Backend b : all_backends()) {
      const k::Kernels& table = k::get(b);
      const auto got = run_dot_many(table, q, rows, seeds);
      EXPECT_EQ(got, once) << k::to_string(b) << " n=" << n;
      EXPECT_EQ(run_dot_many(table, q, rows, got), twice)
          << k::to_string(b) << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, SpanDotRunsTheActiveBackend) {
  BackendGuard guard;
  Rng rng(0x5BA7);
  for (std::size_t n : kDotLengths) {
    const auto a = random_ints(n, rng, 30000);
    const auto b = random_ints(n, rng, 30000);
    const std::int64_t want = naive_dot(a, b);
    for (k::Backend backend : all_backends()) {
      k::set_backend(backend);
      EXPECT_EQ(dot(a, b), want) << k::to_string(backend) << " n=" << n;
    }
  }
  const std::vector<std::int32_t> three(3, 1), four(4, 1);
  EXPECT_THROW(dot(three, four), std::invalid_argument);
}

// ---- Dispatch plumbing ----------------------------------------------------

TEST(KernelDispatch, NamesRoundTrip) {
  for (k::Backend b : {k::Backend::kScalar, k::Backend::kAvx2,
                       k::Backend::kAvx512, k::Backend::kNeon}) {
    const auto parsed = k::parse_backend(k::to_string(b));
    ASSERT_TRUE(parsed.has_value()) << k::to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(k::parse_backend("auto").has_value());
  EXPECT_FALSE(k::parse_backend("sse9").has_value());
  EXPECT_FALSE(k::parse_backend("").has_value());
}

TEST(KernelDispatch, ScalarAlwaysCompiledAndAvailable) {
  const auto compiled = k::compiled_backends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), k::Backend::kScalar);
  EXPECT_TRUE(k::available(k::Backend::kScalar));
  EXPECT_TRUE(k::available(k::best_available()));
}

TEST(KernelDispatch, TablesAreSelfConsistent) {
  for (k::Backend b : k::compiled_backends()) {
    if (!k::available(b)) continue;
    const k::Kernels& table = k::get(b);
    EXPECT_EQ(table.backend, b);
    EXPECT_EQ(table.name, k::to_string(b));
    EXPECT_NE(table.xor_popcount, nullptr);
    EXPECT_NE(table.xor_popcount_many, nullptr);
    EXPECT_NE(table.dot_many, nullptr);
  }
}

TEST(KernelDispatch, SetBackendFromStringAcceptsAutoAndRejectsUnknown) {
  BackendGuard guard;
  k::set_backend_from_string("auto");
  EXPECT_EQ(k::active_backend(), k::best_available());
  k::set_backend_from_string("scalar");
  EXPECT_EQ(k::active_backend(), k::Backend::kScalar);
  EXPECT_THROW(k::set_backend_from_string("fastest"), std::invalid_argument);
  EXPECT_THROW(k::set_backend_from_string(""), std::invalid_argument);
}

TEST(KernelDispatch, UnavailableBackendThrowsInsteadOfFallingBack) {
#if defined(__aarch64__)
  const k::Backend missing = k::Backend::kAvx2;
#else
  const k::Backend missing = k::Backend::kNeon;
#endif
  ASSERT_FALSE(k::available(missing));
  EXPECT_THROW(k::get(missing), std::invalid_argument);
  EXPECT_THROW(k::set_backend(missing), std::invalid_argument);
  // The active table is untouched by the failed set.
  EXPECT_TRUE(k::available(k::active_backend()));
}

TEST(KernelDispatch, ActiveBackendDrivesOps) {
  BackendGuard guard;
  Rng rng(0xFACE);
  const auto a = BinaryHV::random(4096, rng);
  const auto b = BinaryHV::random(4096, rng);
  const std::size_t want = naive_hamming(a, b);
  for (k::Backend backend : all_backends()) {
    k::set_backend(backend);
    EXPECT_EQ(k::active_backend(), backend);
    EXPECT_EQ(k::active().backend, backend);
    EXPECT_EQ(a.hamming(b), want);
  }
}

}  // namespace
}  // namespace generic::hdc
