// Scalar reference backend.
//
// This TU is compiled with -fno-tree-vectorize (see src/hdc/CMakeLists.txt):
// with the repo's global -march=native the compiler happily auto-vectorizes
// this loop with the widest popcount the build host has, which would make
// "scalar" silently depend on the build machine and turn every
// scalar-vs-SIMD benchmark into a lie. Disabling vectorization keeps it the
// honest portable baseline: 4-way unrolled hardware popcount, one word at a
// time, and one int32 x int32 -> int64 multiply-add per element.
#include <bit>
#include <cstddef>
#include <cstdint>

#include "hdc/kernels_detail.h"

namespace generic::hdc::kernels::detail {

namespace {

std::size_t scalar_xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) {
  // 4-way accumulators break the popcount dependency chain.
  std::size_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    s1 += static_cast<std::size_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    s2 += static_cast<std::size_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    s3 += static_cast<std::size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  for (; i < n; ++i)
    s0 += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return s0 + s1 + s2 + s3;
}

void scalar_xor_popcount_many(const std::uint64_t* q,
                              const std::uint64_t* const* refs,
                              std::size_t rows, std::size_t words,
                              std::size_t* out) {
  for (std::size_t r = 0; r < rows; ++r)
    out[r] += scalar_xor_popcount(q, refs[r], words);
}

void scalar_dot_many(const std::int32_t* q, const std::int32_t* const* rows,
                     std::size_t nrows, std::size_t n, std::int64_t* out) {
  for (std::size_t r = 0; r < nrows; ++r) {
    // Unsigned sums wrap modulo 2^64 with defined behaviour, exactly as
    // the SIMD backends' int64 lanes do.
    std::uint64_t s = static_cast<std::uint64_t>(out[r]);
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<std::uint64_t>(std::int64_t{q[i]} * rows[r][i]);
    out[r] = static_cast<std::int64_t>(s);
  }
}

}  // namespace

const Kernels& scalar_table() {
  static const Kernels k{Backend::kScalar, "scalar", &scalar_xor_popcount,
                         &scalar_xor_popcount_many, &scalar_dot_many};
  return k;
}

}  // namespace generic::hdc::kernels::detail
