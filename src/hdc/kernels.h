// Runtime-dispatched similarity kernels — the one place every binary
// similarity search and every int dot product bottoms out
// (docs/kernels.md).
//
// Both kinds are exact integer reductions (sums of popcounts; sums of
// int32 x int32 products widened to int64), so any backend that computes
// the same sums is bit-identical by construction: vectorization here can
// never disturb the determinism contract of docs/parallelism.md. What the
// dispatch layer adds is the choice of HOW the sums are computed:
//
//   scalar  portable reference: unrolled hardware popcount and a plain
//           multiply-add loop, compiled with vectorization disabled so it
//           stays the honest baseline
//   avx2    pshufb nibble-lookup popcount, 8-bit lane accumulation;
//           vpmuldq even/odd-lane int dot, 4-row tiles (x86)
//   avx512  vpopcntq over 512-bit lanes, 2-row interleave; vpmuldq int
//           dot over 8-row tiles (x86 + VPOPCNTDQ)
//   neon    vcnt + widening pairwise accumulation; vmlal_s32 int dot
//           (aarch64)
//
// Selection is runtime CPU-feature detection ("auto" picks the best
// available), overridable by the GENERIC_KERNEL_BACKEND environment
// variable or the tools' --kernel-backend flag. Backends not compiled in
// (wrong architecture) or not supported by the host CPU are rejected with
// a clear error rather than silently falling back.
//
// Every backend must be byte-identical to scalar — same distances, same
// dot products, same argmin winners — which
// tests/hdc/kernel_equivalence_test.cpp asserts for every compiled backend
// across ragged dimension sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace generic::hdc::kernels {

enum class Backend {
  kScalar,
  kAvx2,
  kAvx512,
  kNeon,
};

/// The dispatch table one backend fills in. Every entry point is exact:
/// it returns the same integers the scalar reference computes.
struct Kernels {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";

  /// popcount(a[i] ^ b[i]) summed over n words.
  std::size_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) = nullptr;

  /// out[r] += popcount(q[i] ^ refs[r][i]) over `words` words for each of
  /// `rows` reference rows — all of hamming_many/nearest_hamming in one
  /// call, shaped so a backend can amortize query loads across rows.
  void (*xor_popcount_many)(const std::uint64_t* q,
                            const std::uint64_t* const* refs, std::size_t rows,
                            std::size_t words, std::size_t* out) = nullptr;

  /// out[r] += sum of (int64)q[i] * rows[r][i] over `n` elements for each
  /// of `nrows` rows — every int dot product: class scoring, clustering
  /// and the ASIC model's exact path. Each product is exact in int64 and
  /// sums wrap modulo 2^64 on every backend, so backends agree bit for
  /// bit whatever their summation order. Shaped like xor_popcount_many so
  /// a backend loads each query block once per tile of rows.
  void (*dot_many)(const std::int32_t* q, const std::int32_t* const* rows,
                   std::size_t nrows, std::size_t n,
                   std::int64_t* out) = nullptr;
};

/// Canonical lower-case name: "scalar", "avx2", "avx512", "neon".
std::string_view to_string(Backend backend);

/// Parse a backend name (as spelled by to_string). "auto" is not a backend;
/// resolve it with best_available(). Unknown names return nullopt.
std::optional<Backend> parse_backend(std::string_view name);

/// Backends compiled into this binary (always includes kScalar).
std::vector<Backend> compiled_backends();

/// True when the running CPU can execute `backend` (kScalar always can).
bool cpu_supports(Backend backend);

/// Compiled in AND supported by the running CPU.
bool available(Backend backend);

/// The best available backend: avx512 > avx2 > neon > scalar.
Backend best_available();

/// Dispatch table of an explicit backend; throws std::invalid_argument when
/// it is not available on this build/CPU.
const Kernels& get(Backend backend);

/// The process-wide active dispatch table the hdc/ops kernels call through.
/// First use resolves GENERIC_KERNEL_BACKEND ("auto", "scalar", "avx2",
/// "avx512", "neon"; unset == "auto"); an unknown or unavailable value
/// throws so a forced CI leg can never silently run the wrong kernels.
const Kernels& active();

/// Backend of active().
Backend active_backend();

/// Force the active backend; throws std::invalid_argument when unavailable.
/// Safe to call from tests between single-threaded phases; not meant to be
/// raced against in-flight kernel calls.
void set_backend(Backend backend);

/// Set from a CLI/env spelling, accepting "auto". Throws on unknown or
/// unavailable names with a message listing the available backends.
void set_backend_from_string(std::string_view name);

}  // namespace generic::hdc::kernels
