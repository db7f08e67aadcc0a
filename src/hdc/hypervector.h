// Hypervector types for hyperdimensional computing (paper §2).
//
// Two representations are used throughout the library, mirroring the two
// domains of the GENERIC datapath:
//  * BinaryHV  — a D-dimensional bipolar (+1/-1) hypervector bit-packed into
//    64-bit words (bit 1 == +1, bit 0 == -1). Item/level/id hypervectors and
//    per-window encodings live here; binding is XOR, permutation is a
//    circular shift, dot products reduce to popcounts.
//  * IntHV     — a vector of 32-bit integers holding bundled (element-wise
//    summed) hypervectors: encoded inputs and class/centroid accumulators.
//    The ASIC stores class dimensions in 16 bits (§4.3.4); quantization to
//    narrower widths is modelled in model/hdc_classifier.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"

namespace generic::hdc {

using IntHV = std::vector<std::int32_t>;

class BinaryHV {
 public:
  BinaryHV() = default;

  /// All-zero (-1 in bipolar terms) hypervector of `dims` dimensions.
  explicit BinaryHV(std::size_t dims)
      : dims_(dims), words_(words_for_bits(dims), 0ULL) {}

  /// Uniformly random hypervector.
  static BinaryHV random(std::size_t dims, Rng& rng);

  std::size_t dims() const { return dims_; }
  std::size_t num_words() const { return words_.size(); }
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

  bool bit(std::size_t i) const { return get_bit(words_.data(), i); }
  void set(std::size_t i, bool v) { set_bit(words_.data(), i, v); }
  void flip(std::size_t i) { flip_bit(words_.data(), i); }

  /// Bipolar value of dimension i: +1 or -1.
  int bipolar(std::size_t i) const { return bit(i) ? 1 : -1; }

  /// Element-wise XOR (bipolar multiplication / binding).
  BinaryHV& operator^=(const BinaryHV& other);
  friend BinaryHV operator^(BinaryHV a, const BinaryHV& b) { return a ^= b; }

  bool operator==(const BinaryHV& other) const = default;

  /// Number of set bits.
  std::size_t popcount() const;

  /// Hamming distance to another hypervector of the same dimensionality:
  /// one xor_popcount call on the active kernel table (hdc/kernels.h).
  std::size_t hamming(const BinaryHV& other) const;

  /// Bipolar dot product: dims - 2*hamming.
  std::int64_t dot(const BinaryHV& other) const;

  /// Circular rotation towards higher indices by k positions — the HDC
  /// permutation rho^k of the paper (Eq. 1). rho preserves orthogonality
  /// and rho^a . rho^b == rho^(a+b). Allocates; the encoders' hot loops
  /// use xor_rotated_into instead.
  BinaryHV rotated(std::size_t k) const;

  /// Add this hypervector's bipolar values into an integer accumulator
  /// (bundling, +) or subtract them (model update on misprediction, -).
  void accumulate_into(IntHV& acc, int sign = +1) const;

  /// Expand to a bipolar integer vector (+1/-1 per dimension).
  IntHV to_int() const;

 private:
  /// Clear the unused bits of the last word so popcount/equality stay exact.
  void mask_tail();

  std::size_t dims_ = 0;
  std::vector<std::uint64_t> words_;
};

/// dst ^= rho^k(src): bind a rotated row into `dst` without materializing
/// the rotation. On word-aligned dims the word loop is split at the wrap
/// point, so it runs without a division or a branch per word and
/// vectorizes; ragged dims take a bitwise path. `dst` and `src` must have
/// the same dims and must be distinct objects (both checked).
void xor_rotated_into(BinaryHV& dst, const BinaryHV& src, std::size_t k);

/// Dot product of two equal-length int spans (checked): whole bundled
/// hypervectors, or matching slices of them. A one-row call into the
/// active kernel table's dot_many (hdc/kernels.h), so every int dot runs
/// the backend's tuned loop and is exact on every backend. Scoring many
/// rows against one query should call dot_many directly, as
/// HdcClassifier does, to share each query load across rows.
std::int64_t dot(std::span<const std::int32_t> a,
                 std::span<const std::int32_t> b);

/// Squared L2 norm of an int span (a hypervector or a slice of one).
inline std::int64_t norm2(std::span<const std::int32_t> a) {
  std::int64_t acc = 0;
  for (std::int32_t v : a) acc += static_cast<std::int64_t>(v) * v;
  return acc;
}

/// Cosine similarity; 0 when either vector is all-zero.
double cosine(const IntHV& a, const IntHV& b);

/// Element-wise sum / difference helpers for bundling in the int domain.
void add_into(IntHV& acc, const IntHV& x, int sign = +1);

}  // namespace generic::hdc
