// General HDC operations on top of the core hypervector types — the
// library-level algebra a torchhd-style consumer expects, kept separate
// from the minimal kernel set the GENERIC datapath itself needs.
#pragma once

#include <span>
#include <vector>

#include "hdc/hypervector.h"

namespace generic::hdc {

/// Sign-threshold a bundled hypervector back into binary space:
/// bit_i = (v_i >= threshold). The standard bundling "clip" step.
BinaryHV threshold(const IntHV& v, std::int32_t threshold = 0);

/// Majority vote across a set of binary hypervectors (ties resolve to 1,
/// matching threshold()'s >= convention). Equivalent to bundling all
/// members and thresholding at zero.
BinaryHV majority(std::span<const BinaryHV> members);

/// Accumulate with an integer weight: acc += weight * bipolar(hv).
/// weight = +-1 reproduces BinaryHV::accumulate_into.
void weighted_accumulate(IntHV& acc, const BinaryHV& hv, std::int32_t weight);

/// Normalized Hamming similarity in [-1, 1]: 1 - 2*hamming/D. Equals the
/// bipolar dot product divided by D, i.e. the cosine of two binary HVs.
double hamming_similarity(const BinaryHV& a, const BinaryHV& b);

/// Sequence binding: fold a sequence of symbols into one hypervector by
/// XOR of progressively permuted elements — rho^(n-1)(s_0) ^ ... ^ s_{n-1}
/// — the n-gram kernel as a standalone op.
BinaryHV bind_sequence(std::span<const BinaryHV> symbols);

// ---- Similarity search ----------------------------------------------------
//
// The XOR+popcount distance is the hot inner loop of every binary-model
// similarity search. Like BinaryHV::hamming, these bottom out in the
// active kernel table (hdc/kernels.h), which decides how the words are
// walked. Results are exact — identical to BinaryHV::hamming for every
// dimensionality, including non-multiple-of-64 tails (BinaryHV keeps its
// last word masked).

/// Hamming distance of `query` against every reference row: one
/// xor_popcount_many call, so a backend shares each query load across
/// rows. out[i] == query.hamming(refs[i]).
std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      std::span<const BinaryHV> refs);

/// Index of the reference row nearest to `query` in Hamming distance; ties
/// resolve to the lowest index (the deterministic argmin every batched
/// consumer relies on). refs must be non-empty.
std::size_t nearest_hamming(const BinaryHV& query,
                            std::span<const BinaryHV> refs);

}  // namespace generic::hdc
