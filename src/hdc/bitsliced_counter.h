// Bit-sliced bundling counter: the software analogue of the GENERIC ASIC's
// bit-serial bundling. Bundling W binary hypervectors in the int domain
// costs one int32 add per dimension per row; here the per-dimension count
// of set bits is held as bit_width(W) packed bit planes instead, so adding a
// row is a word-parallel ripple-carry (AND + XOR per plane, 64 dimensions
// per word), and the int32 expansion runs once, after the last row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hdc/hypervector.h"

namespace generic::hdc {

class BitSlicedCounter {
 public:
  /// Counter for up to `capacity` rows of `dims` dimensions.
  BitSlicedCounter(std::size_t dims, std::size_t capacity);

  /// Count `row`'s set bits. Throws std::invalid_argument on a dims
  /// mismatch and std::length_error past `capacity` rows.
  void add(const BinaryHV& row);

  /// Rows added so far.
  std::size_t added() const { return added_; }

  /// out[d] = 2 * count[d] - added(): the bipolar sum of every added row,
  /// bit-identical to accumulate_into over the same rows.
  IntHV expand() const;

 private:
  std::size_t dims_;
  std::size_t words_;
  std::size_t capacity_;
  std::size_t planes_;
  std::size_t added_ = 0;
  std::vector<std::uint64_t> bits_;   // planes_ x words_, plane-major
  std::vector<std::uint64_t> carry_;  // scratch for add()
};

}  // namespace generic::hdc
