#include "hdc/hypervector.h"

#include <cmath>
#include <stdexcept>

namespace generic::hdc {

BinaryHV BinaryHV::random(std::size_t dims, Rng& rng) {
  BinaryHV hv(dims);
  for (auto& w : hv.words_) w = rng.next_u64();
  hv.mask_tail();
  return hv;
}

void BinaryHV::mask_tail() {
  const std::size_t rem = dims_ % kWordBits;
  if (rem != 0 && !words_.empty()) words_.back() &= low_mask(rem);
}

BinaryHV& BinaryHV::operator^=(const BinaryHV& other) {
  if (other.dims_ != dims_)
    throw std::invalid_argument("BinaryHV xor: dimension mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

std::size_t BinaryHV::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(popcount64(w));
  return total;
}

std::size_t BinaryHV::hamming(const BinaryHV& other) const {
  if (other.dims_ != dims_)
    throw std::invalid_argument("BinaryHV hamming: dimension mismatch");
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    total += static_cast<std::size_t>(popcount64(words_[i] ^ other.words_[i]));
  return total;
}

std::int64_t BinaryHV::dot(const BinaryHV& other) const {
  return static_cast<std::int64_t>(dims_) -
         2 * static_cast<std::int64_t>(hamming(other));
}

BinaryHV BinaryHV::rotated(std::size_t k) const {
  BinaryHV out(dims_);
  xor_rotated_into(out, *this, k);
  return out;
}

void xor_rotated_into(BinaryHV& dst, const BinaryHV& src, std::size_t k) {
  const std::size_t dims = src.dims();
  if (dst.dims() != dims)
    throw std::invalid_argument("xor_rotated_into: dimension mismatch");
  if (&dst == &src)
    throw std::invalid_argument("xor_rotated_into: dst aliases src");
  if (dims == 0) return;
  k %= dims;
  std::uint64_t* d = dst.words().data();
  const std::uint64_t* s = src.words().data();
  if (dims % kWordBits != 0) {
    // Ragged tail: bit i lands on i + k, wrapping once at dims.
    const std::size_t wrap = dims - k;
    for (std::size_t i = 0; i < wrap; ++i)
      if (get_bit(s, i)) flip_bit(d, i + k);
    for (std::size_t i = wrap; i < dims; ++i)
      if (get_bit(s, i)) flip_bit(d, i - wrap);
    return;
  }
  // Word j of rho^k(src) is src word j - ws (mod nw) shifted up by bs bits,
  // or'ed with the top bits of the word below it. The source index wraps
  // only for j <= ws, so split there instead of taking j % nw per word.
  const std::size_t nw = src.num_words();
  const std::size_t ws = k / kWordBits;
  const std::size_t bs = k % kWordBits;
  if (bs == 0) {
    for (std::size_t j = 0; j < ws; ++j) d[j] ^= s[j + nw - ws];
    for (std::size_t j = ws; j < nw; ++j) d[j] ^= s[j - ws];
    return;
  }
  const std::size_t rs = kWordBits - bs;
  for (std::size_t j = 0; j < ws; ++j)
    d[j] ^= (s[j + nw - ws] << bs) | (s[j + nw - ws - 1] >> rs);
  d[ws] ^= (s[0] << bs) | (s[nw - 1] >> rs);
  for (std::size_t j = ws + 1; j < nw; ++j)
    d[j] ^= (s[j - ws] << bs) | (s[j - ws - 1] >> rs);
}

void BinaryHV::accumulate_into(IntHV& acc, int sign) const {
  if (acc.size() != dims_)
    throw std::invalid_argument("accumulate_into: dimension mismatch");
  // Bipolar value is 2*bit - 1; the inner loop is written per-word so the
  // compiler can vectorize the bit test.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    const std::size_t base = w * kWordBits;
    const std::size_t n = std::min(kWordBits, dims_ - base);
    for (std::size_t b = 0; b < n; ++b) {
      const int bitv = static_cast<int>((word >> b) & 1ULL);
      acc[base + b] += sign * (2 * bitv - 1);
    }
  }
}

IntHV BinaryHV::to_int() const {
  IntHV out(dims_, 0);
  accumulate_into(out, +1);
  return out;
}

std::int64_t dot(const IntHV& a, const IntHV& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<std::int64_t>(a[i]) * b[i];
  return acc;
}

std::int64_t dot(const IntHV& a, const BinaryHV& b) {
  if (a.size() != b.dims())
    throw std::invalid_argument("dot(int,binary): size mismatch");
  // sum_i a_i * (2 b_i - 1) = 2 * sum_{i: b_i=1} a_i - sum_i a_i.
  std::int64_t sum_all = 0;
  std::int64_t sum_set = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum_all += a[i];
    if (b.bit(i)) sum_set += a[i];
  }
  return 2 * sum_set - sum_all;
}

std::int64_t norm2(const IntHV& a) {
  std::int64_t acc = 0;
  for (std::int32_t v : a) acc += static_cast<std::int64_t>(v) * v;
  return acc;
}

double cosine(const IntHV& a, const IntHV& b) {
  const std::int64_t na = norm2(a);
  const std::int64_t nb = norm2(b);
  if (na == 0 || nb == 0) return 0.0;
  return static_cast<double>(dot(a, b)) /
         (std::sqrt(static_cast<double>(na)) * std::sqrt(static_cast<double>(nb)));
}

void add_into(IntHV& acc, const IntHV& x, int sign) {
  if (acc.size() != x.size())
    throw std::invalid_argument("add_into: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += sign * x[i];
}

}  // namespace generic::hdc
