#include "encoding/encoders.h"

#include <algorithm>
#include <stdexcept>

#include "hdc/bitsliced_counter.h"
#include "obs/obs.h"

namespace generic::enc {

namespace {

hdc::ItemStorage storage_of(const EncoderConfig& cfg) {
  return cfg.remat ? hdc::ItemStorage::kRematerialized
                   : hdc::ItemStorage::kStored;
}

/// Row of an item memory as a const reference regardless of storage mode:
/// stored rows are referenced in place, rematerialized rows land in
/// `scratch`. The reference is invalidated by the next call with the same
/// scratch — callers copy or consume it before the next lookup.
const hdc::BinaryHV& row(const hdc::ItemMemory& mem, std::size_t key,
                         hdc::BinaryHV& scratch) {
  if (mem.storage() == hdc::ItemStorage::kStored) return mem.get(key);
  scratch = mem.materialize(key);
  return scratch;
}

/// Same contract for level memories.
const hdc::BinaryHV& row(const hdc::LevelMemory& mem, std::size_t bin,
                         hdc::BinaryHV& scratch) {
  if (mem.storage() == hdc::ItemStorage::kStored) return mem.level(bin);
  scratch = mem.materialize(bin);
  return scratch;
}

/// The window-bundling core every sliding-window encoder shares (Eq. 1):
///   H = sum_i [ XOR_{j<n} rho^j(row(bins[i+j])) ] XOR rho^i(id_seed)
/// `rows` is the item or level memory the bins index. Rows are read live on
/// every window, and no rotated copy is cached: fault injection and
/// EncoderGuard scrubs rewrite rows in place, and the encoding must see it.
/// A null `id_seed` drops the id binding. A non-null `row_ok` skips every
/// window that reads a flagged row; the id rotation still tracks the window
/// index i, so surviving windows bind the id the unmasked encode would.
/// All scratch is local: encode() is const and runs concurrently under
/// encode_batch.
template <class Memory>
hdc::IntHV bundle_windows(std::span<const std::uint16_t> bins,
                          std::size_t dims, std::size_t n, const Memory& rows,
                          const hdc::BinaryHV* id_seed,
                          const std::vector<bool>* row_ok) {
  const std::size_t windows = bins.size() < n ? 0 : bins.size() - n + 1;
  hdc::BitSlicedCounter counter(dims, windows);
  hdc::BinaryHV window_hv(dims);
  hdc::BinaryHV scratch;
  for (std::size_t i = 0; i < windows; ++i) {
    if (row_ok && !std::all_of(bins.begin() + i, bins.begin() + i + n,
                               [&](std::uint16_t b) { return (*row_ok)[b]; }))
      continue;
    window_hv = row(rows, bins[i], scratch);
    for (std::size_t j = 1; j < n; ++j)
      hdc::xor_rotated_into(window_hv, row(rows, bins[i + j], scratch), j);
    if (id_seed) hdc::xor_rotated_into(window_hv, *id_seed, i);
    counter.add(window_hv);
  }
  return counter.expand();
}

}  // namespace

void Encoder::fit(std::span<const std::vector<float>> samples) {
  quantizer_ = Quantizer(cfg_.levels);
  quantizer_.fit(samples);
}

std::vector<hdc::IntHV> Encoder::encode_batch(
    std::span<const std::vector<float>> samples, ThreadPool& pool) const {
  GENERIC_SPAN("encode.batch");
  GENERIC_COUNTER_ADD("encode.samples", samples.size());
  std::vector<hdc::IntHV> out(samples.size());
  pool.parallel_for(samples.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      GENERIC_SPAN("encode.chunk");
                      for (std::size_t i = begin; i < end; ++i)
                        out[i] = encode(samples[i]);
                    });
  return out;
}

std::string_view to_string(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kRp: return "rp";
    case EncoderKind::kLevelId: return "level-id";
    case EncoderKind::kNgram: return "ngram";
    case EncoderKind::kPermutation: return "permute";
    case EncoderKind::kGeneric: return "generic";
    case EncoderKind::kSymbolNgram: return "sym-ngram";
  }
  return "?";
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind,
                                      const EncoderConfig& cfg) {
  switch (kind) {
    case EncoderKind::kRp: return std::make_unique<RpEncoder>(cfg);
    case EncoderKind::kLevelId: return std::make_unique<LevelIdEncoder>(cfg);
    case EncoderKind::kNgram: return std::make_unique<NgramEncoder>(cfg);
    case EncoderKind::kPermutation:
      return std::make_unique<PermutationEncoder>(cfg);
    case EncoderKind::kGeneric: return std::make_unique<GenericEncoder>(cfg);
    case EncoderKind::kSymbolNgram:
      return std::make_unique<SymbolNgramEncoder>(cfg);
  }
  throw std::invalid_argument("unknown encoder kind");
}

// ---------------------------------------------------------------- RP

RpEncoder::RpEncoder(const EncoderConfig& cfg)
    : Encoder(cfg), ids_(cfg.dims, cfg.seed, storage_of(cfg)) {}

std::size_t RpEncoder::memory_footprint_bytes() const {
  return ids_.footprint_bytes();
}

hdc::IntHV RpEncoder::encode(std::span<const float> sample) const {
  const auto bins = quantize(sample);
  hdc::IntHV acc(cfg_.dims, 0);
  hdc::BinaryHV scratch;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const hdc::BinaryHV& id = row(ids_, i, scratch);
    const auto value = static_cast<std::int32_t>(bins[i]);
    if (value == 0) continue;
    // acc += value * bipolar(id): split into set/unset bits via two passes
    // over the packed words to stay branch-light.
    for (std::size_t w = 0; w < id.num_words(); ++w) {
      std::uint64_t word = id.words()[w];
      const std::size_t base = w * kWordBits;
      const std::size_t n = std::min(kWordBits, cfg_.dims - base);
      for (std::size_t b = 0; b < n; ++b) {
        const std::int32_t s =
            static_cast<std::int32_t>(((word >> b) & 1ULL) << 1) - 1;
        acc[base + b] += value * s;
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------- level-id

LevelIdEncoder::LevelIdEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      ids_(cfg.dims, cfg.seed, storage_of(cfg)),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {}

std::size_t LevelIdEncoder::memory_footprint_bytes() const {
  return ids_.footprint_bytes() + levels_.footprint_bytes();
}

hdc::IntHV LevelIdEncoder::encode(std::span<const float> sample) const {
  const auto bins = quantize(sample);
  hdc::BitSlicedCounter counter(cfg_.dims, bins.size());
  hdc::BinaryHV bound(cfg_.dims);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    bound = row(levels_, bins[i], bound);
    ids_.xor_row_into(i, bound);
    counter.add(bound);
  }
  return counter.expand();
}

// ---------------------------------------------------------------- permutation

PermutationEncoder::PermutationEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {}

std::size_t PermutationEncoder::memory_footprint_bytes() const {
  return levels_.footprint_bytes();
}

hdc::IntHV PermutationEncoder::encode(std::span<const float> sample) const {
  const auto bins = quantize(sample);
  hdc::BitSlicedCounter counter(cfg_.dims, bins.size());
  hdc::BinaryHV permuted(cfg_.dims);
  hdc::BinaryHV scratch;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    std::ranges::fill(permuted.words(), 0ULL);
    hdc::xor_rotated_into(permuted, row(levels_, bins[i], scratch), i);
    counter.add(permuted);
  }
  return counter.expand();
}

// ---------------------------------------------------------------- ngram

NgramEncoder::NgramEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {
  if (cfg.window == 0) throw std::invalid_argument("ngram: window == 0");
}

std::size_t NgramEncoder::memory_footprint_bytes() const {
  return levels_.footprint_bytes();
}

hdc::IntHV NgramEncoder::encode(std::span<const float> sample) const {
  return bundle_windows(quantize(sample), cfg_.dims, cfg_.window, levels_,
                        nullptr, nullptr);
}

// ---------------------------------------------------------------- generic

GenericEncoder::GenericEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      ids_(cfg.dims, cfg.seed ^ 0x6E2E21CULL),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {
  if (cfg.window == 0) throw std::invalid_argument("generic: window == 0");
}

std::size_t GenericEncoder::memory_footprint_bytes() const {
  // The seeded id memory is already the ASIC's compressed form: one row.
  return ids_.footprint_bytes() + levels_.footprint_bytes();
}

hdc::IntHV GenericEncoder::encode(std::span<const float> sample) const {
  return bundle_windows(quantize(sample), cfg_.dims, cfg_.window, levels_,
                        cfg_.use_ids ? &ids_.seed_id() : nullptr, nullptr);
}

hdc::IntHV GenericEncoder::encode_masked(std::span<const float> sample,
                                         const std::vector<bool>& level_ok,
                                         bool id_ok) const {
  if (level_ok.size() != levels_.num_levels())
    throw std::invalid_argument(
        "encode_masked: level_ok must have one flag per level row");
  return bundle_windows(quantize(sample), cfg_.dims, cfg_.window, levels_,
                        cfg_.use_ids && id_ok ? &ids_.seed_id() : nullptr,
                        &level_ok);
}

hdc::BinaryHV GenericEncoder::materialize_id_seed() const {
  return hdc::SeededItemMemory(cfg_.dims, cfg_.seed ^ 0x6E2E21CULL).seed_id();
}

// ---------------------------------------------------------------- sym-ngram

SymbolNgramEncoder::SymbolNgramEncoder(const EncoderConfig& cfg)
    : Encoder(cfg), items_(cfg.dims, cfg.seed ^ 0x51B01ULL, storage_of(cfg)) {
  if (cfg.window == 0) throw std::invalid_argument("sym-ngram: window == 0");
}

std::size_t SymbolNgramEncoder::memory_footprint_bytes() const {
  return items_.footprint_bytes();
}

hdc::IntHV SymbolNgramEncoder::encode(std::span<const float> sample) const {
  return bundle_windows(quantize(sample), cfg_.dims, cfg_.window, items_,
                        nullptr, nullptr);
}

}  // namespace generic::enc
