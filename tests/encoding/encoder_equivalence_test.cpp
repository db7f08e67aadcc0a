// The window-bundling core (bit-sliced counter + division-free rotate-XOR)
// against a test-local copy of the original algorithm: rotate each row by
// its definition, bind, and bundle one window at a time with
// accumulate_into. Every binary encoder, encode_masked, and encode_batch
// must reproduce it bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "encoding/encoders.h"
#include "hdc/item_memory.h"

namespace generic::enc {
namespace {

using hdc::BinaryHV;
using hdc::IntHV;

constexpr std::size_t kLevels = 16;
constexpr std::uint64_t kSeed = 0xE9017ULL;

// The memory seeds each encoder derives from cfg.seed (encoders.cpp).
constexpr std::uint64_t kLevelSeed = kSeed ^ 0x11EE1ULL;
constexpr std::uint64_t kIdSeed = kSeed ^ 0x6E2E21CULL;
constexpr std::uint64_t kSymbolSeed = kSeed ^ 0x51B01ULL;

BinaryHV ref_rotated(const BinaryHV& a, std::size_t k) {
  BinaryHV out(a.dims());
  for (std::size_t i = 0; i < a.dims(); ++i)
    if (a.bit(i)) out.set((i + k) % a.dims(), true);
  return out;
}

/// The original sliding-window loop: per window, XOR the rotated rows,
/// bind the incrementally rotated id, skip masked windows, accumulate.
template <class RowFn>
IntHV ref_windows(const std::vector<std::uint16_t>& bins, std::size_t dims,
                  std::size_t n, RowFn row, const BinaryHV* id_seed,
                  const std::vector<bool>* row_ok) {
  IntHV acc(dims, 0);
  if (bins.size() < n) return acc;
  BinaryHV id = id_seed ? *id_seed : BinaryHV();
  for (std::size_t i = 0; i + n <= bins.size(); ++i) {
    bool ok = true;
    for (std::size_t j = 0; j < n && row_ok && ok; ++j) ok = (*row_ok)[bins[i + j]];
    if (ok) {
      BinaryHV w = row(bins[i]);
      for (std::size_t j = 1; j < n; ++j) w ^= ref_rotated(row(bins[i + j]), j);
      if (id_seed) w ^= id;
      w.accumulate_into(acc);
    }
    if (id_seed) id = ref_rotated(id, 1);
  }
  return acc;
}

struct Case {
  std::size_t dims;
  std::size_t window;
  bool remat;
};

EncoderConfig config_of(const Case& c, bool use_ids) {
  EncoderConfig cfg;
  cfg.dims = c.dims;
  cfg.levels = kLevels;
  cfg.window = c.window;
  cfg.use_ids = use_ids;
  cfg.seed = kSeed;
  cfg.remat = c.remat;
  return cfg;
}

std::vector<float> random_sample(std::size_t features, Rng& rng) {
  std::vector<float> x(features);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  return x;
}

/// Reference encodings from stored memories built with the encoders' own
/// seeds; a rematerialized encoder must match them too.
class Reference {
 public:
  explicit Reference(std::size_t dims)
      : dims_(dims),
        levels_(dims, kLevels, kLevelSeed),
        level_ids_(dims, kSeed),
        symbols_(dims, kSymbolSeed),
        seed_id_(hdc::SeededItemMemory(dims, kIdSeed).seed_id()) {}

  IntHV encode(EncoderKind kind, const EncoderConfig& cfg,
               const std::vector<std::uint16_t>& bins) const {
    const auto level = [&](std::size_t b) { return levels_.level(b); };
    switch (kind) {
      case EncoderKind::kLevelId: {
        IntHV acc(dims_, 0);
        for (std::size_t i = 0; i < bins.size(); ++i)
          (levels_.level(bins[i]) ^ level_ids_.get(i)).accumulate_into(acc);
        return acc;
      }
      case EncoderKind::kPermutation: {
        IntHV acc(dims_, 0);
        for (std::size_t i = 0; i < bins.size(); ++i)
          ref_rotated(levels_.level(bins[i]), i).accumulate_into(acc);
        return acc;
      }
      case EncoderKind::kNgram:
        return ref_windows(bins, dims_, cfg.window, level, nullptr, nullptr);
      case EncoderKind::kGeneric:
        return ref_windows(bins, dims_, cfg.window, level,
                           cfg.use_ids ? &seed_id_ : nullptr, nullptr);
      case EncoderKind::kSymbolNgram:
        return ref_windows(bins, dims_, cfg.window,
                           [&](std::size_t b) { return symbols_.get(b); },
                           nullptr, nullptr);
      default:
        ADD_FAILURE() << "not a binary encoder";
        return {};
    }
  }

  IntHV encode_masked(const EncoderConfig& cfg,
                      const std::vector<std::uint16_t>& bins,
                      const std::vector<bool>& level_ok, bool id_ok) const {
    return ref_windows(
        bins, dims_, cfg.window, [&](std::size_t b) { return levels_.level(b); },
        cfg.use_ids && id_ok ? &seed_id_ : nullptr, &level_ok);
  }

 private:
  std::size_t dims_;
  hdc::LevelMemory levels_;
  hdc::ItemMemory level_ids_;
  hdc::ItemMemory symbols_;
  BinaryHV seed_id_;
};

constexpr EncoderKind kBinaryKinds[] = {
    EncoderKind::kLevelId, EncoderKind::kPermutation, EncoderKind::kNgram,
    EncoderKind::kGeneric, EncoderKind::kSymbolNgram};

class EncoderEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool>> {
 protected:
  Case param() const {
    return {std::get<0>(GetParam()), std::get<1>(GetParam()),
            std::get<2>(GetParam())};
  }
};

TEST_P(EncoderEquivalence, EveryBinaryEncoderMatchesReference) {
  const Case c = param();
  const Reference ref(c.dims);
  Rng rng(c.dims * 31 + c.window);
  // Feature counts below, at and above the window (window 1 has no "below").
  for (std::size_t features : {c.window - 1, c.window, std::size_t{23}}) {
    if (features == 0) continue;
    const std::vector<float> x = random_sample(features, rng);
    for (EncoderKind kind : kBinaryKinds) {
      for (bool use_ids : {true, false}) {
        const EncoderConfig cfg = config_of(c, use_ids);
        const auto e = make_encoder(kind, cfg);
        e->fit_range(0.0f, 1.0f);
        const IntHV got = e->encode(x);
        ASSERT_EQ(got, ref.encode(kind, cfg, e->quantizer().transform(x)))
            << to_string(kind) << " features=" << features
            << " ids=" << use_ids;
      }
    }
  }
}

TEST_P(EncoderEquivalence, EncodeMaskedMatchesReference) {
  const Case c = param();
  const Reference ref(c.dims);
  Rng rng(c.dims * 17 + c.window);
  for (bool use_ids : {true, false}) {
    const EncoderConfig cfg = config_of(c, use_ids);
    GenericEncoder e(cfg);
    e.fit_range(0.0f, 1.0f);
    for (std::size_t features : {c.window - 1, std::size_t{29}}) {
      if (features == 0) continue;
      const std::vector<float> x = random_sample(features, rng);
      const auto bins = e.quantizer().transform(x);
      const std::vector<bool> all_ok(kLevels, true);
      ASSERT_EQ(e.encode_masked(x, all_ok, true), e.encode(x))
          << "all-ok mask must equal encode, ids=" << use_ids;
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<bool> level_ok(kLevels);
        for (std::size_t l = 0; l < kLevels; ++l) level_ok[l] = rng.uniform() < 0.8;
        for (bool id_ok : {true, false})
          ASSERT_EQ(e.encode_masked(x, level_ok, id_ok),
                    ref.encode_masked(cfg, bins, level_ok, id_ok))
              << "ids=" << use_ids << " id_ok=" << id_ok
              << " features=" << features << " trial=" << trial;
      }
    }
  }
}

TEST_P(EncoderEquivalence, EncodeBatchMatchesEncode) {
  // encode_batch runs encode() concurrently: per-call scratch must keep the
  // lanes independent (the tsan preset runs this suite).
  const Case c = param();
  Rng rng(c.dims + c.window);
  std::vector<std::vector<float>> xs;
  for (int s = 0; s < 12; ++s) xs.push_back(random_sample(19, rng));
  ThreadPool pool(3);
  for (EncoderKind kind : kBinaryKinds) {
    const auto e = make_encoder(kind, config_of(c, true));
    e->fit_range(0.0f, 1.0f);
    const auto batch = e->encode_batch(xs, pool);
    for (std::size_t s = 0; s < xs.size(); ++s)
      ASSERT_EQ(batch[s], e->encode(xs[s])) << to_string(kind) << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Windows, EncoderEquivalence,
    ::testing::Combine(::testing::Values(std::size_t{100}, std::size_t{4096}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{5}),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = "D";
      name += std::to_string(std::get<0>(info.param));
      name += "_n";
      name += std::to_string(std::get<1>(info.param));
      name += std::get<2>(info.param) ? "_remat" : "_stored";
      return name;
    });

TEST(EncoderEquivalenceLive, InPlaceRowDamageReachesEncoding) {
  // No rotated-row cache: a level row or id seed corrupted in place after
  // the first encode (fault injection, EncoderGuard scrubs) must change
  // the next encoding exactly as the reference with the damaged rows says.
  const Case c{4096, 3, false};
  const EncoderConfig cfg = config_of(c, true);
  GenericEncoder e(cfg);
  e.fit_range(0.0f, 1.0f);
  Rng rng(41);
  const std::vector<float> x = random_sample(40, rng);
  const auto bins = e.quantizer().transform(x);
  const IntHV clean = e.encode(x);

  BinaryHV& row = e.mutable_level_memory().mutable_level(bins[5]);
  for (std::size_t i = 0; i < 300; ++i) row.flip(i * 13);
  e.mutable_id_memory().mutable_seed_id().flip(7);
  const auto level = [&](std::size_t b) { return e.level_memory().level(b); };
  const IntHV damaged = e.encode(x);
  EXPECT_NE(damaged, clean);
  EXPECT_EQ(damaged, ref_windows(bins, c.dims, c.window, level,
                                 &e.id_memory().seed_id(), nullptr));
}

}  // namespace
}  // namespace generic::enc
