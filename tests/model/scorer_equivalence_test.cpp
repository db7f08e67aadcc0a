// Equivalence suite for HdcClassifier's single chunk-run scorer: every
// scoring entry — predict_reduced, score and predict_reduced_margin_batch
// — must equal, bit for bit in both class and margin, a reference built
// from the original per-entry arithmetic (the prefix score and the masked
// score, each with its own dot loop, norm sum and argmax). The reference
// lives here, deliberately independent of the library's scan, which runs
// through the kernel table's dot_many: every test sweeps every available
// kernel backend in-process.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "hdc/kernels.h"
#include "model/hdc_classifier.h"

namespace generic::model {
namespace {

constexpr std::size_t kDims = 2048;
constexpr std::size_t kChunk = 128;
constexpr std::size_t kChunks = kDims / kChunk;

namespace k = hdc::kernels;

/// Every backend this build and CPU can run, each made active in turn; the
/// previously active backend is restored afterwards.
class EachBackend {
 public:
  EachBackend() : saved_(k::active_backend()) {}
  ~EachBackend() { k::set_backend(saved_); }

  template <typename F>
  void run(F&& body) {
    for (k::Backend b : k::compiled_backends()) {
      if (!k::available(b)) continue;
      k::set_backend(b);
      SCOPED_TRACE(std::string("backend ") + std::string(k::to_string(b)));
      body();
    }
  }

 private:
  k::Backend saved_;
};

// ---- Reference arithmetic ---------------------------------------------------

double finish_score(std::int64_t dot, std::int64_t n2) {
  if (n2 == 0) return 0.0;
  const double num =
      static_cast<double>(dot) * static_cast<double>(std::abs(dot));
  return num / static_cast<double>(n2);
}

/// Prefix score: the first dims_used dimensions; Updated norm sums the
/// prefix chunks, Constant norm sums every chunk.
double ref_score_prefix(const HdcClassifier& m, const hdc::IntHV& q,
                        std::size_t cls, std::size_t dims_used,
                        NormMode mode) {
  const auto& c = m.class_vector(cls);
  std::int64_t dot = 0;
  for (std::size_t j = 0; j < dims_used; ++j)
    dot += static_cast<std::int64_t>(q[j]) * c[j];
  const std::size_t chunks =
      mode == NormMode::kConstant ? m.num_chunks() : dims_used / kChunk;
  std::int64_t n2 = 0;
  for (std::size_t k = 0; k < chunks; ++k) n2 += m.chunk_norm(cls, k);
  return finish_score(dot, n2);
}

/// Masked score: dot and norm over the enabled chunks only; a Constant
/// norm replaces the masked norm with the full-model norm.
double ref_score_masked(const HdcClassifier& m, const hdc::IntHV& q,
                        std::size_t cls, const std::vector<bool>& ok,
                        NormMode mode) {
  const auto& c = m.class_vector(cls);
  std::int64_t dot = 0;
  std::int64_t n2 = 0;
  for (std::size_t k = 0; k < m.num_chunks(); ++k) {
    if (!ok[k]) continue;
    for (std::size_t j = k * kChunk; j < (k + 1) * kChunk; ++j)
      dot += static_cast<std::int64_t>(q[j]) * c[j];
    n2 += m.chunk_norm(cls, k);
  }
  if (mode == NormMode::kConstant) {
    n2 = 0;
    for (std::size_t k = 0; k < m.num_chunks(); ++k) n2 += m.chunk_norm(cls, k);
  }
  return finish_score(dot, n2);
}

/// Reference for a (dims_used, chunk_ok) selection: the prefix arithmetic
/// without a mask, the masked arithmetic over prefix AND mask with one.
double ref_score(const HdcClassifier& m, const hdc::IntHV& q, std::size_t cls,
                 std::size_t dims_used, NormMode mode,
                 const std::vector<bool>& chunk_ok) {
  if (chunk_ok.empty()) return ref_score_prefix(m, q, cls, dims_used, mode);
  std::vector<bool> ok(m.num_chunks(), false);
  for (std::size_t k = 0; k < dims_used / kChunk; ++k) ok[k] = chunk_ok[k];
  return ref_score_masked(m, q, cls, ok, mode);
}

Prediction ref_predict(const HdcClassifier& m, const hdc::IntHV& q,
                       std::size_t dims_used, NormMode mode,
                       const std::vector<bool>& chunk_ok) {
  Prediction p;
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < m.num_classes(); ++c) {
    const double s = ref_score(m, q, c, dims_used, mode, chunk_ok);
    if (s > best) {
      second = best;
      best = s;
      p.cls = static_cast<int>(c);
    } else if (s > second) {
      second = s;
    }
  }
  if (m.num_classes() >= 2) {
    const double denom = std::abs(best) + std::abs(second);
    p.margin = denom > 0.0 ? (best - second) / denom : 0.0;
  }
  return p;
}

// ---- Fixtures ---------------------------------------------------------------

hdc::IntHV random_hv(Rng& rng, int span) {
  hdc::IntHV v(kDims);
  for (auto& x : v)
    x = static_cast<std::int32_t>(rng.below(2 * span + 1)) - span;
  return v;
}

HdcClassifier random_model(std::size_t classes, std::uint64_t seed) {
  Rng rng(seed);
  HdcClassifier m(kDims, classes, kChunk);
  for (std::size_t c = 0; c < classes; ++c)
    m.mutable_class_vector(c) = random_hv(rng, 60);
  m.recompute_norms();
  return m;
}

std::vector<hdc::IntHV> random_queries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<hdc::IntHV> qs;
  for (std::size_t i = 0; i < n; ++i) qs.push_back(random_hv(rng, 12));
  return qs;
}

/// Random mask with at least one enabled chunk inside the first `prefix`.
std::vector<bool> random_mask(Rng& rng, std::size_t prefix) {
  std::vector<bool> ok(kChunks);
  for (std::size_t k = 0; k < kChunks; ++k) ok[k] = rng.below(3) != 0;
  ok[rng.below(prefix)] = true;
  return ok;
}

/// Every (dims_used, chunk_ok) selection the suite sweeps: the prefixes
/// {128, 1024, full} unmasked, random full-width masks, and random masks
/// intersected with each prefix.
struct Selection {
  std::size_t dims_used;
  std::vector<bool> chunk_ok;
};

std::vector<Selection> selections(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Selection> out;
  for (std::size_t d : {kChunk, std::size_t{1024}, kDims}) {
    out.push_back({d, {}});
    out.push_back({d, random_mask(rng, d / kChunk)});
  }
  for (int i = 0; i < 3; ++i) out.push_back({kDims, random_mask(rng, kChunks)});
  std::vector<bool> alternating(kChunks);
  for (std::size_t k = 0; k < kChunks; ++k) alternating[k] = k % 2 == 0;
  out.push_back({kDims, alternating});
  return out;
}

void expect_same(const Prediction& got, const Prediction& want,
                 const std::string& where) {
  EXPECT_EQ(got.cls, want.cls) << where;
  EXPECT_EQ(got.margin, want.margin) << where;
}

std::string describe(const Selection& s, NormMode mode, std::size_t classes) {
  std::string d = "classes=" + std::to_string(classes) +
                  " dims_used=" + std::to_string(s.dims_used) +
                  (mode == NormMode::kUpdated ? " updated" : " constant") +
                  " mask=";
  for (bool b : s.chunk_ok) d += b ? '1' : '0';
  return d;
}

// ---- Equivalence ------------------------------------------------------------

class ScorerEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScorerEquivalence, EveryEntryMatchesTheReference) {
  const std::size_t classes = GetParam();
  const HdcClassifier m = random_model(classes, 0x5C0E + classes);
  const auto qs = random_queries(12, 0xB0B + classes);
  ThreadPool pool(3);
  EachBackend().run([&] {
    for (const Selection& s : selections(0x5E1 + classes)) {
      for (NormMode mode : {NormMode::kUpdated, NormMode::kConstant}) {
        const std::string where = describe(s, mode, classes);
        const auto batch = m.predict_reduced_margin_batch(
            qs, s.dims_used, mode, pool, s.chunk_ok);
        ASSERT_EQ(batch.size(), qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
          const Prediction want =
              ref_predict(m, qs[i], s.dims_used, mode, s.chunk_ok);
          const Prediction single =
              m.predict_reduced(qs[i], s.dims_used, mode, s.chunk_ok);
          expect_same(single, want, where);
          expect_same(batch[i], single, where + " (batch vs single)");
          for (std::size_t c = 0; c < classes; ++c)
            EXPECT_EQ(m.score(qs[i], c, s.dims_used, mode, s.chunk_ok),
                      ref_score(m, qs[i], c, s.dims_used, mode, s.chunk_ok))
                << where << " cls=" << c;
        }
      }
    }
  });
}

TEST_P(ScorerEquivalence, PredictAndPredictBatchAreTheFullSelection) {
  const std::size_t classes = GetParam();
  const HdcClassifier m = random_model(classes, 0xF011 + classes);
  const auto qs = random_queries(9, 0xF012 + classes);
  ThreadPool pool(3);
  EachBackend().run([&] {
    const auto batch = m.predict_batch(qs, pool);
    ASSERT_EQ(batch.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const int want =
          ref_predict(m, qs[i], kDims, NormMode::kUpdated, {}).cls;
      EXPECT_EQ(m.predict(qs[i]), want);
      EXPECT_EQ(batch[i], want);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Classes, ScorerEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{16}, std::size_t{45}));

TEST(ScorerEquivalenceEdges, TiedScoresGoToTheLowestClass) {
  HdcClassifier m = random_model(16, 0x71E);
  // Classes 5 and 11 are identical and the query is class 5 itself, so
  // both share the top score under every selection.
  m.mutable_class_vector(11) = m.class_vector(5);
  m.recompute_norms();
  const hdc::IntHV q = m.class_vector(5);
  ThreadPool pool(3);
  EachBackend().run([&] {
    for (const Selection& s : selections(0x71F)) {
      for (NormMode mode : {NormMode::kUpdated, NormMode::kConstant}) {
        const std::string where = describe(s, mode, 16);
        const Prediction p =
            m.predict_reduced(q, s.dims_used, mode, s.chunk_ok);
        EXPECT_EQ(p.cls, 5) << where;
        EXPECT_EQ(p.margin, 0.0) << where;
        expect_same(p, ref_predict(m, q, s.dims_used, mode, s.chunk_ok),
                    where);
        const std::vector<hdc::IntHV> one{q};
        expect_same(m.predict_reduced_margin_batch(one, s.dims_used, mode,
                                                   pool, s.chunk_ok)[0],
                    p, where + " (batch)");
      }
    }
  });
}

TEST(ScorerEquivalenceEdges, AllZeroClassNormsScoreZero) {
  // A fresh model: every class and every norm is zero, so every score is
  // 0, class 0 wins the tie and the margin is 0.
  const HdcClassifier fresh(kDims, 4, kChunk);
  const auto qs = random_queries(3, 0x2E80);
  for (const auto& q : qs) {
    for (const Selection& s : selections(0x2E81)) {
      for (NormMode mode : {NormMode::kUpdated, NormMode::kConstant}) {
        const Prediction p =
            fresh.predict_reduced(q, s.dims_used, mode, s.chunk_ok);
        EXPECT_EQ(p.cls, 0);
        EXPECT_EQ(p.margin, 0.0);
        EXPECT_EQ(fresh.score(q, 2, s.dims_used, mode, s.chunk_ok), 0.0);
      }
    }
  }
  // One zero class among live ones scores 0 and loses to any positive.
  HdcClassifier m = random_model(4, 0x2E82);
  m.mutable_class_vector(0).assign(kDims, 0);
  m.recompute_norms();
  for (const auto& q : qs)
    for (NormMode mode : {NormMode::kUpdated, NormMode::kConstant}) {
      EXPECT_EQ(m.score(q, 0, kDims, mode), 0.0);
      expect_same(m.predict_reduced(q, kDims, mode),
                  ref_predict(m, q, kDims, mode, {}), "one zero class");
    }
}

// ---- Training trajectory ----------------------------------------------------

/// A retraining fit written as plain loops: bundle, then up to `epochs`
/// perceptron epochs over full-width scores (one dot loop and one squared
/// norm per class), lowest class on ties, stopping after an epoch with no
/// update — the trajectory HdcClassifier::fit_parallel must reproduce.
/// Returns the number of epochs that updated the model.
std::size_t ref_fit(std::vector<hdc::IntHV>& classes,
                    const std::vector<hdc::IntHV>& xs,
                    const std::vector<int>& ys, std::size_t epochs) {
  const std::size_t dims = classes[0].size();
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = 0; j < dims; ++j)
      classes[static_cast<std::size_t>(ys[i])][j] += xs[i][j];
  std::size_t updating_epochs = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::size_t updates = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      int pred = 0;
      double best = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < classes.size(); ++c) {
        std::int64_t dot = 0;
        std::int64_t n2 = 0;
        for (std::size_t j = 0; j < dims; ++j) {
          dot += static_cast<std::int64_t>(xs[i][j]) * classes[c][j];
          n2 += static_cast<std::int64_t>(classes[c][j]) * classes[c][j];
        }
        const double score = finish_score(dot, n2);
        if (score > best) {
          best = score;
          pred = static_cast<int>(c);
        }
      }
      if (pred == ys[i]) continue;
      ++updates;
      for (std::size_t j = 0; j < dims; ++j) {
        classes[static_cast<std::size_t>(pred)][j] -= xs[i][j];
        classes[static_cast<std::size_t>(ys[i])][j] += xs[i][j];
      }
    }
    if (updates == 0) break;
    ++updating_epochs;
  }
  return updating_epochs;
}

TEST(ScorerTrainingTrajectory, FitParallelMatchesNaiveFitOnEveryBackend) {
  // Six overlapping classes: noisy copies of weak random prototypes in few
  // dimensions, with more samples than dimensions, so retraining keeps
  // updating for several epochs.
  constexpr std::size_t kFitDims = 2 * kChunk;
  constexpr std::size_t kClasses = 6;
  constexpr std::size_t kEpochs = 20;
  Rng rng(0x7A1);
  auto noise = [&](int span) {
    hdc::IntHV v(kFitDims);
    for (auto& x : v)
      x = static_cast<std::int32_t>(rng.below(2 * span + 1)) - span;
    return v;
  };
  std::vector<hdc::IntHV> protos;
  for (std::size_t c = 0; c < kClasses; ++c) protos.push_back(noise(2));
  std::vector<hdc::IntHV> xs;
  std::vector<int> ys;
  for (std::size_t i = 0; i < 600; ++i) {
    const std::size_t c = i % kClasses;
    hdc::IntHV x = noise(30);
    for (std::size_t j = 0; j < kFitDims; ++j) x[j] += protos[c][j];
    xs.push_back(std::move(x));
    ys.push_back(static_cast<int>(c));
  }

  std::vector<hdc::IntHV> want(kClasses, hdc::IntHV(kFitDims, 0));
  ASSERT_GE(ref_fit(want, xs, ys, kEpochs), 10u)
      << "the fixture no longer exercises retraining";

  EachBackend().run([&] {
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
      ThreadPool pool(lanes);
      HdcClassifier m(kFitDims, kClasses, kChunk);
      m.fit_parallel(xs, ys, kEpochs, pool);
      for (std::size_t c = 0; c < kClasses; ++c) {
        EXPECT_EQ(m.class_vector(c), want[c])
            << "lanes=" << lanes << " cls=" << c;
        for (std::size_t k = 0; k < m.num_chunks(); ++k) {
          std::int64_t n2 = 0;
          for (std::size_t j = k * kChunk; j < (k + 1) * kChunk; ++j)
            n2 += static_cast<std::int64_t>(want[c][j]) * want[c][j];
          EXPECT_EQ(m.chunk_norm(c, k), n2)
              << "lanes=" << lanes << " cls=" << c << " chunk=" << k;
        }
      }
    }
  });
}

// ---- Validation -------------------------------------------------------------

TEST(ScorerEquivalenceEdges, EveryEntryRejectsBadInput) {
  const HdcClassifier m = random_model(3, 0xBAD);
  const hdc::IntHV q(kDims, 1);
  const hdc::IntHV short_q(kDims - kChunk, 1);
  const std::vector<hdc::IntHV> good{q};
  const std::vector<hdc::IntHV> bad{q, short_q};
  const std::vector<bool> none(kChunks, false);
  std::vector<bool> tail_only(kChunks, false);
  tail_only[kChunks - 1] = true;  // nothing inside a 1024-dim prefix
  const std::vector<bool> wrong_size(kChunks - 1, true);
  ThreadPool pool(3);
  const NormMode u = NormMode::kUpdated;

  struct Bad {
    const char* what;
    std::size_t dims_used;
    std::vector<bool> chunk_ok;
  };
  const Bad bad_selections[] = {
      {"dims_used 0", 0, {}},
      {"dims_used > dims", kDims + kChunk, {}},
      {"dims_used not a chunk multiple", 1000, {}},
      {"mask of the wrong size", kDims, wrong_size},
      {"empty mask selection", kDims, none},
      {"empty prefix-and-mask selection", 1024, tail_only},
  };
  for (const Bad& b : bad_selections) {
    EXPECT_THROW(m.predict_reduced(q, b.dims_used, u, b.chunk_ok),
                 std::invalid_argument)
        << b.what;
    EXPECT_THROW(m.score(q, 0, b.dims_used, u, b.chunk_ok),
                 std::invalid_argument)
        << b.what;
    EXPECT_THROW(
        m.predict_reduced_margin_batch(good, b.dims_used, u, pool, b.chunk_ok),
        std::invalid_argument)
        << b.what;
  }

  EXPECT_THROW(m.predict(short_q), std::invalid_argument);
  EXPECT_THROW(m.predict_reduced(short_q, kDims, u), std::invalid_argument);
  EXPECT_THROW(m.score(short_q, 0, kDims, u), std::invalid_argument);
  EXPECT_THROW(m.predict_batch(bad, pool), std::invalid_argument);
  EXPECT_THROW(m.predict_reduced_margin_batch(bad, kDims, u, pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace generic::model
