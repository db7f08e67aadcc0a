#include "model/hdc_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "hdc/kernels.h"
#include "obs/obs.h"

namespace generic::model {

HdcClassifier::HdcClassifier(std::size_t dims, std::size_t num_classes,
                             std::size_t chunk)
    : dims_(dims), num_classes_(num_classes), chunk_(chunk) {
  if (dims == 0 || num_classes == 0 || chunk == 0)
    throw std::invalid_argument("HdcClassifier: zero-sized parameter");
  if (dims % chunk != 0)
    throw std::invalid_argument("HdcClassifier: dims must be a chunk multiple");
  num_chunks_ = dims / chunk;
  classes_.assign(num_classes, hdc::IntHV(dims, 0));
  chunk_norms_.assign(num_classes, std::vector<std::int64_t>(num_chunks_, 0));
}

void HdcClassifier::train_init(std::span<const hdc::IntHV> encoded,
                               std::span<const int> labels) {
  GENERIC_SPAN("train.init");
  if (encoded.size() != labels.size())
    throw std::invalid_argument("train_init: size mismatch");
  for (auto& c : classes_) std::fill(c.begin(), c.end(), 0);
  for (std::size_t i = 0; i < encoded.size(); ++i)
    hdc::add_into(classes_.at(static_cast<std::size_t>(labels[i])), encoded[i]);
  recompute_norms();
}

std::size_t HdcClassifier::retrain_epoch(std::span<const hdc::IntHV> encoded,
                                         std::span<const int> labels) {
  GENERIC_SPAN("train.epoch");
  if (encoded.size() != labels.size())
    throw std::invalid_argument("retrain_epoch: size mismatch");
  const auto runs = select(dims_, {});
  for (const auto& q : encoded) check_query(q);
  std::size_t updates = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const int pred = scan(encoded[i], runs, NormMode::kUpdated).cls;
    const int truth = labels[i];
    if (pred == truth) continue;
    ++updates;
    hdc::add_into(classes_.at(static_cast<std::size_t>(pred)), encoded[i], -1);
    hdc::add_into(classes_.at(static_cast<std::size_t>(truth)), encoded[i], +1);
    // Only the two touched classes need their norms refreshed.
    recompute_norms(static_cast<std::size_t>(pred));
    recompute_norms(static_cast<std::size_t>(truth));
  }
  GENERIC_COUNTER_ADD("train.updates", updates);
  return updates;
}

bool HdcClassifier::online_update(const hdc::IntHV& encoded, int label) {
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_)
    throw std::invalid_argument("online_update: label out of range");
  check_query(encoded);
  const int pred = scan(encoded, select(dims_, {}), NormMode::kUpdated).cls;
  if (pred == label) return false;
  hdc::add_into(classes_[static_cast<std::size_t>(pred)], encoded, -1);
  hdc::add_into(classes_[static_cast<std::size_t>(label)], encoded, +1);
  recompute_norms(static_cast<std::size_t>(pred));
  recompute_norms(static_cast<std::size_t>(label));
  return true;
}

bool HdcClassifier::online_update_adaptive(const hdc::IntHV& encoded,
                                           int label) {
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_)
    throw std::invalid_argument("online_update_adaptive: label out of range");
  check_query(encoded);
  const int pred = scan(encoded, select(dims_, {}), NormMode::kUpdated).cls;
  if (pred == label) return false;
  auto cos_to = [&](std::size_t c) {
    const auto& cls = classes_[c];
    const std::int64_t n2 = hdc::norm2(cls);
    if (n2 == 0) return 0.0;
    return static_cast<double>(hdc::dot(encoded, cls)) /
           (std::sqrt(static_cast<double>(hdc::norm2(encoded))) *
            std::sqrt(static_cast<double>(n2)));
  };
  const double w_in = std::clamp(1.0 - cos_to(static_cast<std::size_t>(label)),
                                 0.0, 2.0);
  const double w_out = std::clamp(
      0.5 * (1.0 + cos_to(static_cast<std::size_t>(pred))), 0.0, 1.0);
  auto& right = classes_[static_cast<std::size_t>(label)];
  auto& wrong = classes_[static_cast<std::size_t>(pred)];
  for (std::size_t j = 0; j < dims_; ++j) {
    right[j] += static_cast<std::int32_t>(std::lround(w_in * encoded[j]));
    wrong[j] -= static_cast<std::int32_t>(std::lround(w_out * encoded[j]));
  }
  recompute_norms(static_cast<std::size_t>(label));
  recompute_norms(static_cast<std::size_t>(pred));
  return true;
}

void HdcClassifier::fit(std::span<const hdc::IntHV> encoded,
                        std::span<const int> labels, std::size_t epochs) {
  GENERIC_SPAN("train.fit");
  train_init(encoded, labels);
  for (std::size_t e = 0; e < epochs; ++e)
    if (retrain_epoch(encoded, labels) == 0) break;
}

void HdcClassifier::train_batch(std::span<const hdc::IntHV> encoded,
                                std::span<const int> labels,
                                ThreadPool& pool) {
  GENERIC_SPAN("train.batch");
  if (encoded.size() != labels.size())
    throw std::invalid_argument("train_batch: size mismatch");
  GENERIC_COUNTER_ADD("train.samples", encoded.size());
  const auto grid = ThreadPool::chunk_grid(encoded.size(), pool.lanes());
  // One private set of class accumulators per chunk; parallel_for hands
  // chunk c exactly grid[c], so partials[c] is written by a single lane.
  std::vector<std::vector<hdc::IntHV>> partials(
      grid.size(), std::vector<hdc::IntHV>(num_classes_, hdc::IntHV(dims_, 0)));
  pool.parallel_for(encoded.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t c) {
                      GENERIC_SPAN("train.batch.chunk");
                      auto& local = partials[c];
                      for (std::size_t i = begin; i < end; ++i)
                        hdc::add_into(
                            local.at(static_cast<std::size_t>(labels[i])),
                            encoded[i]);
                    });
  for (auto& cls : classes_) std::fill(cls.begin(), cls.end(), 0);
  // Fixed chunk-index merge order; integer addition makes the result
  // independent of the split anyway — byte-identical to train_init().
  for (const auto& local : partials)
    for (std::size_t c = 0; c < num_classes_; ++c)
      hdc::add_into(classes_[c], local[c]);
  recompute_norms();
}

namespace {

/// Fixed-order argmax with runner-up tracking; ties go to the lowest class
/// index. The margin is NORMALIZED: (best - second) / (|best| + |second|),
/// which lands in [0, 1] regardless of dims, bit width or norm magnitudes
/// — so downstream consumers (the lifecycle drift detector) can use
/// scale-free thresholds. 0 with fewer than two classes or two zero scores.
template <typename Scorer>
Prediction argmax_with_margin(std::size_t num_classes, Scorer&& scorer) {
  Prediction p;
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double s = scorer(c);
    if (s > best) {
      second = best;
      best = s;
      p.cls = static_cast<int>(c);
    } else if (s > second) {
      second = s;
    }
  }
  if (num_classes >= 2) {
    const double denom = std::abs(best) + std::abs(second);
    p.margin = denom > 0.0 ? (best - second) / denom : 0.0;
  }
  return p;
}

}  // namespace

std::size_t HdcClassifier::retrain_epoch_parallel(
    std::span<const hdc::IntHV> encoded, std::span<const int> labels,
    ThreadPool& pool) {
  GENERIC_SPAN("train.epoch");
  if (encoded.size() != labels.size())
    throw std::invalid_argument("retrain_epoch_parallel: size mismatch");
  const auto runs = select(dims_, {});
  for (const auto& q : encoded) check_query(q);
  std::vector<double> scores(num_classes_, 0.0);
  std::size_t updates = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    // Fan the per-class scoring out; the fixed-order argmax over the
    // indexed scores then reproduces the serial scan bit-for-bit.
    pool.parallel_for(num_classes_,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        score_classes(encoded[i], begin, end, runs,
                                      NormMode::kUpdated, &scores[begin]);
                      });
    const int pred =
        argmax_with_margin(num_classes_, [&](std::size_t c) {
          return scores[c];
        }).cls;
    const int truth = labels[i];
    if (pred == truth) continue;
    ++updates;
    hdc::add_into(classes_.at(static_cast<std::size_t>(pred)), encoded[i], -1);
    hdc::add_into(classes_.at(static_cast<std::size_t>(truth)), encoded[i], +1);
    recompute_norms(static_cast<std::size_t>(pred));
    recompute_norms(static_cast<std::size_t>(truth));
  }
  GENERIC_COUNTER_ADD("train.updates", updates);
  return updates;
}

void HdcClassifier::fit_parallel(std::span<const hdc::IntHV> encoded,
                                 std::span<const int> labels,
                                 std::size_t epochs, ThreadPool& pool) {
  GENERIC_SPAN("train.fit");
  train_batch(encoded, labels, pool);
  for (std::size_t e = 0; e < epochs; ++e)
    if (retrain_epoch_parallel(encoded, labels, pool) == 0) break;
}

std::vector<int> HdcClassifier::predict_batch(
    std::span<const hdc::IntHV> queries, ThreadPool& pool) const {
  const auto preds =
      predict_reduced_margin_batch(queries, dims_, NormMode::kUpdated, pool);
  std::vector<int> out(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].cls;
  return out;
}

std::vector<Prediction> HdcClassifier::predict_reduced_margin_batch(
    std::span<const hdc::IntHV> queries, std::size_t dims_used, NormMode mode,
    ThreadPool& pool, const std::vector<bool>& chunk_ok) const {
  GENERIC_SPAN("predict.batch");
  const auto runs = select(dims_used, chunk_ok);
  for (const auto& q : queries) check_query(q);
  GENERIC_COUNTER_ADD("predict.queries", queries.size());
  std::vector<Prediction> out(queries.size());
  pool.parallel_for(queries.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      GENERIC_SPAN("predict.chunk");
                      for (std::size_t i = begin; i < end; ++i)
                        out[i] = scan(queries[i], runs, mode);
                    });
  return out;
}

int HdcClassifier::predict(const hdc::IntHV& query) const {
  return predict_reduced(query, dims_, NormMode::kUpdated).cls;
}

Prediction HdcClassifier::predict_reduced(
    const hdc::IntHV& query, std::size_t dims_used, NormMode mode,
    const std::vector<bool>& chunk_ok) const {
  const auto runs = select(dims_used, chunk_ok);
  check_query(query);
  GENERIC_COUNTER_ADD("predict.queries", 1);
  return scan(query, runs, mode);
}

double HdcClassifier::score(const hdc::IntHV& query, std::size_t cls,
                            std::size_t dims_used, NormMode mode,
                            const std::vector<bool>& chunk_ok) const {
  const auto runs = select(dims_used, chunk_ok);
  check_query(query);
  if (cls >= num_classes_) throw std::out_of_range("score: class index");
  double s = 0.0;
  score_classes(query, cls, cls + 1, runs, mode, &s);
  return s;
}

std::vector<HdcClassifier::ChunkRun> HdcClassifier::select(
    std::size_t dims_used, const std::vector<bool>& chunk_ok) const {
  if (dims_used == 0 || dims_used > dims_ || dims_used % chunk_ != 0)
    throw std::invalid_argument(
        "HdcClassifier: dims_used must be a chunk multiple in (0, dims]");
  if (!chunk_ok.empty() && chunk_ok.size() != num_chunks_)
    throw std::invalid_argument("HdcClassifier: chunk mask size mismatch");
  std::vector<ChunkRun> runs;
  for (std::size_t k = 0; k < dims_used / chunk_; ++k) {
    if (!chunk_ok.empty() && !chunk_ok[k]) continue;
    if (!runs.empty() && runs.back().end == k)
      runs.back().end = k + 1;
    else
      runs.push_back({k, k + 1});
  }
  if (runs.empty())
    throw std::invalid_argument("HdcClassifier: empty chunk selection");
  return runs;
}

void HdcClassifier::check_query(const hdc::IntHV& query) const {
  if (query.size() != dims_)
    throw std::invalid_argument("HdcClassifier: query dimension mismatch");
}

namespace {

/// Classes scored per dot_many pass. The row pointers, dots and scores of
/// one tile live on the stack, so a scan never allocates.
constexpr std::size_t kClassTile = 32;

}  // namespace

void HdcClassifier::score_classes(const hdc::IntHV& query, std::size_t first,
                                  std::size_t last,
                                  std::span<const ChunkRun> runs,
                                  NormMode mode, double* out) const {
  const hdc::kernels::Kernels& kernels = hdc::kernels::active();
  auto sum = [](std::span<const std::int64_t> v) {
    return std::accumulate(v.begin(), v.end(), std::int64_t{0});
  };
  const std::int32_t* rows[kClassTile] = {};
  std::int64_t dots[kClassTile] = {};
  for (std::size_t t = first; t < last; t += kClassTile) {
    const std::size_t nt = std::min(kClassTile, last - t);
    std::fill_n(dots, nt, std::int64_t{0});
    for (const ChunkRun& r : runs) {
      const std::size_t lo = r.begin * chunk_;
      for (std::size_t j = 0; j < nt; ++j)
        rows[j] = classes_[t + j].data() + lo;
      kernels.dot_many(query.data() + lo, rows, nt, (r.end - r.begin) * chunk_,
                       dots);
    }
    for (std::size_t j = 0; j < nt; ++j) {
      const std::span<const std::int64_t> norms(chunk_norms_[t + j]);
      std::int64_t n2 = 0;
      if (mode == NormMode::kConstant)
        n2 = sum(norms);
      else
        for (const ChunkRun& r : runs)
          n2 += sum(norms.subspan(r.begin, r.end - r.begin));
      const std::int64_t dot = dots[j];
      out[t - first + j] =
          n2 == 0 ? 0.0
                  : static_cast<double>(dot) *
                        static_cast<double>(std::abs(dot)) /
                        static_cast<double>(n2);
    }
  }
}

Prediction HdcClassifier::scan(const hdc::IntHV& query,
                               std::span<const ChunkRun> runs,
                               NormMode mode) const {
  // argmax_with_margin asks for the classes in order; score one tile of
  // them whenever it reaches the tile's first class.
  double tile[kClassTile] = {};
  return argmax_with_margin(num_classes_, [&](std::size_t c) {
    if (c % kClassTile == 0)
      score_classes(query, c, std::min(c + kClassTile, num_classes_), runs,
                    mode, tile);
    return tile[c % kClassTile];
  });
}

void HdcClassifier::recompute_norms() {
  for (std::size_t c = 0; c < num_classes_; ++c) recompute_norms(c);
}

void HdcClassifier::recompute_norms(std::size_t cls) {
  const std::span<const std::int32_t> c(classes_.at(cls));
  for (std::size_t k = 0; k < num_chunks_; ++k)
    chunk_norms_[cls][k] = hdc::norm2(c.subspan(k * chunk_, chunk_));
}

void HdcClassifier::quantize(int bit_width) {
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument("quantize: bit_width must be in [1, 16]");
  std::int64_t max_abs = 1;
  for (const auto& c : classes_)
    for (auto v : c) max_abs = std::max<std::int64_t>(max_abs, std::abs(v));
  if (bit_width == 1) {
    // Sign model: {-1, +1}.
    for (auto& c : classes_)
      for (auto& v : c) v = v >= 0 ? 1 : -1;
  } else {
    const auto qmax =
        static_cast<double>((1 << (bit_width - 1)) - 1);  // e.g. 127 for 8b
    // Clip at min(max_abs, qmax * sigma): for wide words this is max_abs
    // (nothing clips); for 2-bit models it keeps the ternary {-1,0,+1}
    // levels populated instead of rounding the Gaussian bulk to zero.
    double sq_sum = 0.0;
    std::size_t count = 0;
    for (const auto& c : classes_)
      for (auto v : c) {
        sq_sum += static_cast<double>(v) * v;
        ++count;
      }
    const double sigma = std::sqrt(sq_sum / static_cast<double>(count));
    const double clip =
        std::min(static_cast<double>(max_abs), std::max(1.0, qmax * sigma));
    const double scale = qmax / clip;
    for (auto& c : classes_)
      for (auto& v : c)
        v = static_cast<std::int32_t>(std::clamp<long>(
            std::lround(v * scale), static_cast<long>(-qmax - 1),
            static_cast<long>(qmax)));
  }
  bit_width_ = bit_width;
  recompute_norms();
}

void HdcClassifier::inject_bit_flips(double rate, Rng& rng) {
  if (rate <= 0.0) return;
  const int bw = bit_width_;
  const std::int32_t mask =
      bw >= 32 ? -1 : static_cast<std::int32_t>((1u << bw) - 1u);
  for (auto& c : classes_) {
    for (auto& v : c) {
      if (bw == 1) {
        // Bipolar 1-bit storage: bit 1 == +1, bit 0 == -1 (NOT two's
        // complement, where -1 would alias +1 in the low bit).
        std::uint32_t word = v > 0 ? 1u : 0u;
        if (rng.bernoulli(rate)) word ^= 1u;
        v = word ? 1 : -1;
        continue;
      }
      // Interpret the element as a bw-bit two's-complement word, as the
      // class SRAM stores it.
      auto word = static_cast<std::uint32_t>(v) & static_cast<std::uint32_t>(mask);
      for (int b = 0; b < bw; ++b)
        if (rng.bernoulli(rate)) word ^= (1u << b);
      // Sign-extend back.
      std::int32_t out = static_cast<std::int32_t>(word);
      if (bw < 32 && (word & (1u << (bw - 1)))) out -= (1 << bw);
      v = out;
    }
  }
}

}  // namespace generic::model
