// edge_infer and edge_train: the paper's edge uses, one process, no network.
#include <algorithm>
#include <memory>
#include <string>

#include "arch/microarch.h"
#include "bench.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"
#include "model/pipeline.h"

namespace hdcbench {
namespace {

using namespace generic;

constexpr std::size_t kDims = 4096;
constexpr std::size_t kWindow = 3;
constexpr std::size_t kEpochs = 20;     // the paper's constant retraining budget
constexpr std::size_t kOracleLanes = 2;  // the batched oracle, outside timing
// edge_train's pool. Its per-sample fan-out scales no further than one lane,
// and with two lanes the cross-CPU wakeups of 25 000 fork/joins per fit made
// identical runs vary by 40% on a shared 4-vCPU VM; one lane varied by 6%.
constexpr std::size_t kTrainLanes = 1;
constexpr std::size_t kFitsPerWindow = 5;   // edge_train's measurement window
constexpr std::size_t kQuantizePasses = 4;  // over the test split, traced runs
constexpr std::int64_t kTraceBlockNs = 250'000'000;  // traced/untraced alternation

/// Bytes one encode touches, computed from tensor sizes: per window, n level
/// rows and (with ids) one id row of D bits are read, and the D-element
/// accumulator is read and written once.
double encode_bytes(const enc::Encoder& e, std::size_t features) {
  const auto& c = e.config();
  const double windows = static_cast<double>(features - c.window + 1);
  const double rows = static_cast<double>(c.window + (c.use_ids ? 1 : 0));
  const double acc_word = sizeof(hdc::IntHV::value_type);
  return windows * (rows * static_cast<double>(c.dims) / 8.0 +
                    2.0 * acc_word * static_cast<double>(c.dims));
}

}  // namespace

Result run_edge_infer(const RunConfig& rc) {
  Result res;
  data::Dataset ds;
  enc::EncoderConfig ecfg;
  ecfg.dims = kDims;
  ecfg.window = kWindow;
  ecfg.use_ids = true;
  std::unique_ptr<enc::GenericEncoder> encoder;
  std::unique_ptr<model::HdcClassifier> clf;
  const double setup_s = median_setup_s(3, [&] {
    ds = data::make_benchmark("MNIST", rc.seed);
    encoder = std::make_unique<enc::GenericEncoder>(ecfg);
    encoder->fit(ds.train_x);
    const auto train = model::encode_all(*encoder, ds.train_x);
    clf = std::make_unique<model::HdcClassifier>(kDims, ds.num_classes);
    clf->fit(train, ds.train_y, kEpochs);
  });
  const std::size_t n = ds.test_size();

  // Oracle 1, outside every timed region: the batched path.
  std::vector<int> batched;
  {
    ThreadPool pool(kOracleLanes);
    batched = clf->predict_batch(encoder->encode_batch(ds.test_x, pool), pool);
  }

  Tracer tracer;
  Lane& lane = tracer.lane();
  std::vector<Window> windows;  // untraced blocks
  double wall_ns[2] = {0.0, 0.0};
  std::uint64_t ops[2] = {0, 0};
  std::uint64_t correct = 0, mismatched = 0;
  std::size_t i = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(rc.seconds * 1e9);
  for (int block = 0; now_ns() < deadline; ++block) {
    const bool traced = rc.trace && block % 2 == 1;
    Lane* L = traced ? &lane : nullptr;
    Window w;
    const std::int64_t block_end =
        std::min(now_ns() + (rc.trace ? kTraceBlockNs : kWindowNs), deadline);
    while (now_ns() < block_end) {
      const std::size_t k = i++ % n;
      const std::vector<float>& x = ds.test_x[k];
      const std::uint64_t op = L ? L->next_op() : 0;
      const std::int64_t t0 = now_ns();
      const std::int64_t sop = L ? L->begin("edge_infer.op", op) : -1;
      std::int64_t s = L ? L->begin("encoding.encode", op, sop) : -1;
      const hdc::IntHV h = encoder->encode(x);
      if (L) L->end(s);
      s = L ? L->begin("model.predict", op, sop) : -1;
      const int cls = clf->predict(h);
      if (L) L->end(s);
      if (L) L->end(sop);
      const double dt = static_cast<double>(now_ns() - t0);
      wall_ns[traced] += dt;
      ++ops[traced];
      w.lat_ns.push_back(dt);
      if (cls != batched[k]) ++mismatched;
      correct += cls == ds.test_y[k];
    }
    if (!traced) {
      w.ops = static_cast<double>(w.lat_ns.size());
      for (double dt : w.lat_ns) w.wall_ns += dt;
      windows.push_back(std::move(w));
    }
  }
  res.attempted = ops[0] + ops[1];
  if (mismatched > 0)
    res.fail(mismatched, std::to_string(mismatched) +
                             " per-sample predictions differ from the batched path");

  // Oracle 2: the cycle-level simulator's encoding, bit for bit.
  {
    arch::AppSpec spec;
    spec.dims = kDims;
    spec.features = ds.num_features();
    spec.window = kWindow;
    spec.classes = ds.num_classes;
    spec.use_ids = true;
    arch::MicroArchSim sim(spec, *encoder, *clf);
    constexpr std::size_t kArchSamples = 4;
    res.attempted += kArchSamples;
    for (std::size_t k = 0; k < kArchSamples; ++k) {
      (void)sim.infer(ds.test_x[k]);
      const hdc::IntHV sw = encoder->encode(ds.test_x[k]);
      const auto& hw = sim.last_encoding();
      if (!std::equal(sw.begin(), sw.end(), hw.begin(), hw.end()))
        res.fail(1, "MicroArchSim encoding differs from encode() on test sample " +
                        std::to_string(k));
    }
  }

  if (!rc.trace) {
    const WindowMedians wm = window_medians(windows);
    res.set("setup_s", setup_s);
    res.set("samples_per_s", wm.per_s);
    res.set("latency_p50_us", wm.p50_us);
    res.set("latency_p99_us", wm.p99_us);
    res.set("accuracy", frac(static_cast<double>(correct), static_cast<double>(ops[0] + ops[1])));
    res.set("peak_rss_mb", peak_rss_mb());
    return res;
  }

  // encode() quantizes its input itself, so the operation above holds no
  // separate Quantizer call; the quantizer's share is timed on its own here.
  for (std::size_t r = 0; r < kQuantizePasses; ++r)
    for (const std::vector<float>& x : ds.test_x) {
      const std::int64_t s = lane.begin("common.quantize", lane.next_op());
      (void)encoder->quantizer().transform(x);
      lane.end(s);
    }

  const SpanTotals op = tracer.totals("edge_infer.op");
  const SpanTotals enc_t = tracer.totals("encoding.encode");
  res.set("common.quantize_us", tracer.totals("common.quantize").mean_ns() / 1e3);
  res.set("encoding.calls", static_cast<double>(enc_t.count));
  res.set("encoding.encode_us", enc_t.mean_ns() / 1e3);
  res.set("encoding.op_frac", frac(enc_t.total_ns, op.total_ns));
  res.set("encoding.windows_per_sample",
          static_cast<double>(ds.num_features() - kWindow + 1));
  res.set("encoding.bytes_per_sample", encode_bytes(*encoder, ds.num_features()));
  res.set("encoding.footprint_bytes",
          static_cast<double>(encoder->memory_footprint_bytes()));
  res.set("model.predict_us", tracer.totals("model.predict").mean_ns() / 1e3);
  res.set("model.score_bytes_per_query", score_bytes(*clf));
  res.set("bench.trace_overhead_frac",
          frac(wall_ns[1] / static_cast<double>(ops[1]),
               wall_ns[0] / static_cast<double>(ops[0])) - 1.0);
  res.set("bench.attributed_frac", tracer.attributed_frac("edge_infer.op"));
  if (!rc.trace_out.empty() && !tracer.write_json(rc.trace_out, "edge_infer", rc.seed))
    res.fail(0, "cannot write " + rc.trace_out);
  return res;
}

Result run_edge_train(const RunConfig& rc) {
  Result res;
  data::Dataset ds;
  enc::EncoderConfig ecfg;
  ecfg.dims = kDims;
  ecfg.window = kWindow;
  ecfg.use_ids = false;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<enc::GenericEncoder> encoder;
  const double setup_s = median_setup_s(7, [&] {
    ds = data::make_benchmark("LANG", rc.seed);
    encoder = std::make_unique<enc::GenericEncoder>(ecfg);
    pool = std::make_unique<ThreadPool>(kTrainLanes);
  });
  const std::size_t n = ds.train_size();

  // Oracle, outside every timed region: the serial fit.
  model::HdcClassifier reference(kDims, ds.num_classes);
  {
    enc::GenericEncoder e(ecfg);
    e.fit(ds.train_x);
    reference.fit(model::encode_all(e, ds.train_x), ds.train_y, kEpochs);
  }
  auto same_model = [](const model::HdcClassifier& a, const model::HdcClassifier& b) {
    for (std::size_t c = 0; c < a.num_classes(); ++c) {
      if (a.class_vector(c) != b.class_vector(c)) return false;
      for (std::size_t k = 0; k < a.num_chunks(); ++k)
        if (a.chunk_norm(c, k) != b.chunk_norm(c, k)) return false;
    }
    return true;
  };

  Tracer tracer;
  Lane& lane = tracer.lane();
  std::vector<double> fit_ns[2];
  double updates = 0.0, busy_ns = 0.0, pool_wall_ns = 0.0;
  double accuracy = 0.0;
  std::unique_ptr<model::HdcClassifier> first;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(rc.seconds * 1e9);
  // Fit 0 warms caches and the pool up; it is checked but not timed.
  for (int fit = 0; fit <= 1 || now_ns() < deadline; ++fit) {
    const bool traced = rc.trace && fit % 2 == 1;
    Lane* L = traced ? &lane : nullptr;
    const double busy0 = pool_busy_ns(pool->stats());
    const std::uint64_t op = L ? L->next_op() : 0;
    const std::int64_t t0 = now_ns();
    const std::int64_t sop = L ? L->begin("edge_train.fit", op) : -1;
    std::int64_t s = L ? L->begin("common.quantizer_fit", op, sop) : -1;
    encoder->fit(ds.train_x);
    if (L) L->end(s);
    s = L ? L->begin("encoding.encode_batch", op, sop) : -1;
    const std::vector<hdc::IntHV> encoded = encoder->encode_batch(ds.train_x, *pool);
    if (L) L->end(s);
    auto clf = std::make_unique<model::HdcClassifier>(kDims, ds.num_classes);
    s = L ? L->begin("model.train_batch", op, sop) : -1;
    clf->train_batch(encoded, ds.train_y, *pool);
    if (L) L->end(s);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      s = L ? L->begin("model.retrain_epoch", op, sop) : -1;
      const std::size_t u = clf->retrain_epoch_parallel(encoded, ds.train_y, *pool);
      if (L) L->end(s);
      if (traced) updates += static_cast<double>(u);
    }
    if (L) L->end(sop);
    const std::int64_t t1 = now_ns();
    if (fit > 0) fit_ns[traced].push_back(static_cast<double>(t1 - t0));
    if (traced) {
      busy_ns += pool_busy_ns(pool->stats()) - busy0;
      pool_wall_ns += static_cast<double>(t1 - t0) * static_cast<double>(pool->lanes());
    }

    ++res.attempted;
    if (!same_model(*clf, reference))
      res.fail(1, "fit " + std::to_string(fit) + " differs from the serial fit");
    if (!first) {
      first = std::move(clf);
      std::size_t ok = 0;
      const auto preds =
          first->predict_batch(encoder->encode_batch(ds.test_x, *pool), *pool);
      for (std::size_t k = 0; k < preds.size(); ++k) ok += preds[k] == ds.test_y[k];
      accuracy = frac(static_cast<double>(ok), static_cast<double>(preds.size()));
    } else if (!same_model(*clf, *first)) {
      res.fail(1, "fit " + std::to_string(fit) + " differs from the first fit");
    }
  }

  if (!rc.trace) {
    // Windows of kFitsPerWindow consecutive fits, as the other workloads use
    // one-second windows; a trailing partial window is dropped unless it is
    // the only one.
    std::vector<Window> windows;
    for (std::size_t f = 0; f < fit_ns[0].size(); ++f) {
      if (f % kFitsPerWindow == 0) windows.emplace_back();
      windows.back().lat_ns.push_back(fit_ns[0][f]);
    }
    if (windows.size() > 1 && windows.back().lat_ns.size() < kFitsPerWindow)
      windows.pop_back();
    const WindowMedians wm = window_medians(windows);
    res.set("setup_s", setup_s);
    res.set("samples_per_s", frac(static_cast<double>(n), wm.p50_us / 1e6));
    res.set("latency_p50_us", wm.p50_us);
    res.set("latency_p99_us", wm.p99_us);
    res.set("accuracy", accuracy);
    res.set("peak_rss_mb", peak_rss_mb());
    return res;
  }

  const SpanTotals fits = tracer.totals("edge_train.fit");
  const SpanTotals enc_t = tracer.totals("encoding.encode_batch");
  const SpanTotals epochs = tracer.totals("model.retrain_epoch");
  const double traced_fits = static_cast<double>(fits.count);
  res.set("common.quantizer_fit_ms", tracer.totals("common.quantizer_fit").mean_ns() / 1e6);
  res.set("common.pool_busy_frac", frac(busy_ns, pool_wall_ns));
  res.set("encoding.calls", static_cast<double>(enc_t.count));
  res.set("encoding.encode_us", frac(enc_t.total_ns / 1e3, traced_fits * static_cast<double>(n)));
  res.set("encoding.op_frac", frac(enc_t.total_ns, fits.total_ns));
  res.set("encoding.windows_per_sample",
          static_cast<double>(ds.num_features() - kWindow + 1));
  res.set("encoding.bytes_per_sample", encode_bytes(*encoder, ds.num_features()));
  res.set("encoding.footprint_bytes",
          static_cast<double>(encoder->memory_footprint_bytes()));
  res.set("model.score_bytes_per_query", score_bytes(reference));
  res.set("model.train_batch_ms", tracer.totals("model.train_batch").mean_ns() / 1e6);
  res.set("model.retrain_epoch_ms", median(tracer.durations("model.retrain_epoch")) / 1e6);
  res.set("model.retrain_frac", frac(epochs.total_ns, fits.total_ns));
  res.set("model.updates_per_epoch", frac(updates, static_cast<double>(epochs.count)));
  res.set("model.update_frac",
          frac(updates, static_cast<double>(epochs.count) * static_cast<double>(n)));
  res.set("bench.trace_overhead_frac", frac(median(fit_ns[1]), median(fit_ns[0])) - 1.0);
  res.set("bench.attributed_frac", tracer.attributed_frac("edge_train.fit"));
  if (!rc.trace_out.empty() && !tracer.write_json(rc.trace_out, "edge_train", rc.seed))
    res.fail(0, "cannot write " + rc.trace_out);
  return res;
}

}  // namespace hdcbench
