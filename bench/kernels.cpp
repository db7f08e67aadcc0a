// Microbenchmark for the runtime-dispatched XOR+popcount kernel backends
// (hdc/kernels.h), the stored-vs-rematerialized item/level memory trade
// (hdc/item_memory.h) and the rtrace recorder (obs/rtrace.h).
//
// For every backend available on this host it times nearest_hamming — one
// query vs `--classes` rows, the search that dominates 1-bit
// classification — and reports Mwords/s plus speedup vs the forced-scalar
// reference. Every measured winner is cross-checked against scalar before
// timing: a backend that is fast but wrong fails loudly here, not in
// production.
//
// The int dot section times one query scored against 21 int32 class rows
// (the LANG shape the edge_train workload retrains on) through each
// backend's dot_many, after checking every dot against scalar.
//
// The remat section times GenericEncoder encode throughput with stored vs
// rematerialized level memory and reports both footprints — the
// Schmuck/Benini/Rahimi memory/recompute trade, quantified.
//
// The primitives section times the HDC operations the software stack
// spends its time in (random HVs, bind, rotate, bundle, int dot, encode,
// int and packed predict) on the session's backend.
//
// The rtrace section times the recorder's three cost regimes
// (docs/observability.md) over bursts of kRtraceEvents records:
//   * record   — trace sink on: seq assignment + append to the trace log
//                (the cost a --rtrace run pays per lifecycle event)
//   * disabled — both sinks off: ~one relaxed load + branch, the cost
//                every uninstrumented run pays at each site
//   * wrap     — flight sink on with a tiny ring, so every record
//                overwrites the oldest slot (steady-state black-box cost)
// Under -DGENERIC_OBS=OFF record() compiles to nothing; the section still
// runs and reports the (near-zero) no-op cost, so the gauges stay
// comparable across build flavors.
//
// All numbers land in generic.metrics.v1 gauges when --metrics is given:
//   kernels.<backend>.nearest_mwords_per_s
//   kernels.<backend>.nearest_speedup_milli   (1000 = scalar parity)
//   kernels.<backend>.int_dot_many_ns         (ns per 21-row scan)
//   remat.encode_stored_ns_per_sample / remat.encode_remat_ns_per_sample
//   remat.recompute_overhead_milli
//   remat.footprint.stored_payload_bytes / remat.footprint.remat_payload_bytes
//   primitives.<op>_<dims>.ns_per_op
//   obs.rtrace.{record,disabled,wrap}_ns_per_event, obs.rtrace.events_per_rep
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "hdc/kernels.h"
#include "hdc/ops.h"
#include "model/binary_model.h"
#include "model/hdc_classifier.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/rtrace.h"

using namespace generic;
namespace k = hdc::kernels;

namespace {

struct Workload {
  hdc::BinaryHV query;
  std::vector<hdc::BinaryHV> refs;
  std::vector<hdc::BinaryHV> queries;
};

Workload make_workload(std::size_t dims, std::size_t classes,
                       std::size_t queries) {
  Rng rng(0xBE7C8);
  Workload w;
  w.query = hdc::BinaryHV::random(dims, rng);
  for (std::size_t c = 0; c < classes; ++c)
    w.refs.push_back(hdc::BinaryHV::random(dims, rng));
  for (std::size_t q = 0; q < queries; ++q)
    w.queries.push_back(hdc::BinaryHV::random(dims, rng));
  return w;
}

/// Mwords/s of `body`, which processes `words_per_rep` packed words per
/// call.
template <typename F>
double measure_mwords(F&& body, double words_per_rep, double target_s) {
  return words_per_rep / bench::seconds_per_call(body, target_s) / 1e6;
}

/// Rows in the int dot section: the 21 classes of the LANG clone.
constexpr std::size_t kDotRows = 21;

/// Time dot_many of one int query against kDotRows class rows on every
/// available backend, after checking each backend's dots against scalar.
/// Returns false when a backend diverges.
bool run_int_dot(std::size_t dims, double target_s) {
  Rng rng(0xD07);
  hdc::IntHV query(dims);
  for (auto& v : query) v = static_cast<std::int32_t>(rng.range(-128, 128));
  std::vector<hdc::IntHV> store(kDotRows, hdc::IntHV(dims));
  std::vector<const std::int32_t*> rows;
  for (auto& row : store) {
    for (auto& v : row) v = static_cast<std::int32_t>(rng.range(-30000, 30000));
    rows.push_back(row.data());
  }
  auto scan = [&](const k::Kernels& table) {
    std::vector<std::int64_t> dots(kDotRows, 0);
    table.dot_many(query.data(), rows.data(), kDotRows, dims, dots.data());
    return dots;
  };
  const auto want = scan(k::get(k::Backend::kScalar));

  std::printf("\nint dot: %zu rows x %zu dims per scan\n", kDotRows, dims);
  std::printf("%-8s %16s %10s\n", "backend", "ns/scan", "speedup");
  bench::print_rule(36);
  double scalar_ns = 0.0;
  for (k::Backend backend : k::compiled_backends()) {
    if (!k::available(backend)) continue;
    const k::Kernels& table = k::get(backend);
    const std::string name(k::to_string(backend));
    if (scan(table) != want) {
      std::fprintf(stderr, "%s: int dot diverged from scalar\n", name.c_str());
      return false;
    }
    std::vector<std::int64_t> dots(kDotRows, 0);
    const double ns = bench::seconds_per_call(
                          [&] {
                            table.dot_many(query.data(), rows.data(), kDotRows,
                                           dims, dots.data());
                            bench::keep(dots.data());
                          },
                          target_s) *
                      1e9;
    if (backend == k::Backend::kScalar) scalar_ns = ns;
    std::printf("%-8s %16.1f %9.2fx\n", name.c_str(), ns,
                ns > 0 ? scalar_ns / ns : 0.0);
    bench::set_gauge("kernels." + name + ".int_dot_many_ns", ns);
  }
  return true;
}

/// Time one primitive: print its ns per call and record the
/// primitives.<name>.ns_per_op gauge.
template <typename F>
void primitive(const std::string& name, F&& body, double target_s) {
  const double ns = bench::seconds_per_call(body, target_s) * 1e9;
  std::printf("  %-28s %12.1f ns/op\n", name.c_str(), ns);
  bench::set_gauge("primitives." + name + ".ns_per_op", ns);
}

/// The HDC primitives that dominate the software stack: random
/// generation, binding, permutation, bundling, the int dot, encoding and
/// both classifier predicts, on the session's kernel backend.
void run_primitives(double target_s) {
  std::printf("\nprimitives:\n");
  Rng rng(0x9217);
  for (std::size_t dims : {1024, 4096})
    primitive(
        "random_hv_" + std::to_string(dims),
        [&] { bench::keep(hdc::BinaryHV::random(dims, rng)); }, target_s);

  auto a = hdc::BinaryHV::random(4096, rng);
  const auto b = hdc::BinaryHV::random(4096, rng);
  primitive("xor_bind_4096", [&] { a ^= b; bench::keep(a); }, target_s);
  primitive("rotate_4096", [&] { bench::keep(b.rotated(7)); }, target_s);

  for (std::size_t dims : {1024, 4096}) {
    const auto hv = hdc::BinaryHV::random(dims, rng);
    hdc::IntHV acc(dims, 0);
    primitive("accumulate_" + std::to_string(dims),
              [&] { hv.accumulate_into(acc); bench::keep(acc.data()); },
              target_s);
  }

  hdc::IntHV x(4096), y(4096);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<std::int32_t>(rng.range(-100, 100));
    y[i] = static_cast<std::int32_t>(rng.range(-30000, 30000));
  }
  primitive("int_dot_4096", [&] { bench::keep(hdc::dot(x, y)); }, target_s);

  std::vector<float> sample(128);
  for (auto& v : sample) v = static_cast<float>(rng.uniform());
  const std::vector<std::vector<float>> range{{0.0f, 1.0f}};
  for (std::size_t dims : {1024, 4096}) {
    enc::EncoderConfig cfg;
    cfg.dims = dims;
    enc::GenericEncoder encoder(cfg);
    encoder.fit(range);
    primitive("encode_generic_" + std::to_string(dims),
              [&] { bench::keep(encoder.encode(sample)); }, target_s);
  }

  // 16 classes of four bundled random rows each.
  std::vector<hdc::IntHV> train;
  std::vector<int> labels;
  for (int c = 0; c < 16; ++c)
    for (int i = 0; i < 4; ++i) {
      train.push_back(hdc::BinaryHV::random(4096, rng).to_int());
      labels.push_back(c);
    }
  model::HdcClassifier clf(4096, 16);
  clf.train_init(train, labels);
  const auto q = hdc::BinaryHV::random(4096, rng);
  const hdc::IntHV qi = q.to_int();
  primitive("classifier_predict_4096",
            [&] { bench::keep(clf.predict(qi)); }, target_s);
  const model::BinaryModel fast(clf);
  primitive("binary_model_predict_4096",
            [&] { bench::keep(fast.predict_packed(q)); }, target_s);
}

/// record() calls per timed rtrace body: amortizes the loop and, for the
/// trace phase, stays far under kMaxTraceEvents between resets.
constexpr std::size_t kRtraceEvents = 4096;

/// ns per record() of the rtrace recorder in its three regimes.
void run_rtrace(double target_s) {
  namespace rtrace = obs::rtrace;
  const double per_rep = static_cast<double>(kRtraceEvents);
  auto burst_ns = [&] {
    return bench::seconds_per_call(
               [] {
                 for (std::size_t i = 0; i < kRtraceEvents; ++i)
                   rtrace::record(rtrace::EventKind::kPredict, i, i, 1, 0,
                                  static_cast<std::int64_t>(i));
               },
               target_s) *
           1e9 / per_rep;
  };

  // record: trace sink on. The rep loop lives inside seconds_per_call, so
  // the log cannot be reset between reps; the drop-past-cap path costs
  // the same append either way, and the phase is reset around.
  rtrace::reset();
  rtrace::set_trace(true);
  rtrace::set_flight(false);
  const double record_ns = burst_ns();
  const std::uint64_t recorded = rtrace::trace_log().events.size();
  rtrace::reset();

  rtrace::set_trace(false);
  const double disabled_ns = burst_ns();

  // wrap: flight ring only, capacity far below the burst size so (nearly)
  // every record overwrites the oldest slot.
  rtrace::set_flight_capacity(64);
  rtrace::set_flight(true);
  const double wrap_ns = burst_ns();
  rtrace::set_flight(false);
  rtrace::reset();
  rtrace::set_flight_capacity(rtrace::kDefaultFlightCapacity);

  std::printf("\nrtrace: %zu events/rep (obs %s)\n", kRtraceEvents,
              GENERIC_OBS_ENABLED ? "on" : "off");
  std::printf("  %-26s %12.2f ns/event\n", "record (trace sink)", record_ns);
  std::printf("  %-26s %12.2f ns/event\n", "disabled (sinks off)",
              disabled_ns);
  std::printf("  %-26s %12.2f ns/event\n", "wrap (flight ring)", wrap_ns);
  std::printf("  trace log kept %llu events in the timed phase\n",
              static_cast<unsigned long long>(recorded));
  bench::set_gauge("obs.rtrace.record_ns_per_event", record_ns);
  bench::set_gauge("obs.rtrace.disabled_ns_per_event", disabled_ns);
  bench::set_gauge("obs.rtrace.wrap_ns_per_event", wrap_ns);
  bench::set_gauge("obs.rtrace.events_per_rep", per_rep);
}

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t dims = flags.positive_size("--dims", 4096);
  const std::size_t classes = flags.positive_size("--classes", 64);
  const std::size_t queries = flags.size("--queries", 32);
  obs::Session session(flags.value("--trace", ""),
                       flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();
  const k::Backend session_backend = k::active_backend();

  const double target_s = quick ? 0.05 : 0.4;
  const Workload w = make_workload(dims, classes, queries);
  const double words = static_cast<double>(w.query.num_words());

  // Scalar truths every backend is diffed against before it is timed.
  k::set_backend(k::Backend::kScalar);
  std::vector<std::size_t> want_nearest;
  for (const auto& q : w.queries)
    want_nearest.push_back(hdc::nearest_hamming(q, w.refs));

  std::printf("kernels: dims=%zu classes=%zu queries=%zu active=%s\n", dims,
              classes, queries,
              std::string(k::to_string(session_backend)).c_str());
  std::printf("%-8s %22s %10s\n", "backend", "nearest Mwords/s", "speedup");
  bench::print_rule(42);

  double scalar_nearest = 0.0;
  for (k::Backend backend : k::compiled_backends()) {
    if (!k::available(backend)) continue;
    k::set_backend(backend);
    const std::string name(k::to_string(backend));

    // Correctness gate: bit-identical winners or abort.
    for (std::size_t q = 0; q < w.queries.size(); ++q)
      if (hdc::nearest_hamming(w.queries[q], w.refs) != want_nearest[q]) {
        std::fprintf(stderr, "%s: nearest winner diverged from scalar\n",
                     name.c_str());
        return 1;
      }

    std::size_t sink = 0;
    const double nearest = measure_mwords(
        [&] {
          for (const auto& q : w.queries)
            sink += hdc::nearest_hamming(q, w.refs);
        },
        words * static_cast<double>(classes * queries), target_s);
    if (backend == k::Backend::kScalar) scalar_nearest = nearest;
    const double speedup = scalar_nearest > 0 ? nearest / scalar_nearest : 0;

    std::printf("%-8s %22.0f %9.2fx%s\n", name.c_str(), nearest, speedup,
                sink == 0 ? " " : "");
    const std::string prefix = "kernels." + name;
    bench::set_gauge(prefix + ".nearest_mwords_per_s", nearest);
    bench::set_gauge(prefix + ".nearest_speedup_milli", speedup * 1000.0);
  }

  if (!run_int_dot(dims, target_s)) return 1;

  // ---- stored vs rematerialized memories ---------------------------------
  Rng rng(0x5A17);
  const std::size_t features = 32;
  const std::size_t samples = quick ? 16 : 64;
  std::vector<std::vector<float>> xs(samples, std::vector<float>(features));
  for (auto& x : xs)
    for (auto& v : x) v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;

  enc::EncoderConfig cfg;
  cfg.dims = dims;
  enc::GenericEncoder stored(cfg);
  cfg.remat = true;
  enc::GenericEncoder remat(cfg);
  stored.fit(xs);
  remat.fit(xs);

  std::size_t enc_sink = 0;
  auto encode_all_with = [&](const enc::Encoder& e) {
    for (const auto& x : xs) enc_sink += static_cast<std::size_t>(e.encode(x)[0]);
  };
  const double stored_mw = measure_mwords([&] { encode_all_with(stored); },
                                          static_cast<double>(samples),
                                          target_s);
  const double remat_mw = measure_mwords([&] { encode_all_with(remat); },
                                         static_cast<double>(samples),
                                         target_s);
  // measure_mwords returned "Msamples/s"; invert into ns/sample.
  const double stored_ns = 1e3 / stored_mw;
  const double remat_ns = 1e3 / remat_mw;
  const double overhead = stored_ns > 0 ? remat_ns / stored_ns : 0;

  std::printf("\nremat: generic encoder, dims=%zu levels=%zu%s\n", dims,
              cfg.levels, enc_sink == std::size_t(-1) ? "!" : "");
  std::printf("  stored: %10.0f ns/sample  footprint %8zu B\n", stored_ns,
              stored.memory_footprint_bytes());
  std::printf("  remat : %10.0f ns/sample  footprint %8zu B  (%.2fx encode "
              "cost)\n",
              remat_ns, remat.memory_footprint_bytes(), overhead);
  bench::set_gauge("remat.encode_stored_ns_per_sample", stored_ns);
  bench::set_gauge("remat.encode_remat_ns_per_sample", remat_ns);
  bench::set_gauge("remat.recompute_overhead_milli", overhead * 1000.0);
  bench::set_gauge("remat.footprint.stored_payload_bytes",
            static_cast<double>(stored.memory_footprint_bytes()));
  bench::set_gauge("remat.footprint.remat_payload_bytes",
            static_cast<double>(remat.memory_footprint_bytes()));

  k::set_backend(session_backend);
  run_primitives(target_s);
  run_rtrace(target_s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
