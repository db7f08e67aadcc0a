// Shared vocabulary of the benchmark's workloads (README.md).
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"
#include "obs/obs.h"
#include "trace.h"

namespace hdcbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span log path (traced runs); empty: not written
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced run, by the
/// names of BENCHMARK.json (main.cpp owns the units). A per-layer metric a
/// workload leaves unset is reported as 0: the workload never calls that
/// layer from its measured path.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< operations that failed or disagreed with an oracle
  std::vector<std::string> errors;  ///< why, for standard error
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

Result run_edge_infer(const RunConfig& cfg);
Result run_edge_train(const RunConfig& cfg);
Result run_serve_loopback(const RunConfig& cfg);

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// num / den, or 0 when den is not positive.
inline double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// One measurement window: operations completed, the wall time they took
/// and each one's latency.
struct Window {
  double ops = 0.0;
  double wall_ns = 0.0;
  std::vector<double> lat_ns;
};

/// Throughput, p50 and p99 of each window, then the median over windows:
/// a burst of host noise moves one window, not the run's figure.
struct WindowMedians {
  double per_s = 0.0, p50_us = 0.0, p99_us = 0.0;
};
inline WindowMedians window_medians(const std::vector<Window>& ws) {
  std::vector<double> per_s, p50, p99;
  for (const Window& w : ws) {
    if (w.lat_ns.empty()) continue;
    per_s.push_back(frac(w.ops, w.wall_ns / 1e9));
    p50.push_back(percentile(w.lat_ns, 0.50) / 1e3);
    p99.push_back(percentile(w.lat_ns, 0.99) / 1e3);
  }
  return {median(per_s), median(p50), median(p99)};
}

/// CPU time consumed so far by every thread of this process, in ns. On a
/// process pinned to one CPU this advances with the wall clock while the
/// process runs, and stands still while the hypervisor or another process
/// holds that CPU.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Length of a measurement window in untraced runs.
inline constexpr std::int64_t kWindowNs = 1'000'000'000;

/// Restrict this process to the last `n` CPUs it may run on (threads
/// created afterwards inherit it). No-op when fewer are available.
void pin_to_last_cpus(std::size_t n);

/// Bytes one full-dimension query scores, computed from tensor sizes: every
/// class word plus the query.
inline double score_bytes(const generic::model::HdcClassifier& m) {
  using Word = std::remove_cvref_t<decltype(m.class_vector(0))>::value_type;
  return static_cast<double>(m.num_classes() * m.dims() * sizeof(Word) +
                             m.dims() * sizeof(generic::hdc::IntHV::value_type));
}

/// Busy time summed over a pool's lanes, in ns.
inline double pool_busy_ns(const generic::obs::PoolStats& s) {
  double ns = 0.0;
  for (const auto& l : s.per_lane) ns += static_cast<double>(l.busy_ns);
  return ns;
}

/// Samples the library has encoded so far in this process: its obs counter
/// `encode.samples`, which every Encoder::encode_batch adds to.
inline std::uint64_t encoded_samples() {
  return generic::obs::Registry::instance().counter("encode.samples").value();
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Time `setup` `reps` times and return the median seconds. Each call
/// must leave the state the measured phase needs (the last one wins).
template <typename Fn>
double median_setup_s(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    setup();
    s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(std::move(s));
}

}  // namespace hdcbench
