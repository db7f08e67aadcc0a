// hdcbench — wall-clock benchmark of edge inference, on-device training and
// loopback serving (README.md). Normally started through run.py:
//
//   hdcbench --workload edge_infer|edge_train|serve_loopback --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints one JSON object as the last line of standard output. Exits 1 when
// any correctness gate failed, 2 on a usage error.
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace hdcbench {

void pin_to_last_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  if (static_cast<std::size_t>(CPU_COUNT(&allowed)) <= n) return;
  cpu_set_t pick;
  CPU_ZERO(&pick);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pick);
      --n;
    }
  sched_setaffinity(0, sizeof(pick), &pick);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

using Table = std::vector<std::pair<const char*, const char*>>;  // name, unit

// Must list exactly the metrics of BENCHMARK.json, with its units; run.py
// checks both.
const Table kEndToEnd = {
    {"setup_s", "s"},           {"samples_per_s", "1/s"},
    {"latency_p50_us", "us"},   {"latency_p99_us", "us"},
    {"accuracy", "frac"},       {"peak_rss_mb", "MB"},
};

const Table kPerLayer = {
    {"common.quantize_us", "us"},
    {"common.quantizer_fit_ms", "ms"},
    {"common.pool_busy_frac", "frac"},
    {"encoding.calls", "count"},
    {"encoding.encode_us", "us"},
    {"encoding.op_frac", "frac"},
    {"encoding.windows_per_sample", "count"},
    {"encoding.bytes_per_sample", "bytes"},
    {"encoding.footprint_bytes", "bytes"},
    {"model.predict_us", "us"},
    {"model.score_bytes_per_query", "bytes"},
    {"model.train_batch_ms", "ms"},
    {"model.retrain_epoch_ms", "ms"},
    {"model.retrain_frac", "frac"},
    {"model.updates_per_epoch", "count"},
    {"model.update_frac", "frac"},
    {"fleet.sim_us_per_req", "us"},
    {"fleet.served", "count"},
    {"fleet.quota_rejected", "count"},
    {"fleet.priority_shed", "count"},
    {"serve.degraded", "count"},
    {"serve.face.measured_score_us", "us"},
    {"serve.face.modeled_service_us", "us"},
    {"serve.digits.measured_score_us", "us"},
    {"serve.digits.modeled_service_us", "us"},
    {"serve.pages.measured_score_us", "us"},
    {"serve.pages.modeled_service_us", "us"},
    {"net.ingress_us_per_req", "us"},
    {"net.client_write_us", "us"},
    {"net.client_wait_us", "us"},
    {"net.frame_parse_ns", "ns"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.attributed_frac", "frac"},
    {"bench.cpu_wall_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hdcbench --workload edge_infer|edge_train|"
               "serve_loopback --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace hdcbench

int main(int argc, char** argv) {
  using namespace hdcbench;
  RunConfig rc;
  std::string workload;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      rc.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      rc.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && rc.seconds > 0.0 && std::isfinite(rc.seconds);
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      rc.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      rc.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!have_seconds) usage("--seconds must be a positive number");

  Result res;
  try {
    if (workload == "edge_infer") res = run_edge_infer(rc);
    else if (workload == "edge_train") res = run_edge_train(rc);
    else if (workload == "serve_loopback") res = run_serve_loopback(rc);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const Table& table = rc.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : res.metrics) {
    bool known = false;
    for (const auto& row : table) known = known || name == row.first;
    if (!known) res.errors.push_back("unlisted metric " + name);
    if (!std::isfinite(value)) res.errors.push_back("non-finite metric " + name);
  }
  for (const std::string& e : res.errors) std::fprintf(stderr, "gate: %s\n", e.c_str());
  const bool correct = res.errors.empty() && res.failed == 0;

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", res.attempted, res.failed);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto it = res.metrics.find(table[i].first);
    double v = it == res.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                table[i].first, v, table[i].second);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
