// generic_chaos — named end-to-end chaos campaigns (docs/chaos.md).
//
// Runs one (or every) registered scenario through the chaos orchestrator:
// shaped traffic, concept shifts, correlated class-memory fault bursts and
// corrupted checkpoints, all seeded and on virtual time, with a
// generic.chaos.v1 report per scenario and a per-invariant verdict.
//
//   generic_chaos [--scenario=all|NAME] [--quick] [--seed=S] [--threads=N]
//                 [--out=DIR] [--work-dir=DIR] [--list] [--rtrace=DIR]
//                 [--flight-dump=DIR]
//
// --out writes <DIR>/<scenario>.json per scenario. --list prints the
// registry and exits. Exit code: 0 when every run passed its invariants,
// 1 otherwise.
//
// Black box: every scenario records into the rtrace flight ring. A failed
// invariant auto-dumps the ring as <scenario>.flight.json (into
// --flight-dump, else --out, else the working directory) so the decisions
// that led to the violation can be read post mortem; --flight-dump also
// dumps passing runs. --rtrace additionally writes the FULL causal trace
// per scenario as <scenario>.rtrace.json plus a Chrome/Perfetto view
// <scenario>.rtrace.chrome.json.
//
// Determinism: every report is a pure function of (scenario, --quick,
// --seed). --threads only changes wall-clock speed — the CI chaos job
// cmp's reports across thread counts.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/orchestrator.h"
#include "fleet/tenant_storm.h"
#include "obs/export.h"
#include "obs/rtrace.h"
#include "tools/cli_util.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const bool list = flags.has("--list");
  const std::string which = flags.value("--scenario", "all");
  const std::uint64_t seed = flags.size("--seed", 0xC4A05);
  const std::size_t threads = flags.threads();
  const std::string out_dir = flags.value("--out", "");
  const std::string work_dir = flags.value("--work-dir", "");
  const std::string rtrace_dir = flags.value("--rtrace", "");
  const std::string flight_dir = flags.value("--flight-dump", "");
  bench::apply_kernel_backend(flags);
  flags.done();

  if (list) {
    for (const auto& s : chaos::all_scenarios(quick))
      std::printf("%-24s %zu requests, D=%zu — %s\n", s.name.c_str(),
                  s.requests, s.dims, s.description.c_str());
    std::printf("%-24s fleet campaign — one batch tenant floods at ~10x "
                "its quota; the admission pipeline must protect the rest\n",
                "tenant_storm");
    return 0;
  }

  // The fleet campaign lives beside the serve-layer registry: it runs a
  // whole multi-model fleet (src/fleet) rather than one ServeEngine.
  const bool run_storm = which == "all" || which == "tenant_storm";

  std::vector<chaos::ScenarioSpec> specs;
  if (which == "all") {
    specs = chaos::all_scenarios(quick);
  } else if (!run_storm) {
    auto s = chaos::find_scenario(which, quick);
    if (!s.has_value()) {
      std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                   which.c_str());
      return 1;
    }
    specs.push_back(std::move(*s));
  }

  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  if (!rtrace_dir.empty()) std::filesystem::create_directories(rtrace_dir);
  if (!flight_dir.empty()) std::filesystem::create_directories(flight_dir);

  bool all_passed = true;
  for (const auto& spec : specs) {
    chaos::RunOptions opt;
    opt.seed = seed;
    opt.threads = threads;
    opt.work_dir =
        work_dir.empty() ? "" : work_dir + "/" + spec.name;
    opt.rtrace = !rtrace_dir.empty();

    const chaos::ChaosReport report = chaos::run_scenario(spec, opt);
    all_passed = all_passed && report.passed;

    std::printf("%-24s %s  (%zu requests", spec.name.c_str(),
                report.passed ? "PASS" : "FAIL", spec.requests);
    if (report.boot.from_checkpoint)
      std::printf(", booted v%llu, %llu quarantined",
                  static_cast<unsigned long long>(report.boot.version),
                  static_cast<unsigned long long>(report.boot.quarantined));
    std::printf(")\n");
    for (const auto& inv : report.invariants) {
      if (!inv.enabled) continue;
      std::printf("  %-22s %s  value=%.4g bound=%.4g\n", inv.name.c_str(),
                  inv.passed ? "ok" : "VIOLATED", inv.value, inv.bound);
    }

    if (!out_dir.empty()) {
      const std::string path = out_dir + "/" + spec.name + ".json";
      obs::write_file(path, chaos::chaos_report_to_json(report));
      std::printf("  report written to %s\n", path.c_str());
    }
    if (!rtrace_dir.empty()) {
      const std::string base = rtrace_dir + "/" + spec.name;
      obs::write_file(base + ".rtrace.json",
                      obs::rtrace::rtrace_to_json(report.rtrace));
      obs::write_file(base + ".rtrace.chrome.json",
                      obs::rtrace::rtrace_to_chrome_json(report.rtrace));
      std::printf("  rtrace written to %s.rtrace.json\n", base.c_str());
    }
    // The black box: always dumped on demand, and automatically on any
    // invariant failure so the postmortem ships with the verdict.
    if (!flight_dir.empty() || !report.passed) {
      const std::string dir = !flight_dir.empty() ? flight_dir
                              : !out_dir.empty()  ? out_dir
                                                  : std::string(".");
      const std::string path = dir + "/" + spec.name + ".flight.json";
      obs::write_file(path, obs::rtrace::flight_to_json(report.flight));
      std::printf("  flight recorder %s to %s\n",
                  report.passed ? "dumped" : "auto-dumped on failure",
                  path.c_str());
    }
  }
  if (run_storm) {
    const fleet::StormReport storm =
        fleet::run_tenant_storm(quick, seed, threads);
    all_passed = all_passed && storm.passed;
    std::printf("%-24s %s  (%llu requests, flood tenant %s)\n",
                "tenant_storm", storm.passed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(storm.fleet.requests),
                storm.fleet.config.tenants[storm.flood_tenant].name.c_str());
    for (const auto& inv : storm.invariants) {
      if (!inv.enabled) continue;
      std::printf("  %-22s %s  value=%.4g bound=%.4g\n", inv.name.c_str(),
                  inv.passed ? "ok" : "VIOLATED", inv.value, inv.bound);
    }
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/tenant_storm.json";
      obs::write_file(path, fleet::storm_report_to_json(storm));
      std::printf("  report written to %s\n", path.c_str());
    }
  }

  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
