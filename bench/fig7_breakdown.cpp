// Reproduces Figure 7: area, static-power and dynamic-power breakdown of
// the GENERIC ASIC (14 nm, 500 MHz). Area and static power come from the
// calibrated component model; the dynamic breakdown is the average over
// the eleven benchmark workloads' inference access patterns.
//
// Expected shape: class memories dominate every chart (~72-90%); the level
// memory stays below 10% of area and power (§5.1: "using more levels does
// not considerably affect the area or power").
#include <cstdio>

#include "arch/energy_model.h"
#include "bench/bench_util.h"
#include "data/benchmarks.h"

using namespace generic;

namespace {

void print_breakdown(const char* title, const arch::Breakdown& b,
                     const char* unit) {
  const double total = b.total();
  std::printf("\n%s (total %.3f %s)\n", title, total, unit);
  const struct {
    const char* label;
    double value;
  } rows[] = {{"control", b.control},       {"datapath", b.datapath},
              {"base mem", b.base_mem},     {"feature mem", b.feature_mem},
              {"level mem", b.level_mem},   {"class mem", b.class_mem}};
  for (const auto& row : rows)
    std::printf("  %-12s %8.4f %-4s %5.1f%%\n", row.label, row.value, unit,
                100.0 * row.value / total);
}

int run(int argc, char** argv) {
  bench::Flags(argc, argv).done();
  arch::EnergyModel em;
  arch::CycleModel cm;

  std::printf("Figure 7: GENERIC area and power breakdown (14 nm)\n");
  print_breakdown("(a) Area", em.area_mm2(), "mm2");
  print_breakdown("(b) Static power (all banks on)", em.static_power_full_mw(),
                  "mW");

  // Dynamic power averaged over the benchmark suite's inference workloads.
  arch::Breakdown dyn_avg;
  double static_typical = 0.0;
  std::size_t n = 0;
  for (const auto& name : data::benchmark_names()) {
    const auto ds = data::make_benchmark(name);
    arch::AppSpec spec;
    spec.dims = 4096;
    spec.features = ds.num_features();
    spec.classes = ds.num_classes;
    dyn_avg += em.dynamic_power_mw(spec, cm.infer_input(spec));
    static_typical += em.static_power_mw(spec).total();
    ++n;
  }
  const double inv = 1.0 / static_cast<double>(n);
  arch::Breakdown scaled;
  scaled.control = dyn_avg.control * inv;
  scaled.datapath = dyn_avg.datapath * inv;
  scaled.base_mem = dyn_avg.base_mem * inv;
  scaled.feature_mem = dyn_avg.feature_mem * inv;
  scaled.level_mem = dyn_avg.level_mem * inv;
  scaled.class_mem = dyn_avg.class_mem * inv;
  print_breakdown("(c) Dynamic power (benchmark average)", scaled, "mW");

  std::printf(
      "\nTypical static power with application-opportunistic gating: "
      "%.3f mW (worst case 0.250 mW)\n",
      static_typical * inv);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
