// Reproduces Figure 10: per-input clustering energy of the GENERIC ASIC
// versus K-means on the desktop CPU and the Raspberry Pi, per FCPS/Iris
// dataset, plus the per-input execution-time comparison of §5.3.
//
// Expected shape: GENERIC sits 4-5 orders of magnitude below both devices
// in energy (paper: 17,523x vs R-Pi, 61,400x vs CPU at 0.068 uJ/input) and
// runs tens of times faster per input (paper: 9.6 us vs 394/248 us).
#include <cstdio>
#include <vector>

#include "arch/generic_asic.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "data/fcps.h"
#include "hwmodel/device.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags(argc, argv).done();
  std::printf("Figure 10: clustering energy per input (uJ)\n");
  std::printf("%-14s %12s %14s %14s\n", "Dataset", "GENERIC", "K-means(CPU)",
              "K-means(R-Pi)");
  bench::print_rule(58);

  std::vector<double> asic_e, asic_t, cpu_e, cpu_t, rpi_e, rpi_t;
  for (const auto& name : data::fcps_names()) {
    const auto ds = data::make_fcps(name);
    arch::AppSpec spec;
    spec.dims = 4096;
    spec.features = ds.num_features();
    spec.classes = ds.num_clusters;
    spec.window = std::min<std::size_t>(3, ds.num_features());

    arch::GenericAsic asic(spec);
    const std::size_t epochs = 10;
    (void)asic.cluster(ds.points, epochs);
    // Per input amortized over the stream the ASIC actually processed.
    const double processed =
        static_cast<double>(asic.counts().feature_reads) /
        (static_cast<double>(arch::CycleModel().passes(spec)) *
         static_cast<double>(spec.features));
    const double e_asic = asic.energy_j() / processed;
    const double t_asic = asic.elapsed_seconds() / processed;

    const auto w = hw::kmeans_per_input(ds.num_features(), ds.num_clusters);
    const double e_cpu = hw::energy_j(hw::desktop_cpu(), w);
    const double e_rpi = hw::energy_j(hw::raspberry_pi(), w);

    asic_e.push_back(e_asic);
    asic_t.push_back(t_asic);
    cpu_e.push_back(e_cpu);
    cpu_t.push_back(hw::time_s(hw::desktop_cpu(), w));
    rpi_e.push_back(e_rpi);
    rpi_t.push_back(hw::time_s(hw::raspberry_pi(), w));
    std::printf("%-14s %12.4f %14.1f %14.1f\n", name.c_str(), e_asic * 1e6,
                e_cpu * 1e6, e_rpi * 1e6);
  }

  std::printf("\nGeomean energy: GENERIC %.3f uJ; CPU/GENERIC %.0fx, "
              "R-Pi/GENERIC %.0fx\n",
              geomean(asic_e) * 1e6, geomean(cpu_e) / geomean(asic_e),
              geomean(rpi_e) / geomean(asic_e));
  std::printf("Geomean time/input: GENERIC %.1f us, CPU %.0f us (%.0fx), "
              "R-Pi %.0f us (%.0fx)\n",
              geomean(asic_t) * 1e6, geomean(cpu_t) * 1e6,
              geomean(cpu_t) / geomean(asic_t), geomean(rpi_t) * 1e6,
              geomean(rpi_t) / geomean(asic_t));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
