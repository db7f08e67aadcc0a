// Reproduces Figure 3: training and inference energy/time of HDC and ML
// algorithms on conventional devices (Raspberry Pi, desktop CPU, edge GPU),
// reported as the geometric mean over the eleven benchmarks.
//
// Expected shape (§3.3): (i) classical ML beats HDC on every conventional
// device, (ii) GENERIC encoding costs more than the simpler HDC encodings,
// (iii) the eGPU's bit-packed kernels claw back ~2 orders of magnitude for
// HDC but still trail the best conventional baseline (RF).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "data/benchmarks.h"
#include "hwmodel/device.h"

using namespace generic;

namespace {

struct Algo {
  const char* label;
  bool is_hdc;
  ml::MlKind ml_kind;          // valid when !is_hdc
  double hdc_cost_factor = 1;  // GENERIC windows cost ~n x simpler encodings
};

int run(int argc, char** argv) {
  bench::Flags(argc, argv).done();
  const std::vector<Algo> algos{
      {"rp", true, ml::MlKind::kMlp, 0.4},
      {"level-id", true, ml::MlKind::kMlp, 0.5},
      {"GENERIC", true, ml::MlKind::kMlp, 1.0},
      {"LR", false, ml::MlKind::kLogReg},
      {"KNN", false, ml::MlKind::kKnn},
      {"MLP", false, ml::MlKind::kMlp},
      {"SVM", false, ml::MlKind::kSvm},
      {"RF", false, ml::MlKind::kRandomForest},
      {"DNN", false, ml::MlKind::kDnn},
  };
  const std::vector<hw::Device> devices{hw::raspberry_pi(), hw::desktop_cpu(),
                                        hw::edge_gpu()};

  for (const bool training : {true, false}) {
    std::printf("Figure 3 (%s): geomean energy per input (mJ) / time (ms)\n",
                training ? "train" : "inference");
    std::printf("%-10s", "Algo");
    for (const auto& dev : devices)
      std::printf(" %12s", std::string(dev.name).c_str());
    std::printf("\n");
    bench::print_rule(10 + 13 * devices.size());

    for (const auto& algo : algos) {
      std::printf("%-10s", algo.label);
      for (const auto& dev : devices) {
        std::vector<double> energies, times;
        for (const auto& name : data::benchmark_names()) {
          const auto ds = data::make_benchmark(name);
          hw::Workload w;
          if (algo.is_hdc) {
            w = training ? hw::hdc_training(ds.num_features(), 4096, 3,
                                            ds.num_classes, 20)
                         : hw::hdc_inference(ds.num_features(), 4096, 3,
                                             ds.num_classes);
            // Simpler encodings process one hypervector per element instead
            // of n per window (§3.3 observation ii).
            w.simple_ops *= algo.hdc_cost_factor;
          } else {
            w = training ? hw::ml_training(algo.ml_kind, ds.num_features(),
                                           ds.num_classes, ds.train_size())
                         : hw::ml_inference(algo.ml_kind, ds.num_features(),
                                            ds.num_classes, ds.train_size());
          }
          energies.push_back(hw::energy_j(dev, w) * 1e3);  // mJ
          times.push_back(hw::time_s(dev, w) * 1e3);       // ms
        }
        std::printf(" %6.2e/%5.2e", geomean(energies), geomean(times));
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  // Headline ratios the paper quotes in §3.3.
  const auto w_inf = hw::hdc_inference(120, 4096, 3, 9);
  const auto w_trn = hw::hdc_training(120, 4096, 3, 9, 20);
  const double e_gpu = hw::energy_j(hw::edge_gpu(), w_inf);
  std::printf("GENERIC inference: eGPU vs R-Pi energy %.0fx, time %.0fx\n",
              hw::energy_j(hw::raspberry_pi(), w_inf) / e_gpu,
              hw::time_s(hw::raspberry_pi(), w_inf) /
                  hw::time_s(hw::edge_gpu(), w_inf));
  std::printf("GENERIC inference: eGPU vs CPU  energy %.0fx, time %.0fx\n",
              hw::energy_j(hw::desktop_cpu(), w_inf) / e_gpu,
              hw::time_s(hw::desktop_cpu(), w_inf) /
                  hw::time_s(hw::edge_gpu(), w_inf));
  const double rf_inf = hw::energy_j(
      hw::desktop_cpu(), hw::ml_inference(ml::MlKind::kRandomForest, 120, 9, 1300));
  const double rf_trn = hw::energy_j(
      hw::desktop_cpu(), hw::ml_training(ml::MlKind::kRandomForest, 120, 9, 1300));
  std::printf(
      "HDC-on-eGPU vs RF-on-CPU: inference %.1fx, train %.1fx more energy\n",
      e_gpu / rf_inf, hw::energy_j(hw::edge_gpu(), w_trn) / rf_trn);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
