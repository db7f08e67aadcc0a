// Reproduces Figure 8: per-input training energy and execution time of the
// GENERIC ASIC versus RF and SVM on the desktop CPU and DNN / HDC on the
// edge GPU (the strongest baseline device per algorithm, §5.2.1).
//
// GENERIC's numbers are behavioural: the ASIC model actually trains on
// each benchmark (constant 20 epochs, like the paper) and its cycle/energy
// counters are divided by the number of processed inputs. Baselines come
// from the calibrated device cost models.
//
// Expected shape: GENERIC wins energy by 2-3 orders of magnitude against
// everything (paper: 528x vs RF, 1257x vs DNN, 694x vs eGPU-HDC) while RF
// remains ~an order of magnitude faster in wall-clock (paper: 12x).
// `--threads N` fans the per-application ASIC training runs out across a
// worker pool; each application fills an indexed slot, so the table is
// byte-identical to the serial run for any thread count.
#include <cstdio>
#include <vector>

#include "arch/generic_asic.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "hwmodel/device.h"
#include "obs/export.h"

using namespace generic;

namespace {

struct AppResult {
  double asic_e = 0.0, asic_t = 0.0;
  double rf_e = 0.0, rf_t = 0.0, svm_e = 0.0, svm_t = 0.0;
  double dnn_e = 0.0, dnn_t = 0.0, hdc_e = 0.0, hdc_t = 0.0;
};

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t threads = flags.threads();
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  flags.done();
  const std::size_t dims = quick ? 2048 : 4096;
  const std::size_t epochs = quick ? 5 : 20;

  const auto& names = data::benchmark_names();
  std::vector<AppResult> results(names.size());
  ThreadPool pool(threads);

  obs::Stopwatch timer;
  pool.parallel_for(names.size(), [&](std::size_t begin, std::size_t end,
                                      std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      GENERIC_SPAN("fig8.app");
      const auto& name = names[i];
      const auto ds = data::make_benchmark(name);
      arch::AppSpec spec;
      spec.dims = dims;
      spec.features = ds.num_features();
      spec.classes = ds.num_classes;
      const auto gcfg = data::generic_config_for(name);
      spec.window = gcfg.window;
      spec.use_ids = gcfg.use_ids;

      AppResult& out = results[i];
      arch::GenericAsic asic(spec);
      asic.train(ds.train_x, ds.train_y, epochs);
      const double inputs = static_cast<double>(ds.train_size());
      out.asic_e = asic.energy_j() / inputs;
      out.asic_t = asic.elapsed_seconds() / inputs;

      const std::size_t d = ds.num_features();
      const std::size_t nc = ds.num_classes;
      const std::size_t n = ds.train_size();
      out.rf_e = hw::energy_j(
          hw::desktop_cpu(), hw::ml_training(ml::MlKind::kRandomForest, d, nc, n));
      out.rf_t = hw::time_s(
          hw::desktop_cpu(), hw::ml_training(ml::MlKind::kRandomForest, d, nc, n));
      out.svm_e = hw::energy_j(hw::desktop_cpu(),
                               hw::ml_training(ml::MlKind::kSvm, d, nc, n));
      out.svm_t = hw::time_s(hw::desktop_cpu(),
                             hw::ml_training(ml::MlKind::kSvm, d, nc, n));
      out.dnn_e = hw::energy_j(hw::edge_gpu(),
                               hw::ml_training(ml::MlKind::kDnn, d, nc, n));
      out.dnn_t = hw::time_s(hw::edge_gpu(),
                             hw::ml_training(ml::MlKind::kDnn, d, nc, n));
      out.hdc_e = hw::energy_j(hw::edge_gpu(),
                               hw::hdc_training(d, 4096, 3, nc, epochs));
      out.hdc_t = hw::time_s(hw::edge_gpu(),
                             hw::hdc_training(d, 4096, 3, nc, epochs));
    }
  });

  std::vector<double> asic_e, asic_t;
  std::vector<double> rf_e, rf_t, svm_e, svm_t, dnn_e, dnn_t, hdc_e, hdc_t;
  for (const auto& r : results) {
    asic_e.push_back(r.asic_e);
    asic_t.push_back(r.asic_t);
    rf_e.push_back(r.rf_e);
    rf_t.push_back(r.rf_t);
    svm_e.push_back(r.svm_e);
    svm_t.push_back(r.svm_t);
    dnn_e.push_back(r.dnn_e);
    dnn_t.push_back(r.dnn_t);
    hdc_e.push_back(r.hdc_e);
    hdc_t.push_back(r.hdc_t);
  }

  struct Row {
    const char* label;
    double e, t;
  };
  const Row rows[] = {
      {"GENERIC", geomean(asic_e), geomean(asic_t)},
      {"RF (CPU)", geomean(rf_e), geomean(rf_t)},
      {"SVM (CPU)", geomean(svm_e), geomean(svm_t)},
      {"DNN (eGPU)", geomean(dnn_e), geomean(dnn_t)},
      {"HDC (eGPU)", geomean(hdc_e), geomean(hdc_t)},
  };

  std::printf("Figure 8: training energy and time per input (geomean)\n");
  std::printf("%-12s %14s %14s %12s %12s\n", "Algo", "Energy (mJ)",
              "Time (ms)", "E vs GENERIC", "T vs GENERIC");
  bench::print_rule(68);
  for (const auto& r : rows)
    std::printf("%-12s %14.4e %14.4e %11.1fx %11.1fx\n", r.label, r.e * 1e3,
                r.t * 1e3, r.e / rows[0].e, r.t / rows[0].t);

  // Average training power (paper: ~2.06 mW).
  std::printf("\nGENERIC average training power: %.2f mW\n",
              1e3 * geomean(asic_e) / geomean(asic_t));
  std::printf("[fig8] completed in %.1f s\n", timer.seconds());
  obs_session.set_pool_stats(pool.stats());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
