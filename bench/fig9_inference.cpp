// Reproduces Figure 9: per-input inference energy of GENERIC and
// GENERIC-LP against previous HDC accelerators (Datta et al. [10],
// tiny-HD [8], scaled to 14 nm) and against RF / SVM / DNN on the CPU and
// HDC on the edge GPU.
//
// GENERIC-LP applies the §4.3 techniques *application-opportunistically*,
// exactly as the paper frames it: for each application it picks the most
// aggressive (dimension reduction, bit-width, voltage) operating point
// whose accuracy on a held-out slice of the training data stays within a
// small tolerance of nominal — spending Table 1's accuracy headroom on
// energy. Both the energy gain and the realized accuracy cost are printed.
//
// Expected shape: LP ~15x below base GENERIC; ~4x below tiny-HD and ~15x
// below Datta; 3+ orders of magnitude below any conventional baseline.
// `--threads N` fans the per-application pipelines (train, operating-point
// search, evaluation) out across a worker pool; each application writes an
// indexed result slot and buffers its report line, so the printed output
// is byte-identical to the serial run for any thread count.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "arch/generic_asic.h"
#include "arch/tinyhd.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "hwmodel/device.h"
#include "obs/export.h"

using namespace generic;

namespace {

/// Everything one application contributes to the figure.
struct AppResult {
  double base_e = 0.0, lp_e = 0.0, base_acc = 0.0, lp_acc = 0.0;
  double rf_e = 0.0, svm_e = 0.0, dnn_e = 0.0, egpu_e = 0.0, tinyhd_e = 0.0;
  double hw_energy_j = 0.0;   ///< total ASIC energy of the test-set runs
  double hw_elapsed_s = 0.0;  ///< modeled wall-clock of the test-set runs
  std::uint64_t hw_cycles = 0;
  std::string line;  ///< buffered per-app report, printed in fixed order
};

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t threads = flags.threads();
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  flags.done();
  const std::size_t dims = 4096;
  const std::size_t epochs = quick ? 5 : 15;

  const arch::TinyHdModel tinyhd_model;
  const auto& names = data::benchmark_names();
  std::vector<AppResult> results(names.size());
  ThreadPool pool(threads);

  obs::Stopwatch timer;
  auto run_app = [&](std::size_t app_index) {
    GENERIC_SPAN("fig9.app");
    const auto& name = names[app_index];
    AppResult out;
    const auto ds = data::make_benchmark(name);
    arch::AppSpec spec;
    spec.dims = dims;
    spec.features = ds.num_features();
    spec.classes = ds.num_classes;
    const auto gcfg = data::generic_config_for(name);
    spec.window = gcfg.window;
    spec.use_ids = gcfg.use_ids;

    // Hold out the tail of the training split for operating-point
    // selection (never the test set).
    const std::size_t val_n = std::min<std::size_t>(200, ds.train_size() / 4);
    std::vector<std::vector<float>> val_x(ds.train_x.end() - static_cast<std::ptrdiff_t>(val_n),
                                          ds.train_x.end());
    std::vector<int> val_y(ds.train_y.end() - static_cast<std::ptrdiff_t>(val_n),
                           ds.train_y.end());

    struct OpPoint {
      std::size_t dims;
      int bw;
      double ber;
    };
    // Nominal first, then the §4.3 grid: dimension reduction alone is
    // nearly free with Updated sub-norms (Figure 5), quantization and
    // voltage scaling stack on top where the application tolerates them.
    const std::vector<OpPoint> points{
        {dims, 16, 0.0},        {dims / 2, 16, 0.0},   {dims / 4, 16, 0.0},
        {dims, 8, 0.001},       {dims / 2, 8, 0.001},  {dims / 4, 8, 0.001},
        {dims / 2, 4, 0.005},   {dims / 4, 4, 0.005},  {dims / 4, 4, 0.01},
    };

    auto run_point = [&](const OpPoint& p, const auto& xs, const auto& ys,
                         double& acc_out, arch::GenericAsic& asic) {
      if (p.dims != dims) asic.set_active_dims(p.dims);
      if (p.bw != 16) asic.quantize(p.bw);
      if (p.ber > 0.0) asic.apply_voltage_scaling(p.ber);
      asic.reset_counts();
      std::size_t hits = 0;
      for (std::size_t i = 0; i < xs.size(); ++i)
        hits += asic.infer(xs[i]) == ys[i];
      acc_out = static_cast<double>(hits) / static_cast<double>(xs.size());
      return asic.energy_j() / static_cast<double>(xs.size());
    };

    arch::GenericAsic asic(spec);
    asic.train(ds.train_x, ds.train_y, epochs);
    const auto trained = asic.snapshot_model();

    // Nominal accuracy/energy on the test set.
    double acc = 0.0;
    out.base_e = run_point(points[0], ds.test_x, ds.test_y, acc, asic);
    out.base_acc = acc;
    out.hw_energy_j += asic.energy_j();
    out.hw_elapsed_s += asic.elapsed_seconds();
    out.hw_cycles += asic.counts().cycles;

    // Operating-point selection uses a *selector* model trained without
    // the validation slice, so validation accuracy is an honest estimate;
    // a candidate must survive two independent fault-injection draws.
    // The tolerance (5 pts) is the headroom Table 1 buys over prior
    // accelerators (e.g. +10.3 pts vs [10]) — what GENERIC-LP spends.
    std::vector<std::vector<float>> fit_x(ds.train_x.begin(),
                                          ds.train_x.end() - static_cast<std::ptrdiff_t>(val_n));
    std::vector<int> fit_y(ds.train_y.begin(),
                           ds.train_y.end() - static_cast<std::ptrdiff_t>(val_n));
    arch::GenericAsic selector(spec);
    selector.train(fit_x, fit_y, epochs);
    const auto selector_model = selector.snapshot_model();
    double val_nominal = 0.0;
    (void)run_point(points[0], val_x, val_y, val_nominal, selector);
    OpPoint chosen = points[0];
    double chosen_energy = std::numeric_limits<double>::infinity();
    for (std::size_t p = 1; p < points.size(); ++p) {
      double worst = 1.0;
      double cand_energy = 0.0;
      for (int rep = 0; rep < 2; ++rep) {
        selector.restore_model(selector_model);
        double val_acc = 0.0;
        cand_energy = run_point(points[p], val_x, val_y, val_acc, selector);
        worst = std::min(worst, val_acc);
      }
      if (worst >= val_nominal - 0.05 && cand_energy < chosen_energy) {
        chosen = points[p];
        chosen_energy = cand_energy;
      }
    }
    asic.restore_model(trained);
    out.lp_e = run_point(chosen, ds.test_x, ds.test_y, acc, asic);
    out.lp_acc = acc;
    out.hw_energy_j += asic.energy_j();
    out.hw_elapsed_s += asic.elapsed_seconds();
    out.hw_cycles += asic.counts().cycles;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  [%-7s] LP point: dims=%zu bw=%d ber=%.3f -> %.3f uJ "
                  "(base %.3f uJ), acc %.1f%%\n",
                  name.c_str(), chosen.dims, chosen.bw, chosen.ber,
                  out.lp_e * 1e6, out.base_e * 1e6, 100.0 * acc);
    out.line = line;

    const std::size_t d = ds.num_features();
    const std::size_t nc = ds.num_classes;
    const std::size_t n = ds.train_size();
    out.rf_e = hw::energy_j(
        hw::desktop_cpu(), hw::ml_inference(ml::MlKind::kRandomForest, d, nc, n));
    out.svm_e = hw::energy_j(hw::desktop_cpu(),
                             hw::ml_inference(ml::MlKind::kSvm, d, nc, n));
    out.dnn_e = hw::energy_j(hw::desktop_cpu(),
                             hw::ml_inference(ml::MlKind::kDnn, d, nc, n));
    out.egpu_e =
        hw::energy_j(hw::edge_gpu(), hw::hdc_inference(d, dims, 3, nc));
    out.tinyhd_e = tinyhd_model.energy_per_input_j(spec);
    results[app_index] = std::move(out);
  };

  pool.parallel_for(names.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) run_app(i);
                    });

  std::vector<double> base_e, lp_e, base_acc, lp_acc;
  std::vector<double> rf_e, svm_e, dnn_e, egpu_e, tinyhd_model_e;
  for (const auto& r : results) {
    std::fputs(r.line.c_str(), stdout);
    base_e.push_back(r.base_e);
    lp_e.push_back(r.lp_e);
    base_acc.push_back(r.base_acc);
    lp_acc.push_back(r.lp_acc);
    rf_e.push_back(r.rf_e);
    svm_e.push_back(r.svm_e);
    dnn_e.push_back(r.dnn_e);
    egpu_e.push_back(r.egpu_e);
    tinyhd_model_e.push_back(r.tinyhd_e);
  }

  const double lp = geomean(lp_e);
  struct Row {
    const char* label;
    double e;
  };
  const Row rows[] = {
      {"GENERIC", geomean(base_e)},
      {"GENERIC-LP", lp},
      {"tiny-HD [8]", hw::tiny_hd_energy_per_input_j()},
      {"tinyHD-style*", geomean(tinyhd_model_e)},
      {"Datta [10]", hw::datta_hd_processor_energy_per_input_j()},
      {"RF (CPU)", geomean(rf_e)},
      {"SVM (CPU)", geomean(svm_e)},
      {"DNN (CPU)", geomean(dnn_e)},
      {"HDC (eGPU)", geomean(egpu_e)},
  };

  std::printf("Figure 9: inference energy per input (geomean over benchmarks)\n");
  std::printf("%-14s %14s %14s\n", "Platform", "Energy (uJ)", "vs GENERIC-LP");
  bench::print_rule(46);
  for (const auto& r : rows)
    std::printf("%-14s %14.4e %12.1fx\n", r.label, r.e * 1e6, r.e / lp);

  std::printf(
      "\n* tinyHD-style: inference-only engine rebuilt from this repo's\n"
      "  component model (1-bit class arrays, no norms/divider) — isolates\n"
      "  the architectural cost of trainability from technology effects.\n");
  std::printf(
      "\nGENERIC-LP saves %.1fx over base GENERIC; accuracy cost "
      "%.1f pts (%.1f%% -> %.1f%%)\n",
      geomean(base_e) / lp, 100.0 * (mean(base_acc) - mean(lp_acc)),
      100.0 * mean(base_acc), 100.0 * mean(lp_acc));
  std::printf("[fig9] completed in %.1f s (%zu thread%s)\n", timer.seconds(),
              threads, threads == 1 ? "" : "s");
  obs_session.set_pool_stats(pool.stats());
  obs::HardwareStats hw_stats;
  for (const auto& r : results) {
    hw_stats.energy_j += r.hw_energy_j;
    hw_stats.elapsed_s += r.hw_elapsed_s;
    hw_stats.cycles += r.hw_cycles;
  }
  obs_session.set_hardware(hw_stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
