// Ablations over GENERIC's design choices (beyond the paper's figures,
// backing the design discussion DESIGN.md calls out):
//   (a) window length n — §3.1 states n=3 maximizes mean accuracy;
//   (b) id binding on/off — the global-order term of Eq. 1;
//   (c) quantization level count — §5.1 notes the level memory is <10% of
//       area/power, so levels are effectively free; accuracy saturates;
//   (d) class-memory banking {1,2,4,8} — §4.3.2's area x power argument;
//   (e) retraining epochs — §5.2.1: "the accuracy of most datasets
//       saturates after a few epochs" (the paper still budgets 20).
#include <cstdio>
#include <vector>

#include "arch/energy_model.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/pipeline.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  flags.done();
  const std::size_t dims = quick ? 1024 : 2048;
  const std::size_t epochs = quick ? 5 : 10;
  // A positional, a temporal and a sequence task: the three structural
  // regimes windows must serve.
  const std::vector<std::string> names{"MNIST", "EEG", "LANG"};

  std::printf("Ablation (a): GENERIC accuracy (%%) vs window length n\n");
  std::printf("%-8s", "n");
  for (const auto& n : names) std::printf(" %8s", n.c_str());
  std::printf(" %8s\n", "mean");
  bench::print_rule(8 + 9 * (names.size() + 1));
  for (std::size_t n = 1; n <= 5; ++n) {
    std::printf("%-8zu", n);
    std::vector<double> accs;
    for (const auto& name : names) {
      const auto ds = data::make_benchmark(name);
      enc::EncoderConfig cfg;
      cfg.dims = dims;
      cfg.window = n;
      cfg.use_ids = data::generic_config_for(name).use_ids;
      enc::GenericEncoder encoder(cfg);
      const auto res = model::run_hdc_classification(encoder, ds, epochs);
      accs.push_back(100.0 * res.test_accuracy);
      std::printf(" %7.1f%%", accs.back());
    }
    std::printf(" %7.1f%%\n", mean(accs));
  }

  std::printf("\nAblation (b): id binding on/off (n = 3)\n");
  std::printf("%-8s %10s %10s\n", "dataset", "ids on", "ids off");
  bench::print_rule(32);
  for (const auto& name : names) {
    const auto ds = data::make_benchmark(name);
    double acc[2];
    for (int ids = 0; ids < 2; ++ids) {
      enc::EncoderConfig cfg;
      cfg.dims = dims;
      cfg.use_ids = ids == 1;
      enc::GenericEncoder encoder(cfg);
      acc[ids] = 100.0 * model::run_hdc_classification(encoder, ds, epochs)
                             .test_accuracy;
    }
    std::printf("%-8s %9.1f%% %9.1f%%\n", name.c_str(), acc[1], acc[0]);
  }

  std::printf("\nAblation (c): accuracy (%%) vs quantization levels\n");
  std::printf("%-8s", "levels");
  for (const auto& n : names) std::printf(" %8s", n.c_str());
  std::printf("\n");
  bench::print_rule(8 + 9 * names.size());
  for (std::size_t levels : {4u, 16u, 64u, 128u}) {
    std::printf("%-8zu", levels);
    for (const auto& name : names) {
      const auto ds = data::make_benchmark(name);
      enc::EncoderConfig cfg;
      cfg.dims = dims;
      cfg.levels = levels;
      cfg.use_ids = data::generic_config_for(name).use_ids;
      enc::GenericEncoder encoder(cfg);
      const auto res = model::run_hdc_classification(encoder, ds, epochs);
      std::printf(" %7.1f%%", 100.0 * res.test_accuracy);
    }
    std::printf("\n");
  }

  std::printf("\nAblation (e): accuracy (%%) vs retraining epochs\n");
  std::printf("%-8s", "epochs");
  for (const auto& n : names) std::printf(" %8s", n.c_str());
  std::printf("\n");
  bench::print_rule(8 + 9 * names.size());
  for (std::size_t ep : {0u, 1u, 2u, 5u, 10u, 20u}) {
    std::printf("%-8zu", ep);
    for (const auto& name : names) {
      const auto ds = data::make_benchmark(name);
      enc::EncoderConfig cfg;
      cfg.dims = dims;
      cfg.use_ids = data::generic_config_for(name).use_ids;
      enc::GenericEncoder encoder(cfg);
      const auto res = model::run_hdc_classification(encoder, ds, ep);
      std::printf(" %7.1f%%", 100.0 * res.test_accuracy);
    }
    std::printf("\n");
  }

  std::printf("\nAblation (d): class-memory banking (typical app, nC=9)\n");
  std::printf("%-6s %12s %14s %16s\n", "banks", "active", "static (mW)",
              "area x power");
  bench::print_rule(52);
  arch::EnergyModel em;
  arch::AppSpec typical;
  typical.dims = 4096;
  typical.features = 64;
  typical.classes = 9;
  for (std::size_t banks : {1u, 2u, 4u, 8u}) {
    const double frac = em.active_bank_fraction(typical, banks);
    arch::Breakdown st = em.static_power_full_mw();
    st.class_mem *= frac;
    const double cost = st.total() * em.banking_area_overhead(banks);
    std::printf("%-6zu %11.0f%% %14.4f %16.4f%s\n", banks, 100.0 * frac,
                st.total(), cost, banks == 4 ? "  <- minimum (§4.3.2)" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
