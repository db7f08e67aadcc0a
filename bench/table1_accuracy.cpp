// Reproduces Table 1: classification accuracy of the five HDC encodings
// (RP, level-id, ngram, permute, GENERIC) and four ML comparators
// (MLP, SVM, RF, DNN) on the eleven benchmark clones, plus the Mean and
// STDV aggregate rows.
//
// Expected shape (paper): GENERIC has the highest mean (+3.5 pts over the
// best HDC baseline, +6.5 over the best classical ML) and the lowest STDV;
// RP collapses on EEG/EMG/LANG, ngram collapses on ISOLET/MNIST/PAMAP2,
// only ngram and GENERIC reach ~100% on LANG.
//
// Flags: --quick (fewer dims/epochs), --hdc-only, --ml-only,
//        --datasets=NAME1,NAME2  (default: all eleven)
//        --threads=N  (fan datasets across a pool; table bytes are
//                      identical to the serial run for any N)
#include <cstdio>
#include <map>
#include <sstream>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "ml/classifier.h"
#include "model/pipeline.h"
#include "obs/export.h"

namespace {

using namespace generic;

std::vector<std::string> parse_datasets(const std::string& csv) {
  if (csv.empty()) return data::benchmark_names();
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

/// One dataset's table row: its accuracy per column (header order) and the
/// formatted row text, buffered so rows print in dataset order regardless
/// of which thread finished first.
struct RowResult {
  std::vector<double> hdc_pcts, ml_pcts;
  std::string line;
};

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const bool hdc_only = flags.has("--hdc-only");
  const bool ml_only = flags.has("--ml-only");
  const std::size_t threads = flags.threads();
  const auto datasets = parse_datasets(flags.value("--datasets", ""));
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  flags.done();

  const std::size_t dims = quick ? 2048 : 4096;
  const std::size_t epochs = quick ? 10 : 20;

  const std::vector<enc::EncoderKind> hdc_kinds{
      enc::EncoderKind::kRp, enc::EncoderKind::kLevelId,
      enc::EncoderKind::kNgram, enc::EncoderKind::kPermutation,
      enc::EncoderKind::kGeneric};
  const std::vector<ml::MlKind> ml_kinds{
      ml::MlKind::kMlp, ml::MlKind::kSvm, ml::MlKind::kRandomForest,
      ml::MlKind::kDnn};

  // column header
  std::printf("Table 1: accuracy of HDC and ML algorithms (%%)\n");
  std::printf("%-8s", "Dataset");
  if (!ml_only)
    for (auto kind : hdc_kinds)
      std::printf(" %9s", std::string(enc::to_string(kind)).c_str());
  if (!hdc_only)
    for (auto kind : ml_kinds)
      std::printf(" %9s", std::string(ml::to_string(kind)).c_str());
  std::printf("\n");
  bench::print_rule(8 + 10 * ((ml_only ? 0 : hdc_kinds.size()) +
                              (hdc_only ? 0 : ml_kinds.size())));

  std::map<std::string, std::vector<double>> columns;
  obs::Stopwatch total;

  std::vector<RowResult> rows_out(datasets.size());
  ThreadPool pool(threads);
  pool.parallel_for(datasets.size(), [&](std::size_t begin, std::size_t end,
                                         std::size_t) {
    for (std::size_t di = begin; di < end; ++di) {
      GENERIC_SPAN("table1.dataset");
      const auto& name = datasets[di];
      const auto ds = data::make_benchmark(name);
      RowResult& row = rows_out[di];
      char cell[16];
      std::snprintf(cell, sizeof(cell), "%-8s", ds.name.c_str());
      row.line = cell;

      if (!ml_only) {
        for (auto kind : hdc_kinds) {
          enc::EncoderConfig cfg;
          cfg.dims = dims;
          const auto gcfg = data::generic_config_for(name);
          cfg.window = gcfg.window;
          if (kind == enc::EncoderKind::kGeneric) cfg.use_ids = gcfg.use_ids;
          auto encoder = enc::make_encoder(kind, cfg);
          const auto res = model::run_hdc_classification(*encoder, ds, epochs);
          const double pct = 100.0 * res.test_accuracy;
          row.hdc_pcts.push_back(pct);
          std::snprintf(cell, sizeof(cell), " %8.1f%%", pct);
          row.line += cell;
        }
      }
      if (!hdc_only) {
        for (auto kind : ml_kinds) {
          auto clf = ml::make_classifier(kind);
          clf->train(ds.train_x, ds.train_y, ds.num_classes);
          const double pct = 100.0 * clf->accuracy(ds.test_x, ds.test_y);
          row.ml_pcts.push_back(pct);
          std::snprintf(cell, sizeof(cell), " %8.1f%%", pct);
          row.line += cell;
        }
      }
      row.line += "\n";
    }
  });

  // Rows print — and columns accumulate — in dataset order, so the table
  // and the Mean/STDV aggregates match the serial run byte for byte.
  for (const auto& row : rows_out) {
    std::fputs(row.line.c_str(), stdout);
    if (!ml_only)
      for (std::size_t k = 0; k < hdc_kinds.size(); ++k)
        columns[std::string(enc::to_string(hdc_kinds[k]))].push_back(
            row.hdc_pcts[k]);
    if (!hdc_only)
      for (std::size_t k = 0; k < ml_kinds.size(); ++k)
        columns[std::string(ml::to_string(ml_kinds[k]))].push_back(
            row.ml_pcts[k]);
  }

  // Aggregate rows, in the same column order as the header.
  auto print_agg = [&](const char* label, auto fn) {
    std::printf("%-8s", label);
    if (!ml_only)
      for (auto kind : hdc_kinds)
        std::printf(" %8.1f%%", fn(columns[std::string(enc::to_string(kind))]));
    if (!hdc_only)
      for (auto kind : ml_kinds)
        std::printf(" %8.1f%%", fn(columns[std::string(ml::to_string(kind))]));
    std::printf("\n");
  };
  print_agg("Mean", [](const std::vector<double>& v) { return mean(v); });
  print_agg("STDV", [](const std::vector<double>& v) { return stddev(v); });

  std::printf("\n[table1] completed in %.1f s\n", total.seconds());
  obs_session.set_pool_stats(pool.stats());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
