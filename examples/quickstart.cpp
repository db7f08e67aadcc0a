// Quickstart: train an HDC classifier with the GENERIC encoding on a
// benchmark clone, evaluate it, and peek at the knobs the library exposes.
//
//   $ ./build/examples/quickstart
//
// Walks the full public API surface in ~60 lines: dataset -> encoder ->
// classifier -> dimension reduction -> quantization.
#include <cstdio>

#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"
#include "model/pipeline.h"

using namespace generic;

int main() {
  // 1. Get a dataset. Eleven synthetic clones of the paper's benchmarks
  //    ship with the library; ISOLET is a 26-class spoken-letter stand-in.
  const data::Dataset ds = data::make_benchmark("ISOLET");
  std::printf("dataset %s: %zu train / %zu test, %zu features, %zu classes\n",
              ds.name.c_str(), ds.train_size(), ds.test_size(),
              ds.num_features(), ds.num_classes);

  // 2. Configure the GENERIC encoder (Eq. 1 of the paper): D = 4K
  //    dimensions, 64 quantization levels, window n = 3, id binding on.
  enc::EncoderConfig cfg;
  cfg.dims = 4096;
  enc::GenericEncoder encoder(cfg);

  // 3. Fit the quantizer, encode both splits once, train with retraining.
  encoder.fit(ds.train_x);
  const auto train_hv = model::encode_all(encoder, ds.train_x);
  const auto test_hv = model::encode_all(encoder, ds.test_x);

  model::HdcClassifier clf(cfg.dims, ds.num_classes);
  clf.fit(train_hv, ds.train_y, /*epochs=*/20);

  auto accuracy = [&](auto predict) {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test_hv.size(); ++i)
      hits += predict(test_hv[i]) == ds.test_y[i];
    return 100.0 * static_cast<double>(hits) /
           static_cast<double>(test_hv.size());
  };

  std::printf("full model (4096 dims, 16-bit): %.1f%%\n",
              accuracy([&](const hdc::IntHV& q) { return clf.predict(q); }));

  // 4. On-demand dimension reduction: trade accuracy for 4x less work by
  //    using the first 1K dimensions with the stored sub-norms.
  std::printf("reduced model (1024 dims):      %.1f%%\n",
              accuracy([&](const hdc::IntHV& q) {
                return clf.predict_reduced(q, 1024, model::NormMode::kUpdated)
                    .cls;
              }));

  // 5. Aggressive quantization: HDC barely notices 4-bit class elements.
  clf.quantize(4);
  std::printf("quantized model (4-bit):        %.1f%%\n",
              accuracy([&](const hdc::IntHV& q) { return clf.predict(q); }));
  return 0;
}
