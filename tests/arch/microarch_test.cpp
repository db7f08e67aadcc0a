// Three-way verification of the cycle-level simulator: bit-exact encoding
// vs the software encoder, prediction equivalence vs the behavioural ASIC,
// and cycle/access agreement with the analytic model — plus the
// failure-injection studies the SRAM models enable.
#include "arch/microarch.h"

#include <gtest/gtest.h>

#include "arch/generic_asic.h"
#include "data/benchmarks.h"
#include "data/fcps.h"
#include "ml/metrics.h"
#include "model/pipeline.h"

namespace generic::arch {
namespace {

struct Rig {
  data::Dataset ds;
  AppSpec spec;
  std::unique_ptr<enc::GenericEncoder> encoder;
  std::unique_ptr<model::HdcClassifier> model;

  explicit Rig(const char* name, std::size_t dims = 2048,
               std::size_t epochs = 5)
      : ds(data::make_benchmark(name)) {
    spec.dims = dims;
    spec.features = ds.num_features();
    spec.classes = ds.num_classes;
    const auto g = data::generic_config_for(name);
    spec.window = g.window;
    spec.use_ids = g.use_ids;
    enc::EncoderConfig cfg;
    cfg.dims = dims;
    cfg.window = spec.window;
    cfg.use_ids = spec.use_ids;
    encoder = std::make_unique<enc::GenericEncoder>(cfg);
    encoder->fit(ds.train_x);
    const auto train = model::encode_all(*encoder, ds.train_x);
    model = std::make_unique<model::HdcClassifier>(dims, ds.num_classes);
    model->fit(train, ds.train_y, epochs);
  }
};

TEST(MicroArch, EncodingBitExactVsSoftwareEncoder) {
  for (const char* name : {"PAGE", "EMG", "LANG"}) {
    Rig rig(name);
    MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
    for (std::size_t i = 0; i < 10; ++i) {
      (void)sim.infer(rig.ds.test_x[i]);
      const auto sw = rig.encoder->encode(rig.ds.test_x[i]);
      ASSERT_EQ(sim.last_encoding().size(), sw.size()) << name;
      for (std::size_t j = 0; j < sw.size(); ++j)
        ASSERT_EQ(sim.last_encoding()[j], sw[j])
            << name << " sample " << i << " dim " << j;
    }
  }
}

TEST(MicroArch, PredictionsMatchBehavioralAsic) {
  // Same model image, same divider -> identical labels. The behavioural
  // ASIC is given the already-trained model via the config-port path.
  Rig rig("EMG");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < rig.ds.test_x.size(); ++i) {
    const auto hw = sim.infer(rig.ds.test_x[i]);
    // Reference: exact-scored software prediction on the same model. The
    // micro-sim differs only through the corrected Mitchell compare and
    // 16-bit row saturation, so disagreements are confined to razor-thin
    // margins.
    const auto q = rig.encoder->encode(rig.ds.test_x[i]);
    disagreements += hw.label != rig.model->predict(q);
  }
  // EMG class margins are thin; the Mitchell-vs-exact band flips a few
  // percent of them. Anything above that would indicate a dataflow bug.
  EXPECT_LE(static_cast<double>(disagreements),
            0.05 * static_cast<double>(rig.ds.test_size()));
}

TEST(MicroArch, AccuracyMatchesSoftwareModel) {
  Rig rig("PAGE");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  std::size_t hw_hits = 0, sw_hits = 0;
  for (std::size_t i = 0; i < rig.ds.test_x.size(); ++i) {
    hw_hits += sim.infer(rig.ds.test_x[i]).label == rig.ds.test_y[i];
    sw_hits += rig.model->predict(rig.encoder->encode(rig.ds.test_x[i])) ==
               rig.ds.test_y[i];
  }
  EXPECT_NEAR(static_cast<double>(hw_hits), static_cast<double>(sw_hits),
              0.02 * static_cast<double>(rig.ds.test_size()));
}

TEST(MicroArch, CyclesMatchAnalyticModel) {
  Rig rig("EMG");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  CycleModel cm;
  const auto res = sim.infer(rig.ds.test_x[0]);
  EXPECT_EQ(res.cycles, cm.infer_input(rig.spec).cycles);
}

TEST(MicroArch, AccessCountsMatchAnalyticModel) {
  Rig rig("PAGE");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  for (std::size_t k = 0; k < sim.num_class_memories(); ++k)
    sim.class_memory(k).reset_counters();
  sim.level_memory().reset_counters();
  sim.feature_memory().reset_counters();
  (void)sim.infer(rig.ds.test_x[0]);
  CycleModel cm;
  const auto expect = cm.infer_input(rig.spec);
  EXPECT_EQ(sim.level_memory().reads(), expect.level_reads);
  EXPECT_EQ(sim.feature_memory().reads(), expect.feature_reads);
  // class_reads counts one row from *each* of the m distributed memories.
  std::uint64_t cm_reads = 0;
  for (std::size_t k = 0; k < sim.num_class_memories(); ++k)
    cm_reads += sim.class_memory(k).reads();
  EXPECT_EQ(cm_reads, expect.class_reads * sim.num_class_memories());
}

TEST(MicroArch, DimensionReductionCutsCycles) {
  Rig rig("EMG");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  const auto full = sim.infer(rig.ds.test_x[0]);
  sim.set_active_dims(512);
  const auto reduced = sim.infer(rig.ds.test_x[0]);
  EXPECT_LT(reduced.cycles, full.cycles / 3);
  EXPECT_THROW(sim.set_active_dims(7), std::invalid_argument);
  EXPECT_THROW(sim.set_active_dims(4096), std::invalid_argument);
}

TEST(MicroArch, ReducedPredictionsTrackSoftwareReducedModel) {
  Rig rig("EMG");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  sim.set_active_dims(1024);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    const auto hw = sim.infer(rig.ds.test_x[i]);
    const int sw = rig.model->predict_reduced(
        rig.encoder->encode(rig.ds.test_x[i]), 1024,
        model::NormMode::kUpdated).cls;
    agree += hw.label == sw;
  }
  EXPECT_GE(agree, 57u);
}

TEST(MicroArch, ClassMemoryUpsetsDegradeGracefully) {
  // Transient read upsets in the class arrays at Figure-6-scale rates
  // leave accuracy close to nominal.
  Rig rig("FACE");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < rig.ds.test_x.size(); ++i)
      hits += sim.infer(rig.ds.test_x[i]).label == rig.ds.test_y[i];
    return static_cast<double>(hits) /
           static_cast<double>(rig.ds.test_size());
  };
  const double clean = acc();
  // Transient upsets re-roll on every read and an MSB upset perturbs the
  // running dot product by +-2^15, so the tolerable per-bit-read rate is
  // far below Figure 6's persistent-flip rates; 5e-5 corrupts ~0.08% of
  // row reads (~10% of inferences see one corrupted row per class).
  for (std::size_t k = 0; k < sim.num_class_memories(); ++k)
    sim.class_memory(k).set_read_upset_rate(0.00005, 31 + k);
  EXPECT_GT(acc(), clean - 0.10);
}

TEST(MicroArch, LevelMemoryUpsetsAlsoTolerated) {
  // Beyond the paper: the encoder's level fetches are just as redundant —
  // a flipped level bit perturbs one dimension of one window.
  Rig rig("FACE");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < rig.ds.test_x.size(); ++i)
      hits += sim.infer(rig.ds.test_x[i]).label == rig.ds.test_y[i];
    return static_cast<double>(hits) /
           static_cast<double>(rig.ds.test_size());
  };
  const double clean = acc();
  sim.level_memory().set_read_upset_rate(0.01, 77);
  EXPECT_GT(acc(), clean - 0.08);
}

TEST(MicroArch, FeatureMemoryUpsetsAreTheSoftSpot) {
  // A flipped feature-bin bit shifts a whole window of levels — feature
  // memory is the least protected array, a finding the energy model's
  // per-array VOS policy (class memory only) quietly depends on.
  Rig rig("FACE");
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  const std::size_t n = std::min<std::size_t>(100, rig.ds.test_size());
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
      hits += sim.infer(rig.ds.test_x[i]).label == rig.ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(n);
  };
  const double clean = acc();
  sim.feature_memory().set_read_upset_rate(0.05, 99);
  const double noisy = acc();
  EXPECT_LT(noisy, clean + 0.01);  // never better, typically worse
}

TEST(MicroArch, ConstructorValidatesConsistency) {
  Rig rig("PAGE");
  AppSpec bad = rig.spec;
  bad.classes += 1;
  EXPECT_THROW(MicroArchSim(bad, *rig.encoder, *rig.model),
               std::invalid_argument);
  enc::EncoderConfig other;
  other.dims = rig.spec.dims;
  other.window = rig.spec.window + 1;
  enc::GenericEncoder mismatched(other);
  EXPECT_THROW(MicroArchSim(rig.spec, mismatched, *rig.model),
               std::invalid_argument);
}


TEST(MicroArchTrain, TrainStepCyclesMatchAnalyticModel) {
  Rig rig("PAGE", 1024);
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  CycleModel cm;
  const auto infer_c = cm.infer_input(rig.spec).cycles;
  const auto update_c = cm.retrain_update(rig.spec).cycles;
  // Correct label: inference cycles only. Wrong label: + update cycles.
  bool saw_update = false, saw_clean = false;
  for (std::size_t i = 0; i < rig.ds.test_x.size() && !(saw_update && saw_clean); ++i) {
    const int truth = rig.ds.test_y[i];
    const auto res = sim.train_step(rig.ds.test_x[i], truth);
    if (res.label == truth) {
      EXPECT_EQ(res.cycles, infer_c);
      saw_clean = true;
    } else {
      EXPECT_EQ(res.cycles, infer_c + update_c);
      saw_update = true;
    }
  }
  EXPECT_TRUE(saw_clean);
}

TEST(MicroArchTrain, UpdatesConvergeLikeSoftwareRetraining) {
  // Run one micro-architectural retraining epoch over the train set and
  // verify the updated model's accuracy tracks the software stack after
  // one more epoch on the same start state.
  Rig rig("EMG", 1024, /*epochs=*/0);  // one-shot model, no retraining yet
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  std::size_t hw_updates = 0;
  for (std::size_t i = 0; i < rig.ds.train_x.size(); ++i)
    hw_updates +=
        sim.train_step(rig.ds.train_x[i], rig.ds.train_y[i]).label !=
        rig.ds.train_y[i];
  // Software epoch from the same starting model.
  const auto train_enc = model::encode_all(*rig.encoder, rig.ds.train_x);
  const std::size_t sw_updates =
      rig.model->retrain_epoch(train_enc, rig.ds.train_y);
  // Same data, same start: the corrected-Mitchell trajectory may diverge
  // slightly but the update volume must be close.
  EXPECT_NEAR(static_cast<double>(hw_updates),
              static_cast<double>(sw_updates),
              0.15 * static_cast<double>(rig.ds.train_size()) + 5.0);
  // And post-epoch accuracy must track.
  std::size_t hw_hits = 0, sw_hits = 0;
  for (std::size_t i = 0; i < rig.ds.test_x.size(); ++i) {
    hw_hits += sim.infer(rig.ds.test_x[i]).label == rig.ds.test_y[i];
    sw_hits += rig.model->predict(rig.encoder->encode(rig.ds.test_x[i])) ==
               rig.ds.test_y[i];
  }
  EXPECT_NEAR(static_cast<double>(hw_hits), static_cast<double>(sw_hits),
              0.08 * static_cast<double>(rig.ds.test_size()) + 3.0);
}

TEST(MicroArchTrain, LabelAndDimValidation) {
  Rig rig("PAGE", 1024);
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  EXPECT_THROW(sim.train_step(rig.ds.test_x[0], -1), std::invalid_argument);
  EXPECT_THROW(sim.train_step(rig.ds.test_x[0], 99), std::invalid_argument);
  sim.set_active_dims(512);
  EXPECT_THROW(sim.train_step(rig.ds.test_x[0], 0), std::logic_error);
  EXPECT_THROW(sim.cluster_step(rig.ds.test_x[0]), std::logic_error);
}

TEST(MicroArchCluster, StepCyclesMatchAnalyticModel) {
  Rig rig("PAGE", 1024);
  MicroArchSim sim(rig.spec, *rig.encoder, *rig.model);
  CycleModel cm;
  const auto res = sim.cluster_step(rig.ds.test_x[0]);
  EXPECT_EQ(res.cycles, cm.cluster_input(rig.spec).cycles);
  EXPECT_GE(res.label, 0);
  EXPECT_LT(res.label, static_cast<int>(rig.spec.classes));
}

TEST(MicroArchCluster, EpochProtocolRefinesPartitions) {
  // Full clustering run at cycle granularity on Hepta: seed the centroid
  // rows with the first k encodings (via a seeded classifier), run epochs
  // of cluster_step + swap_copies, compare against ground truth.
  const auto fc = data::make_fcps("Hepta");
  AppSpec spec;
  spec.dims = 1024;
  spec.features = fc.num_features();
  spec.classes = fc.num_clusters;
  spec.window = std::min<std::size_t>(3, fc.num_features());
  enc::EncoderConfig cfg;
  cfg.dims = spec.dims;
  cfg.window = spec.window;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(fc.points);
  // Seed centroids: class c := encoding of point c.
  model::HdcClassifier seeds(spec.dims, spec.classes);
  std::vector<hdc::IntHV> first_k;
  std::vector<int> seed_labels;
  for (std::size_t c = 0; c < spec.classes; ++c) {
    first_k.push_back(encoder.encode(fc.points[c]));
    seed_labels.push_back(static_cast<int>(c));
  }
  seeds.train_init(first_k, seed_labels);

  MicroArchSim sim(spec, encoder, seeds);
  std::vector<int> labels(fc.points.size(), -1);
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (std::size_t i = 0; i < fc.points.size(); ++i)
      labels[i] = sim.cluster_step(fc.points[i]).label;
    sim.swap_copies();
  }
  EXPECT_GT(ml::normalized_mutual_information(fc.labels, labels), 0.6);
}

}  // namespace
}  // namespace generic::arch
