// BlockGuard detection / masking / scrubbing, including the acceptance
// criterion of the resilience issue: a model with <= 10% dead 128-dim
// blocks, masked, loses <= 2% absolute accuracy vs the fault-free model
// on the synthetic benchmark.
#include "resilience/block_guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "arch/microarch.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/pipeline.h"
#include "resilience/fault_model.h"

namespace generic::resilience {
namespace {

/// Trained rig on the PAGE synthetic clone. dims = 1280 -> 10 chunks, so
/// one dead chunk is exactly the 10% budget of the acceptance criterion.
struct Rig {
  data::Dataset ds = data::make_benchmark("PAGE");
  std::unique_ptr<enc::GenericEncoder> encoder;
  model::HdcClassifier clf{1280, 5};
  std::vector<hdc::IntHV> test;

  explicit Rig(std::size_t dims = 1280) : clf(dims, 5) {
    enc::EncoderConfig cfg;
    cfg.dims = dims;
    encoder = std::make_unique<enc::GenericEncoder>(cfg);
    encoder->fit(ds.train_x);
    const auto train = model::encode_all(*encoder, ds.train_x);
    clf = model::HdcClassifier(dims, ds.num_classes);
    clf.fit(train, ds.train_y, 5);
    test = model::encode_all(*encoder, ds.test_x);
  }

  double accuracy(const model::HdcClassifier& m) const {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
      hits += m.predict(test[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(test.size());
  }

  double accuracy_masked(const model::HdcClassifier& m,
                         const std::vector<bool>& ok) const {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
      hits += m.predict_reduced(test[i], m.dims(), model::NormMode::kUpdated,
                                ok)
                  .cls == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(test.size());
  }
};

TEST(BlockGuard, CleanModelScansAllOk) {
  Rig rig;
  const auto guard = BlockGuard::commission(rig.clf);
  const auto ok = guard.scan(rig.clf);
  EXPECT_EQ(ok.size(), rig.clf.num_chunks());
  for (bool b : ok) EXPECT_TRUE(b);
  EXPECT_EQ(guard.count_faulty(rig.clf), 0u);
}

TEST(BlockGuard, GeometryMismatchRejected) {
  Rig rig;
  const auto guard = BlockGuard::commission(rig.clf);
  model::HdcClassifier other(256, 5);
  EXPECT_THROW(guard.scan(other), std::invalid_argument);
}

TEST(BlockGuard, DetectsExactlyTheDeadChunks) {
  Rig rig;
  const auto guard = BlockGuard::commission(rig.clf);
  auto faulty = rig.clf;
  inject_dead_blocks(faulty, {2, 7});
  const auto ok = guard.scan(faulty);
  for (std::size_t k = 0; k < ok.size(); ++k)
    EXPECT_EQ(ok[k], k != 2 && k != 7) << "chunk " << k;
}

TEST(BlockGuard, DetectsTransientCorruption) {
  Rig rig;
  const auto guard = BlockGuard::commission(rig.clf);
  auto faulty = rig.clf;
  Rng rng(123);
  inject(faulty, {FaultKind::kTransient, 1e-3}, rng);
  EXPECT_GT(guard.count_faulty(faulty), 0u);
}

TEST(BlockGuard, MaskedInferenceWithTenPercentDeadBlocksLosesAtMostTwoPercent) {
  Rig rig;
  const double baseline = rig.accuracy(rig.clf);
  const auto guard = BlockGuard::commission(rig.clf);

  auto faulty = rig.clf;
  inject_dead_blocks(faulty, {3});  // 1 of 10 chunks == 10% dead
  const auto ok = guard.scan(faulty);
  EXPECT_EQ(std::count(ok.begin(), ok.end(), false), 1);

  const double masked = rig.accuracy_masked(faulty, ok);
  EXPECT_GE(masked, baseline - 0.02)
      << "masked=" << masked << " baseline=" << baseline;
}

TEST(BlockGuard, ScrubRepairsFromGolden) {
  Rig rig;
  const auto golden = rig.clf;
  const auto guard = BlockGuard::commission(rig.clf);

  auto faulty = rig.clf;
  inject_dead_blocks(faulty, {0, 4, 9});
  Rng rng(5);
  inject(faulty, {FaultKind::kTransient, 1e-4}, rng);
  const std::size_t faulty_blocks = guard.count_faulty(faulty);
  EXPECT_GE(faulty_blocks, 3u);

  const std::size_t repaired = guard.scrub(faulty, golden);
  EXPECT_EQ(repaired, faulty_blocks);
  EXPECT_EQ(guard.count_faulty(faulty), 0u);
  for (std::size_t c = 0; c < golden.num_classes(); ++c) {
    EXPECT_EQ(faulty.class_vector(c), golden.class_vector(c));
    for (std::size_t k = 0; k < golden.num_chunks(); ++k)
      EXPECT_EQ(faulty.chunk_norm(c, k), golden.chunk_norm(c, k));
  }
}

TEST(BlockGuard, ScrubFromCrcVerifiedBlob) {
  Rig rig;
  const auto guard = BlockGuard::commission(rig.clf);
  const auto blob = model::serialize_model(*rig.encoder, rig.clf);

  auto faulty = rig.clf;
  inject_dead_blocks(faulty, {5});
  EXPECT_EQ(guard.scrub_from_blob(faulty, blob), 1u);
  EXPECT_EQ(faulty.class_vector(0), rig.clf.class_vector(0));

  // A corrupted golden blob must be rejected, not silently used.
  auto bad = blob;
  bad[bad.size() / 2] ^= 0x01;
  inject_dead_blocks(faulty, {5});
  EXPECT_THROW(guard.scrub_from_blob(faulty, bad), std::invalid_argument);
}

TEST(BlockGuard, AllChunksMaskedThrows) {
  Rig rig;
  const std::vector<bool> none(rig.clf.num_chunks(), false);
  EXPECT_THROW(rig.clf.predict_reduced(rig.test[0], rig.clf.dims(),
                                       model::NormMode::kUpdated, none),
               std::invalid_argument);
}

TEST(BlockGuard, MicroArchBlockMaskMatchesSoftwareMasking) {
  // The cycle-level simulator's set_block_mask reuses the dimension-
  // reduction datapath; its masked predictions must track the software
  // masked predictions (up to the Mitchell-vs-exact compare band).
  Rig rig;
  arch::AppSpec spec;
  spec.dims = rig.clf.dims();
  spec.features = rig.ds.num_features();
  spec.classes = rig.ds.num_classes;
  const auto g = data::generic_config_for("PAGE");
  spec.window = g.window;
  spec.use_ids = g.use_ids;

  auto faulty = rig.clf;
  inject_dead_blocks(faulty, {3});
  const auto guard = BlockGuard::commission(rig.clf);
  const auto ok = guard.scan(faulty);

  arch::MicroArchSim sim(spec, *rig.encoder, faulty);
  sim.set_block_mask(ok);
  std::size_t agree = 0;
  const std::size_t n = std::min<std::size_t>(rig.ds.test_x.size(), 200);
  for (std::size_t i = 0; i < n; ++i) {
    const auto hw = sim.infer(rig.ds.test_x[i]);
    agree += hw.label == faulty
                             .predict_reduced(rig.test[i], faulty.dims(),
                                              model::NormMode::kUpdated, ok)
                             .cls;
  }
  EXPECT_GE(static_cast<double>(agree), 0.9 * static_cast<double>(n));

  // Masked-out blocks also save their passes' cycles, like §4.3.3.
  sim.clear_block_mask();
  const auto full = sim.infer(rig.ds.test_x[0]);
  sim.set_block_mask(ok);
  const auto masked = sim.infer(rig.ds.test_x[0]);
  EXPECT_LT(masked.cycles, full.cycles);

  // Training demands a full mask.
  EXPECT_THROW(sim.train_step(rig.ds.test_x[0], 0), std::logic_error);

  // A mask that kills every chunk is rejected.
  EXPECT_THROW(sim.set_block_mask(std::vector<bool>(ok.size(), false)),
               std::invalid_argument);
}

}  // namespace
}  // namespace generic::resilience
