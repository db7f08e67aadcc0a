// Campaign runner: determinism (same seed -> byte-identical JSON) and the
// paper's qualitative resilience claim (graceful, cliff-free degradation
// up to BER ~ 1e-3 for transient faults).
#include "resilience/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/pipeline.h"
#include "obs/export.h"

namespace generic::resilience {
namespace {

struct Rig {
  data::Dataset ds = data::make_benchmark("PAGE");
  std::unique_ptr<enc::GenericEncoder> encoder;
  model::HdcClassifier clf{1024, 5};
  std::vector<hdc::IntHV> test;

  Rig() {
    enc::EncoderConfig cfg;
    cfg.dims = 1024;
    encoder = std::make_unique<enc::GenericEncoder>(cfg);
    encoder->fit(ds.train_x);
    const auto train = model::encode_all(*encoder, ds.train_x);
    clf = model::HdcClassifier(1024, ds.num_classes);
    clf.fit(train, ds.train_y, 5);
    clf.quantize(8);  // the deployed operating point of Figure 6
    test = model::encode_all(*encoder, ds.test_x);
  }
};

Rig& rig() {
  static Rig r;  // train once for the whole suite
  return r;
}

TEST(Campaign, SameSeedProducesByteIdenticalJson) {
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient, FaultKind::kDeadBlock};
  cfg.rates = {0.0, 1e-3, 0.05};
  cfg.trials = 3;
  cfg.seed = 77;
  const auto a = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  const auto b = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  EXPECT_EQ(campaign_to_json(a), campaign_to_json(b));

  // And a different seed changes at least the sampled accuracies' bytes
  // (rates > 0 make that overwhelmingly likely on this grid).
  cfg.seed = 78;
  const auto c = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  EXPECT_NE(campaign_to_json(a), campaign_to_json(c));
}

TEST(Campaign, ZeroRateCellsEqualBaseline) {
  CampaignConfig cfg;
  cfg.rates = {0.0};
  cfg.trials = 2;
  const auto res = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  ASSERT_EQ(res.cells.size(), cfg.kinds.size());
  for (const auto& cell : res.cells) {
    EXPECT_DOUBLE_EQ(cell.mean_accuracy, res.baseline_accuracy);
    EXPECT_DOUBLE_EQ(cell.stddev_accuracy, 0.0);
  }
}

TEST(Campaign, TransientFaultsDegradeGracefullyUpToBer1e3) {
  // The §4.3.4 claim: no accuracy cliff through BER ~ 1e-3. Every rate on
  // the sweep must stay within 2% absolute of the fault-free baseline.
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient};
  cfg.rates = {0.0, 1e-4, 3e-4, 1e-3};
  cfg.trials = 5;
  cfg.seed = 2022;
  const auto res = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  ASSERT_EQ(res.cells.size(), 4u);
  for (const auto& cell : res.cells)
    EXPECT_GE(cell.mean_accuracy, res.baseline_accuracy - 0.02)
        << "cliff at rate " << cell.rate;
}

TEST(Campaign, DegradationPolicyRecoversDeadBlockAccuracy) {
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kDeadBlock};
  cfg.rates = {0.25};  // expect ~2 of 8 chunks dead per trial
  cfg.trials = 4;
  cfg.seed = 31;
  auto raw_cfg = cfg;
  raw_cfg.degrade = false;
  auto masked_cfg = cfg;
  masked_cfg.degrade = true;
  const auto raw =
      run_campaign(rig().clf, rig().test, rig().ds.test_y, raw_cfg);
  const auto masked =
      run_campaign(rig().clf, rig().test, rig().ds.test_y, masked_cfg);
  // Dead blocks read as zeros, so raw inference is already fairly benign;
  // masking must be at least as good up to trial noise, never a cliff.
  EXPECT_GE(masked.cells[0].mean_accuracy,
            raw.cells[0].mean_accuracy - 0.01);
  EXPECT_GE(masked.cells[0].mean_accuracy, masked.baseline_accuracy - 0.05);
  EXPECT_GT(masked.cells[0].mean_blocks_masked, 0.0);
  EXPECT_DOUBLE_EQ(raw.cells[0].mean_blocks_masked, 0.0);
}

TEST(Campaign, JsonShapeAndFileRoundTrip) {
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient, FaultKind::kStuckAt0};
  cfg.rates = {0.0, 1e-3};
  cfg.trials = 2;
  const auto res = run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg);
  const auto json = campaign_to_json(res);
  EXPECT_NE(json.find("\"schema\": \"generic.fault_campaign.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"transient\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"stuck_at_0\""), std::string::npos);
  EXPECT_EQ(res.cells.size(), 4u);

  const auto path = (std::filesystem::temp_directory_path() /
                     "generic_campaign_test.json")
                        .string();
  obs::write_file(path, campaign_to_json(res));
  std::ifstream f(path);
  std::string contents((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, json);
  std::remove(path.c_str());
}

TEST(Campaign, RejectsDegenerateInputs) {
  CampaignConfig cfg;
  EXPECT_THROW(run_campaign(rig().clf, {}, {}, cfg), std::invalid_argument);
  cfg.trials = 0;
  EXPECT_THROW(run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg),
               std::invalid_argument);
}

TEST(Campaign, ThreadedTrialsProduceByteIdenticalJson) {
  // Trial seeds depend only on (kind, rate, trial) indices and statistics
  // reduce in trial-index order, so any lane count — including pools far
  // wider than the trial count — yields the serial JSON byte for byte.
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient, FaultKind::kDeadBlock};
  cfg.rates = {0.0, 1e-3, 0.05};
  cfg.trials = 4;
  cfg.seed = 99;
  cfg.threads = 1;
  const auto serial = campaign_to_json(
      run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg));
  for (std::size_t threads : {2u, 7u, 16u}) {
    cfg.threads = threads;
    const auto threaded = campaign_to_json(
        run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg));
    EXPECT_EQ(threaded, serial) << "threads=" << threads;
  }
}

TEST(Campaign, ThreadedDegradePathIsDeterministicToo) {
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kDeadBlock};
  cfg.rates = {0.25};
  cfg.trials = 3;
  cfg.seed = 31;
  cfg.degrade = true;
  cfg.threads = 1;
  const auto serial = campaign_to_json(
      run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg));
  cfg.threads = 5;
  const auto threaded = campaign_to_json(
      run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg));
  EXPECT_EQ(threaded, serial);
}

// ---- Encoder-memory campaign (level rows / id seed) -----------------------

CampaignConfig encoder_cfg() {
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient, FaultKind::kStuckAt1};
  cfg.rates = {0.0, 1e-3, 0.05};
  cfg.trials = 2;
  cfg.seed = 4242;
  return cfg;
}

TEST(EncoderCampaign, LevelMemoryZeroRateEqualsBaseline) {
  auto cfg = encoder_cfg();
  const auto res =
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kLevelMemory);
  EXPECT_EQ(res.target, FaultTarget::kLevelMemory);
  ASSERT_EQ(res.cells.size(), cfg.kinds.size() * cfg.rates.size());
  for (std::size_t ki = 0; ki < cfg.kinds.size(); ++ki) {
    const auto& zero_cell = res.cells[ki * cfg.rates.size()];
    EXPECT_DOUBLE_EQ(zero_cell.rate, 0.0);
    EXPECT_DOUBLE_EQ(zero_cell.mean_accuracy, res.baseline_accuracy);
    EXPECT_DOUBLE_EQ(zero_cell.stddev_accuracy, 0.0);
  }
}

TEST(EncoderCampaign, RestoresEncoderStateAfterSweep) {
  // The sweep corrupts the shared encoder in place; after it returns the
  // commissioned memories must be back, so a fresh encoding matches one
  // taken before the campaign.
  const auto before = model::encode_all(*rig().encoder, rig().ds.test_x);
  auto cfg = encoder_cfg();
  (void)run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                             rig().ds.test_y, cfg, FaultTarget::kLevelMemory);
  (void)run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                             rig().ds.test_y, cfg, FaultTarget::kIdSeed);
  const auto after = model::encode_all(*rig().encoder, rig().ds.test_x);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << "sample " << i;
}

TEST(EncoderCampaign, DeterministicAcrossRunsAndThreads) {
  auto cfg = encoder_cfg();
  cfg.threads = 1;
  const auto a = campaign_to_json(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kIdSeed));
  const auto b = campaign_to_json(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kIdSeed));
  EXPECT_EQ(a, b);
  cfg.threads = 7;
  const auto threaded = campaign_to_json(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kIdSeed));
  EXPECT_EQ(threaded, a);
}

TEST(EncoderCampaign, HighRateLevelFaultsHurtAccuracy) {
  // Saturating the level rows with stuck-at-1 faults must visibly damage
  // accuracy — the encoder campaign actually flows through the encoder.
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kStuckAt1};
  cfg.rates = {0.5};
  cfg.trials = 2;
  cfg.seed = 7;
  const auto res =
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kLevelMemory);
  EXPECT_LT(res.cells[0].mean_accuracy, res.baseline_accuracy);
}

TEST(EncoderCampaign, JsonCarriesTargetField) {
  auto cfg = encoder_cfg();
  cfg.kinds = {FaultKind::kTransient};
  cfg.rates = {1e-3};
  const auto json = campaign_to_json(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kLevelMemory));
  EXPECT_NE(json.find("\"target\": \"level_memory\""), std::string::npos);
  // The class-memory runner stamps its own target name.
  CampaignConfig ccfg;
  ccfg.kinds = {FaultKind::kTransient};
  ccfg.rates = {0.0};
  ccfg.trials = 1;
  const auto cjson = campaign_to_json(
      run_campaign(rig().clf, rig().test, rig().ds.test_y, ccfg));
  EXPECT_NE(cjson.find("\"target\": \"class_memory\""), std::string::npos);
}

TEST(EncoderCampaign, RematLevelMemoryIsImmuneToLevelFaults) {
  // A kRematerialized level memory stores no rows, so a level-memory sweep
  // cannot bite: every cell sits exactly at baseline — the campaign-shaped
  // proof of the PR 7 immunity claim — and the report's footprint gauge
  // shows the storage the immunity costs nothing to give up.
  enc::EncoderConfig ecfg;
  ecfg.dims = 1024;
  ecfg.remat = true;
  enc::GenericEncoder remat(ecfg);
  remat.fit(rig().ds.train_x);
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kStuckAt1};
  cfg.rates = {0.5};  // saturating on a stored encoder (see HighRate test)
  cfg.trials = 2;
  cfg.seed = 7;
  const auto res =
      run_encoder_campaign(remat, rig().clf, rig().ds.test_x, rig().ds.test_y,
                           cfg, FaultTarget::kLevelMemory);
  EXPECT_TRUE(res.encoder_remat);
  EXPECT_LT(res.encoder_footprint_bytes,
            rig().encoder->memory_footprint_bytes());
  for (const auto& cell : res.cells) {
    EXPECT_DOUBLE_EQ(cell.mean_accuracy, res.baseline_accuracy);
    EXPECT_DOUBLE_EQ(cell.stddev_accuracy, 0.0);
  }
  const auto json = campaign_to_json(res);
  EXPECT_NE(json.find("\"encoder\": {\"remat\": true"), std::string::npos);
  EXPECT_NE(json.find("\"footprint_bytes\": "), std::string::npos);
}

TEST(EncoderCampaign, RematIdSeedStillBites) {
  // The seed row is stored in both modes (it IS the remat source), so an
  // id_seed campaign must still damage accuracy on a remat encoder.
  enc::EncoderConfig ecfg;
  ecfg.dims = 1024;
  ecfg.remat = true;
  enc::GenericEncoder remat(ecfg);
  remat.fit(rig().ds.train_x);
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kStuckAt1};
  cfg.rates = {0.5};
  cfg.trials = 2;
  cfg.seed = 7;
  const auto res =
      run_encoder_campaign(remat, rig().clf, rig().ds.test_x, rig().ds.test_y,
                           cfg, FaultTarget::kIdSeed);
  EXPECT_TRUE(res.encoder_remat);
  EXPECT_LT(res.cells[0].mean_accuracy, res.baseline_accuracy);
}

TEST(EncoderCampaign, ClassMemoryJsonOmitsEncoderBlock) {
  // The encoder gauges must not leak into class-memory reports: their
  // committed goldens (fault_campaign_page.json) predate the block.
  CampaignConfig cfg;
  cfg.kinds = {FaultKind::kTransient};
  cfg.rates = {0.0};
  cfg.trials = 1;
  const auto json = campaign_to_json(
      run_campaign(rig().clf, rig().test, rig().ds.test_y, cfg));
  EXPECT_EQ(json.find("\"encoder\""), std::string::npos);
}

TEST(EncoderCampaign, RejectsUnsupportedModes) {
  auto cfg = encoder_cfg();
  EXPECT_THROW(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kClassMemory),
      std::invalid_argument);
  cfg.degrade = true;
  EXPECT_THROW(
      run_encoder_campaign(*rig().encoder, rig().clf, rig().ds.test_x,
                           rig().ds.test_y, cfg, FaultTarget::kLevelMemory),
      std::invalid_argument);
}

}  // namespace
}  // namespace generic::resilience
