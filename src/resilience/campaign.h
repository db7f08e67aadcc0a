// Monte Carlo fault-injection campaign over a trained HdcClassifier.
//
// Sweeps fault kind x rate; each grid cell runs `trials` independent
// seeded trials: copy the model, inject the fault population, evaluate
// accuracy on a fixed encoded test set, and aggregate mean / stddev /
// min / max. With `degrade` enabled each trial additionally runs the
// BlockGuard detect-and-mask policy before evaluation, so the output
// quantifies both raw resilience (the paper's voltage-over-scaling
// argument, Figure 6) and the recovered accuracy of the degradation path.
//
// Determinism contract: every trial's fault pattern derives from
// (cfg.seed, kind index, rate index, trial index) alone, so the same
// configuration always produces byte-identical JSON — asserted by
// tests/resilience/campaign_test.cpp and relied on by the bench harness.
//
// JSON schema (see docs/resilience.md):
//   {
//     "schema": "generic.fault_campaign.v1",
//     "seed": ..., "trials": ..., "dims": ..., "classes": ...,
//     "bit_width": ..., "chunk": ..., "degrade": true|false,
//     "target": "class_memory"|"level_memory"|"id_seed",
//     "samples": ..., "baseline_accuracy": ...,
//     "cells": [
//       {"fault": "transient", "rate": ..., "mean_accuracy": ...,
//        "stddev_accuracy": ..., "min_accuracy": ..., "max_accuracy": ...,
//        "mean_blocks_masked": ...}, ...
//     ]
//   }
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"
#include "resilience/fault_model.h"

namespace generic::resilience {

/// Which memory of the datapath a campaign corrupts. kClassMemory is the
/// classic run_campaign sweep; the encoder targets (run_encoder_campaign)
/// cover the other two SRAMs of the §4 datapath — the level memory rows
/// and the §4.3.1 rotating id seed — whose injectors existed but were
/// never swept by the runner.
enum class FaultTarget {
  kClassMemory,
  kLevelMemory,
  kIdSeed,
};

/// Stable short name used in campaign JSON ("class_memory", ...).
std::string_view fault_target_name(FaultTarget target);

struct CampaignConfig {
  std::vector<FaultKind> kinds{FaultKind::kTransient, FaultKind::kStuckAt0,
                               FaultKind::kStuckAt1, FaultKind::kDeadBlock};
  /// Per-bit (or per-block for kDeadBlock) fault rates to sweep.
  std::vector<double> rates{0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.1};
  std::size_t trials = 5;
  std::uint64_t seed = 0xFA17;
  /// Run BlockGuard detection + masked inference inside each trial.
  bool degrade = false;
  /// Pool lanes for the Monte Carlo fan-out (1 == serial). Results are
  /// byte-identical for any value: every trial's fault pattern depends on
  /// its (kind, rate, trial) indices alone and trial statistics are
  /// reduced in trial-index order.
  std::size_t threads = 1;
};

struct CampaignCell {
  FaultKind kind = FaultKind::kTransient;
  double rate = 0.0;
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
  /// Mean number of blocks masked per trial (0 unless cfg.degrade).
  double mean_blocks_masked = 0.0;
};

struct CampaignResult {
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t dims = 0;
  std::size_t classes = 0;
  std::size_t chunk = 0;
  int bit_width = 0;
  bool degrade = false;
  FaultTarget target = FaultTarget::kClassMemory;
  std::size_t samples = 0;
  /// Encoder-campaign gauges (encoder targets only; zero otherwise): the
  /// storage mode and live item/level payload of the encoder under test.
  /// A kRematerialized encoder holds ~one seed row, which is also why its
  /// level-memory cells sit exactly at baseline — there are no stored rows
  /// for the fault population to bite.
  bool encoder_remat = false;
  std::size_t encoder_footprint_bytes = 0;
  double baseline_accuracy = 0.0;  ///< fault-free accuracy of the model
  std::vector<CampaignCell> cells;  ///< kinds x rates, kind-major order
};

/// Run the campaign. `encoded` / `labels` are the fixed evaluation set
/// (encode once, reuse across all trials). The input model is never
/// mutated; every trial works on a copy. With cfg.threads > 1 the trials
/// of each cell fan out across a pool.
CampaignResult run_campaign(const model::HdcClassifier& model,
                            std::span<const hdc::IntHV> encoded,
                            std::span<const int> labels,
                            const CampaignConfig& cfg);

/// Encoder-memory campaign: each trial corrupts the encoder's level rows
/// (kLevelMemory) or its rotating id seed (kIdSeed) with the cell's fault
/// population, re-encodes the raw evaluation samples through the damaged
/// memories, scores them against the *fault-free* classifier, then
/// restores the encoder. Trials run sequentially (they share the encoder)
/// but each trial's re-encoding fans out across cfg.threads lanes —
/// byte-identical JSON for any lane count. kDeadBlock kills 128-dim row
/// spans of every level row / the seed row. The encoder is returned to its
/// commissioned state on exit.
CampaignResult run_encoder_campaign(enc::GenericEncoder& encoder,
                                    const model::HdcClassifier& model,
                                    std::span<const std::vector<float>> samples,
                                    std::span<const int> labels,
                                    const CampaignConfig& cfg,
                                    FaultTarget target);

/// Render a result as pretty-printed JSON. Pure function of the result —
/// same result, byte-identical string.
std::string campaign_to_json(const CampaignResult& result);
}  // namespace generic::resilience
