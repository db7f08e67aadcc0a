#include "resilience/campaign.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/export.h"
#include "obs/obs.h"
#include "resilience/block_guard.h"

namespace generic::resilience {
namespace {

/// Seed for one (kind, rate, trial) cell: a splitmix64 hash of the indices
/// so trial seeds are independent of sweep order and grid shape.
std::uint64_t trial_seed(std::uint64_t base, std::size_t kind_index,
                         std::size_t rate_index, std::size_t trial) {
  std::uint64_t sm = base;
  sm ^= splitmix64(sm) + 0x9E3779B97F4A7C15ULL * (kind_index + 1);
  sm ^= splitmix64(sm) + 0xBF58476D1CE4E5B9ULL * (rate_index + 1);
  sm ^= splitmix64(sm) + 0x94D049BB133111EBULL * (trial + 1);
  return splitmix64(sm);
}

double evaluate(const model::HdcClassifier& clf,
                std::span<const hdc::IntHV> encoded,
                std::span<const int> labels) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i)
    hits += clf.predict(encoded[i]) == labels[i];
  return static_cast<double>(hits) / static_cast<double>(encoded.size());
}

double evaluate_masked(const model::HdcClassifier& clf,
                       const std::vector<bool>& ok,
                       std::span<const hdc::IntHV> encoded,
                       std::span<const int> labels) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i)
    hits += clf.predict_reduced(encoded[i], clf.dims(),
                                model::NormMode::kUpdated, ok)
                .cls == labels[i];
  return static_cast<double>(hits) / static_cast<double>(encoded.size());
}

/// Per-trial outcome collected by the Monte Carlo fan-out.
struct TrialOutcome {
  double accuracy = 0.0;
  double blocks_masked = 0.0;
};

/// Reduce one cell's trials in trial-index order. Min/max/mean/stddev over
/// the same values in the same order — byte-identical statistics whether
/// the trials ran serially or across a pool.
CampaignCell aggregate_cell(FaultKind kind, double rate,
                            const std::vector<TrialOutcome>& trials) {
  CampaignCell cell;
  cell.kind = kind;
  cell.rate = rate;
  const auto n = static_cast<double>(trials.size());
  double lo = 1.0, hi = 0.0, sum = 0.0, masked_sum = 0.0;
  for (const auto& t : trials) {
    lo = std::min(lo, t.accuracy);
    hi = std::max(hi, t.accuracy);
    sum += t.accuracy;
    masked_sum += t.blocks_masked;
  }
  cell.mean_accuracy = sum / n;
  // Two-pass variance: exact zero for identical trials, unlike the
  // cancellation-prone E[x^2] - E[x]^2 form.
  double ss = 0.0;
  for (const auto& t : trials)
    ss += (t.accuracy - cell.mean_accuracy) * (t.accuracy - cell.mean_accuracy);
  cell.stddev_accuracy = std::sqrt(ss / n);
  cell.min_accuracy = lo;
  cell.max_accuracy = hi;
  cell.mean_blocks_masked = masked_sum / n;
  return cell;
}

}  // namespace

std::string_view fault_target_name(FaultTarget target) {
  switch (target) {
    case FaultTarget::kClassMemory: return "class_memory";
    case FaultTarget::kLevelMemory: return "level_memory";
    case FaultTarget::kIdSeed: return "id_seed";
  }
  return "?";
}

CampaignResult run_campaign(const model::HdcClassifier& model,
                            std::span<const hdc::IntHV> encoded,
                            std::span<const int> labels,
                            const CampaignConfig& cfg) {
  if (encoded.size() != labels.size() || encoded.empty())
    throw std::invalid_argument("run_campaign: bad evaluation set");
  if (cfg.trials == 0 || cfg.kinds.empty() || cfg.rates.empty())
    throw std::invalid_argument("run_campaign: empty sweep");

  CampaignResult res;
  res.seed = cfg.seed;
  res.trials = cfg.trials;
  res.dims = model.dims();
  res.classes = model.num_classes();
  res.chunk = model.dims() / model.num_chunks();
  res.bit_width = model.bit_width();
  res.degrade = cfg.degrade;
  res.samples = encoded.size();
  {
    GENERIC_SPAN("campaign.baseline");
    res.baseline_accuracy = evaluate(model, encoded, labels);
  }

  std::optional<BlockGuard> guard;
  if (cfg.degrade) guard = BlockGuard::commission(model);

  // Monte Carlo fan-out: each trial is a pure function of its
  // (kind, rate, trial) indices — a private Rng, a private model copy, a
  // read-only evaluation set — so trials spread across the pool freely and
  // aggregate_cell() reduces them in trial-index order.
  ThreadPool pool(cfg.threads == 0 ? 1 : cfg.threads);

  for (std::size_t ki = 0; ki < cfg.kinds.size(); ++ki) {
    for (std::size_t ri = 0; ri < cfg.rates.size(); ++ri) {
      const FaultKind kind = cfg.kinds[ki];
      const double rate = cfg.rates[ri];
      GENERIC_SPAN("campaign.cell");
      const auto trials = pool.parallel_map<TrialOutcome>(
          cfg.trials, [&](std::size_t t) {
            GENERIC_SPAN("campaign.trial");
            GENERIC_COUNTER_ADD("campaign.trials", 1);
            Rng rng(trial_seed(cfg.seed, ki, ri, t));
            model::HdcClassifier faulty = model;
            inject(faulty, FaultSpec{kind, rate}, rng);
            TrialOutcome out;
            if (cfg.degrade) {
              const auto ok = guard->scan(faulty);
              const auto masked = static_cast<std::size_t>(
                  std::count(ok.begin(), ok.end(), false));
              out.blocks_masked = static_cast<double>(masked);
              // When every block is flagged (saturating corruption) masking
              // would leave nothing to score; fall back to raw inference.
              out.accuracy = masked == ok.size()
                                 ? evaluate(faulty, encoded, labels)
                                 : evaluate_masked(faulty, ok, encoded, labels);
            } else {
              out.accuracy = evaluate(faulty, encoded, labels);
            }
            return out;
          });
      res.cells.push_back(aggregate_cell(kind, rate, trials));
    }
  }
  return res;
}

CampaignResult run_encoder_campaign(enc::GenericEncoder& encoder,
                                    const model::HdcClassifier& model,
                                    std::span<const std::vector<float>> samples,
                                    std::span<const int> labels,
                                    const CampaignConfig& cfg,
                                    FaultTarget target) {
  if (samples.size() != labels.size() || samples.empty())
    throw std::invalid_argument("run_encoder_campaign: bad evaluation set");
  if (cfg.trials == 0 || cfg.kinds.empty() || cfg.rates.empty())
    throw std::invalid_argument("run_encoder_campaign: empty sweep");
  if (target == FaultTarget::kClassMemory)
    throw std::invalid_argument(
        "run_encoder_campaign: use run_campaign for the class memory");
  if (cfg.degrade)
    throw std::invalid_argument(
        "run_encoder_campaign: BlockGuard degrades the class memory only");

  ThreadPool pool(cfg.threads == 0 ? 1 : cfg.threads);

  CampaignResult res;
  res.seed = cfg.seed;
  res.trials = cfg.trials;
  res.dims = model.dims();
  res.classes = model.num_classes();
  res.chunk = model.dims() / model.num_chunks();
  res.bit_width = model.bit_width();
  res.degrade = false;
  res.target = target;
  res.samples = samples.size();
  res.encoder_remat = encoder.level_memory().storage() ==
                      hdc::ItemStorage::kRematerialized;
  res.encoder_footprint_bytes = encoder.memory_footprint_bytes();

  auto evaluate_encoder = [&] {
    const auto encoded = encoder.encode_batch(samples, pool);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i)
      hits += model.predict(encoded[i]) == labels[i];
    return static_cast<double>(hits) / static_cast<double>(encoded.size());
  };
  {
    GENERIC_SPAN("campaign.baseline");
    res.baseline_accuracy = evaluate_encoder();
  }

  // Commissioned (golden) encoder memory contents, restored after every
  // trial so faults never accumulate across the sweep. A kRematerialized
  // level memory stores no rows: nothing to snapshot, nothing to corrupt —
  // its kLevelMemory cells measure exactly that immunity. The id seed row
  // is stored in both modes, so kIdSeed campaigns bite either way.
  auto& levels = encoder.mutable_level_memory();
  auto& ids = encoder.mutable_id_memory();
  std::vector<hdc::BinaryHV> golden_levels;
  if (!res.encoder_remat) {
    golden_levels.reserve(levels.num_levels());
    for (std::size_t l = 0; l < levels.num_levels(); ++l)
      golden_levels.push_back(levels.level(l));
  }
  const hdc::BinaryHV golden_seed = ids.seed_id();

  for (std::size_t ki = 0; ki < cfg.kinds.size(); ++ki) {
    for (std::size_t ri = 0; ri < cfg.rates.size(); ++ri) {
      const FaultKind kind = cfg.kinds[ki];
      const double rate = cfg.rates[ri];
      GENERIC_SPAN("campaign.cell");
      std::vector<TrialOutcome> trials(cfg.trials);
      // Trials share the mutable encoder, so they stay sequential; the
      // per-trial re-encoding inside evaluate_encoder() is where the pool
      // fans out.
      for (std::size_t t = 0; t < cfg.trials; ++t) {
        GENERIC_SPAN("campaign.trial");
        GENERIC_COUNTER_ADD("campaign.trials", 1);
        Rng rng(trial_seed(cfg.seed, ki, ri, t));
        const FaultSpec spec{kind, rate};
        if (target == FaultTarget::kLevelMemory) {
          if (!res.encoder_remat)
            for (std::size_t l = 0; l < levels.num_levels(); ++l)
              inject(levels.mutable_level(l), spec, rng);
        } else {
          inject(ids.mutable_seed_id(), spec, rng);
        }
        trials[t].accuracy = evaluate_encoder();
        if (!res.encoder_remat)
          for (std::size_t l = 0; l < levels.num_levels(); ++l)
            levels.mutable_level(l) = golden_levels[l];
        ids.mutable_seed_id() = golden_seed;
      }
      res.cells.push_back(aggregate_cell(kind, rate, trials));
    }
  }
  return res;
}

std::string campaign_to_json(const CampaignResult& result) {
  std::string out;
  out.reserve(1024 + result.cells.size() * 192);
  out += "{\n";
  out += "  \"schema\": \"generic.fault_campaign.v1\",\n";
  out += "  \"seed\": " + std::to_string(result.seed) + ",\n";
  out += "  \"trials\": " + std::to_string(result.trials) + ",\n";
  out += "  \"dims\": " + std::to_string(result.dims) + ",\n";
  out += "  \"classes\": " + std::to_string(result.classes) + ",\n";
  out += "  \"chunk\": " + std::to_string(result.chunk) + ",\n";
  out += "  \"bit_width\": " + std::to_string(result.bit_width) + ",\n";
  out += std::string("  \"degrade\": ") +
         (result.degrade ? "true" : "false") + ",\n";
  out += "  \"target\": \"";
  out += fault_target_name(result.target);
  out += "\",\n";
  out += "  \"samples\": " + std::to_string(result.samples) + ",\n";
  if (result.target != FaultTarget::kClassMemory) {
    // Encoder-only block, absent from class-memory reports so their
    // committed goldens keep rendering byte-identically.
    out += std::string("  \"encoder\": {\"remat\": ") +
           (result.encoder_remat ? "true" : "false") +
           ", \"footprint_bytes\": " +
           std::to_string(result.encoder_footprint_bytes) + "},\n";
  }
  out += "  \"baseline_accuracy\": ";
  out += obs::json_number(result.baseline_accuracy);
  out += ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& c = result.cells[i];
    out += "    {\"fault\": \"";
    out += fault_kind_name(c.kind);
    out += "\", \"rate\": ";
    out += obs::json_number(c.rate);
    out += ", \"mean_accuracy\": ";
    out += obs::json_number(c.mean_accuracy);
    out += ", \"stddev_accuracy\": ";
    out += obs::json_number(c.stddev_accuracy);
    out += ", \"min_accuracy\": ";
    out += obs::json_number(c.min_accuracy);
    out += ", \"max_accuracy\": ";
    out += obs::json_number(c.max_accuracy);
    out += ", \"mean_blocks_masked\": ";
    out += obs::json_number(c.mean_blocks_masked);
    out += i + 1 < result.cells.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace generic::resilience
