#include "lifecycle/manager.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/rtrace.h"
#include "resilience/fault_model.h"
#include "serve/policy.h"

namespace generic::lifecycle {

namespace rtrace = obs::rtrace;

namespace {

std::int64_t milli(double v) {
  return static_cast<std::int64_t>(std::llround(v * 1000.0));
}

}  // namespace

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kDriftAlarm: return "drift_alarm";
    case EventKind::kRetrainStart: return "retrain_start";
    case EventKind::kSwap: return "swap";
    case EventKind::kRollback: return "rollback";
  }
  return "unknown";
}

Manager::Manager(std::shared_ptr<const model::HdcClassifier> initial,
                 std::span<const hdc::IntHV> queries,
                 std::span<const int> labels, const LifecycleConfig& cfg,
                 CheckpointStore* store)
    : current_(std::move(initial)),
      queries_(queries),
      labels_(labels),
      cfg_(cfg),
      store_(store),
      pool_(cfg.threads),
      detector_(cfg.drift),
      next_version_(cfg.initial_version + 1) {
  if (!current_) throw std::invalid_argument("Manager: initial model is null");
  if (queries_.size() != labels_.size())
    throw std::invalid_argument("Manager: queries/labels size mismatch");
  if (cfg_.replay_capacity == 0)
    throw std::invalid_argument("Manager: replay_capacity must be >= 1");
  if (cfg_.holdout == 0)
    throw std::invalid_argument("Manager: holdout must be >= 1");
  if (cfg_.min_replay <= cfg_.holdout)
    throw std::invalid_argument(
        "Manager: min_replay must exceed holdout (nothing left to train on)");
  if (cfg_.min_replay > cfg_.replay_capacity)
    throw std::invalid_argument(
        "Manager: min_replay cannot exceed replay_capacity");
  if (cfg_.retrain_epochs == 0)
    throw std::invalid_argument("Manager: retrain_epochs must be >= 1");
  if (cfg_.epsilon < 0.0)
    throw std::invalid_argument("Manager: epsilon must be >= 0");

  VersionRecord rec;
  rec.version = cfg_.initial_version;
  rec.from_retrain = false;
  rec.installed = true;
  rec.vt = 0;
  versions_.push_back(std::move(rec));
}

Manager::~Manager() {
  if (job_ && job_->worker.joinable()) job_->worker.join();
}

void Manager::observe(const serve::ServedObservation& obs) {
  last_vt_ = obs.vt;
  const bool was_alarmed = detector_.alarmed();
  detector_.observe_margin(obs.margin);
  if (obs.canary) {
    detector_.observe_canary(obs.correct);
    bank_canary(obs.query);
    if (was_alarmed) ++fresh_canaries_;
  }
  if (!was_alarmed && detector_.alarmed()) {
    ++alarms_;
    fresh_canaries_ = 0;
    GENERIC_COUNTER_ADD("lifecycle.alarms", 1);
    rtrace::record(rtrace::EventKind::kDriftAlarm, obs.vt, rtrace::kNoRequest,
                   0, 0, milli(detector_.drift_score()));
    events_.push_back(
        LifecycleEvent{obs.vt, EventKind::kDriftAlarm, 0,
                       detector_.drift_score()});
  }
}

void Manager::bank_canary(std::uint64_t query) {
  replay_.push_back(query);
  const auto cls = static_cast<std::size_t>(labels_[query]);
  if (cls >= replay_class_counts_.size())
    replay_class_counts_.resize(cls + 1, 0);
  ++replay_class_counts_[cls];

  auto evict_oldest_of = [&](std::size_t target) {
    for (auto it = replay_.begin(); it != replay_.end(); ++it) {
      if (static_cast<std::size_t>(labels_[*it]) == target) {
        replay_.erase(it);
        --replay_class_counts_[target];
        return;
      }
    }
  };

  // Class quota first: an over-quota class recycles its own oldest canary,
  // so the flood never displaces other classes' replay.
  if (cfg_.replay_class_cap > 0 &&
      replay_class_counts_[cls] > cfg_.replay_class_cap) {
    evict_oldest_of(cls);
  }
  if (replay_.size() > cfg_.replay_capacity) {
    const auto front_cls = static_cast<std::size_t>(labels_[replay_.front()]);
    replay_.pop_front();
    --replay_class_counts_[front_cls];
  }
}

std::optional<serve::ModelUpdate> Manager::poll(std::uint64_t now) {
  if (job_ && now >= job_->ready_vt) {
    job_->worker.join();
    std::unique_ptr<RetrainJob> job = std::move(job_);
    const double score = detector_.drift_score();
    detector_.reset();
    cooldown_until_ = job->ready_vt + cfg_.cooldown_us;

    VersionRecord rec;
    rec.version = job->version;
    rec.from_retrain = true;
    rec.installed = job->passed;
    rec.vt = job->ready_vt;
    rec.updates = job->updates;
    rec.rung_dims = job->rung_dims;
    rec.holdout_accuracy = job->shadow_accuracy;
    rec.baseline_accuracy = job->baseline_accuracy;
    versions_.push_back(std::move(rec));

    serve::ModelUpdate upd;
    upd.version = job->version;
    upd.vt = job->ready_vt;
    if (job->passed) {
      ++swapped_;
      GENERIC_COUNTER_ADD("lifecycle.swaps", 1);
      events_.push_back(
          LifecycleEvent{job->ready_vt, EventKind::kSwap, job->version, score});
      if (store_) {
        store_->save(*job->shadow, job->version, job->ready_vt);
        rtrace::record(rtrace::EventKind::kCheckpointSave, job->ready_vt,
                       rtrace::kNoRequest, job->version);
      }
      current_ = job->shadow;
      upd.model = std::move(job->shadow);
    } else {
      ++rolled_back_;
      GENERIC_COUNTER_ADD("lifecycle.rollbacks", 1);
      events_.push_back(LifecycleEvent{job->ready_vt, EventKind::kRollback,
                                       job->version, score});
      upd.rollback = true;
    }
    return upd;
  }

  if (!job_ && detector_.alarmed() && now >= cooldown_until_ &&
      replay_.size() >= cfg_.min_replay &&
      fresh_canaries_ >= cfg_.min_fresh) {
    start_retrain(now);
  }
  return std::nullopt;
}

void Manager::start_retrain(std::uint64_t now) {
  ++triggered_;
  GENERIC_COUNTER_ADD("lifecycle.retrains", 1);
  if (triggered_ == 1) accuracy_ewma_at_trigger_ = detector_.accuracy_ewma();

  auto job = std::make_unique<RetrainJob>();
  job->trigger_vt = now;
  job->ready_vt = now + cfg_.retrain_cost_us;
  job->version = next_version_++;
  rtrace::record(rtrace::EventKind::kRetrainStart, now, rtrace::kNoRequest,
                 job->version, 0, milli(detector_.drift_score()));
  events_.push_back(LifecycleEvent{now, EventKind::kRetrainStart, job->version,
                                   detector_.drift_score()});

  std::vector<std::uint64_t> snapshot(replay_.begin(), replay_.end());
  RetrainJob* raw = job.get();
  job->worker = std::thread(
      [this, raw, baseline = current_, snap = std::move(snapshot)]() mutable {
        run_retrain(raw, std::move(baseline), std::move(snap));
      });
  job_ = std::move(job);
}

void Manager::run_retrain(RetrainJob* job,
                          std::shared_ptr<const model::HdcClassifier> baseline,
                          std::vector<std::uint64_t> replay_snapshot) {
  GENERIC_SPAN("lifecycle.retrain");
  // Newest `holdout` canaries validate; everything older trains. The split
  // is by recency so validation measures the model on the CURRENT regime.
  const std::size_t holdout_n = cfg_.holdout;
  const std::size_t train_n = replay_snapshot.size() - holdout_n;

  std::vector<hdc::IntHV> train_x;
  std::vector<int> train_y;
  train_x.reserve(train_n);
  train_y.reserve(train_n);
  for (std::size_t i = 0; i < train_n; ++i) {
    const std::uint64_t q = replay_snapshot[i];
    train_x.push_back(queries_[q]);
    train_y.push_back(static_cast<int>(labels_[q]));
  }
  std::vector<hdc::IntHV> hold_x;
  std::vector<int> hold_y;
  hold_x.reserve(holdout_n);
  hold_y.reserve(holdout_n);
  for (std::size_t i = train_n; i < replay_snapshot.size(); ++i) {
    const std::uint64_t q = replay_snapshot[i];
    hold_x.push_back(queries_[q]);
    hold_y.push_back(static_cast<int>(labels_[q]));
  }

  auto shadow = std::make_shared<model::HdcClassifier>(*baseline);
  std::size_t updates = 0;
  for (std::size_t e = 0; e < cfg_.retrain_epochs; ++e) {
    const std::size_t u = shadow->retrain_epoch_parallel(train_x, train_y, pool_);
    updates += u;
    if (u == 0) break;
  }
  job->updates = updates;

  if (cfg_.shadow_fault_rate > 0.0) {
    // Test hook for the validation gate: corrupt the freshly retrained
    // shadow the way voltage over-scaling would, then let validation decide.
    Rng rng(cfg_.seed ^ (0x9E3779B97F4A7C15ULL * job->version));
    resilience::inject(
        *shadow,
        resilience::FaultSpec{resilience::FaultKind::kTransient,
                              cfg_.shadow_fault_rate},
        rng);
  }

  // Validate on the holdout at EVERY serving rung: the shadow must hold up
  // under dimension reduction too, or the SLO ladder would trade accuracy
  // it does not know it lost.
  const std::size_t chunk = baseline->dims() / baseline->num_chunks();
  job->rung_dims = serve::dims_ladder(baseline->dims(), chunk, cfg_.min_dims);
  bool passed = true;
  for (const std::size_t dims : job->rung_dims) {
    const auto sp = shadow->predict_reduced_margin_batch(
        hold_x, dims, model::NormMode::kUpdated, pool_);
    const auto bp = baseline->predict_reduced_margin_batch(
        hold_x, dims, model::NormMode::kUpdated, pool_);
    std::size_t s_ok = 0, b_ok = 0;
    for (std::size_t i = 0; i < hold_y.size(); ++i) {
      if (sp[i].cls == hold_y[i]) ++s_ok;
      if (bp[i].cls == hold_y[i]) ++b_ok;
    }
    const double n = static_cast<double>(hold_y.size());
    const double s_acc = static_cast<double>(s_ok) / n;
    const double b_acc = static_cast<double>(b_ok) / n;
    job->shadow_accuracy.push_back(s_acc);
    job->baseline_accuracy.push_back(b_acc);
    if (s_acc + cfg_.epsilon < b_acc) passed = false;
  }
  job->passed = passed;
  job->shadow = std::move(shadow);
}

LifecycleReport Manager::report() const {
  LifecycleReport r;
  r.config = cfg_;
  r.observations = detector_.observations();
  r.canaries = detector_.canaries();
  r.replay_size = replay_.size();
  r.margin_ewma = detector_.margin_ewma();
  r.accuracy_ewma = detector_.accuracy_ewma();
  r.peak_accuracy = detector_.peak_accuracy();
  r.drift_score = detector_.drift_score();
  r.alarms = alarms_;
  r.triggered = triggered_;
  r.swapped = swapped_;
  r.rolled_back = rolled_back_;
  r.accuracy_ewma_at_trigger = accuracy_ewma_at_trigger_;
  r.final_accuracy_ewma = detector_.accuracy_ewma();
  r.events = events_;
  r.versions = versions_;
  if (store_) {
    r.checkpoints_saved = store_->saved();
    r.checkpoints_pruned = store_->pruned();
    r.checkpoints_quarantined = store_->quarantined();
  }
  return r;
}

std::string lifecycle_report_to_json(const LifecycleReport& report) {
  // Field order is part of the schema: equal reports render to equal bytes.
  // cfg.threads is deliberately NOT echoed — the report must be
  // byte-identical across --threads.
  const LifecycleConfig& c = report.config;
  std::string out = "{\n";
  out += "  \"schema\": \"generic.lifecycle.v1\",\n";
  out += "  \"config\": {\n";
  out += "    \"drift\": {\"margin_alpha\": " +
         obs::json_number(c.drift.margin_alpha) +
         ", \"accuracy_alpha\": " + obs::json_number(c.drift.accuracy_alpha) +
         ", \"warmup\": " + std::to_string(c.drift.warmup) +
         ", \"canary_warmup\": " + std::to_string(c.drift.canary_warmup) +
         ", \"ph_delta\": " + obs::json_number(c.drift.ph_delta) +
         ", \"ph_lambda\": " + obs::json_number(c.drift.ph_lambda) +
         ", \"accuracy_drop\": " + obs::json_number(c.drift.accuracy_drop) +
         "},\n";
  out += "    \"replay_capacity\": " + std::to_string(c.replay_capacity) +
         ",\n    \"replay_class_cap\": " + std::to_string(c.replay_class_cap) +
         ",\n    \"holdout\": " + std::to_string(c.holdout) +
         ",\n    \"min_replay\": " + std::to_string(c.min_replay) +
         ",\n    \"min_fresh\": " + std::to_string(c.min_fresh) +
         ",\n    \"retrain_epochs\": " + std::to_string(c.retrain_epochs) +
         ",\n    \"retrain_cost_us\": " + std::to_string(c.retrain_cost_us) +
         ",\n    \"cooldown_us\": " + std::to_string(c.cooldown_us) +
         ",\n    \"epsilon\": " + obs::json_number(c.epsilon) +
         ",\n    \"min_dims\": " + std::to_string(c.min_dims) +
         ",\n    \"initial_version\": " + std::to_string(c.initial_version) +
         ",\n    \"seed\": " + std::to_string(c.seed) +
         ",\n    \"shadow_fault_rate\": " +
         obs::json_number(c.shadow_fault_rate) + "\n";
  out += "  },\n";
  out += "  \"drift\": {\n";
  out += "    \"observations\": " + std::to_string(report.observations) +
         ",\n    \"canaries\": " + std::to_string(report.canaries) +
         ",\n    \"replay_size\": " + std::to_string(report.replay_size) +
         ",\n    \"margin_ewma\": " + obs::json_number(report.margin_ewma) +
         ",\n    \"accuracy_ewma\": " + obs::json_number(report.accuracy_ewma) +
         ",\n    \"peak_accuracy\": " + obs::json_number(report.peak_accuracy) +
         ",\n    \"drift_score\": " + obs::json_number(report.drift_score) +
         ",\n    \"alarms\": " + std::to_string(report.alarms) +
         ",\n    \"accuracy_ewma_at_trigger\": " +
         obs::json_number(report.accuracy_ewma_at_trigger) +
         ",\n    \"final_accuracy_ewma\": " +
         obs::json_number(report.final_accuracy_ewma) +
         "\n  },\n";
  out += "  \"retrains\": {\"triggered\": " + std::to_string(report.triggered) +
         ", \"swapped\": " + std::to_string(report.swapped) +
         ", \"rolled_back\": " + std::to_string(report.rolled_back) + "},\n";
  out += "  \"events\": [";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const LifecycleEvent& e = report.events[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"vt_us\": " + std::to_string(e.vt) + ", \"kind\": \"" +
           std::string(event_kind_name(e.kind)) +
           "\", \"version\": " + std::to_string(e.version) +
           ", \"drift_score\": " + obs::json_number(e.drift_score) + "}";
  }
  out += report.events.empty() ? "],\n" : "\n  ],\n";
  out += "  \"versions\": [";
  for (std::size_t i = 0; i < report.versions.size(); ++i) {
    const VersionRecord& v = report.versions[i];
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"version\": " + std::to_string(v.version) +
           ", \"source\": \"" + (v.from_retrain ? "retrain" : "initial") +
           "\", \"installed\": " + (v.installed ? "true" : "false") +
           ", \"vt_us\": " + std::to_string(v.vt) +
           ", \"updates\": " + std::to_string(v.updates) +
           ", \"rungs\": [";
    for (std::size_t r = 0; r < v.rung_dims.size(); ++r) {
      if (r != 0) out += ", ";
      out += "{\"dims\": " + std::to_string(v.rung_dims[r]) +
             ", \"holdout_accuracy\": " +
             obs::json_number(v.holdout_accuracy[r]) +
             ", \"baseline_accuracy\": " +
             obs::json_number(v.baseline_accuracy[r]) + "}";
    }
    out += "]}";
  }
  out += report.versions.empty() ? "],\n" : "\n  ],\n";
  out += "  \"checkpoints\": {\"saved\": " +
         std::to_string(report.checkpoints_saved) +
         ", \"pruned\": " + std::to_string(report.checkpoints_pruned) +
         ", \"quarantined\": " +
         std::to_string(report.checkpoints_quarantined) + "}\n";
  out += "}\n";
  return out;
}

}  // namespace generic::lifecycle
