#include "fleet/tenant_storm.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "fleet/simulator.h"
#include "obs/export.h"

namespace generic::fleet {

FleetConfig tenant_storm_config(bool quick) {
  FleetConfig cfg = default_fleet_config(quick);
  // Turn the batch tenant into the storm: a dense client population with
  // tiny think times, all pinned on the fastest model. Offered load is
  // ~6 clients / ~250us ≈ 24000 rps — over 10x the 1000 rps quota. The
  // burst capacity (32 requests) is sized to blow straight past the
  // pinned model's 4 ms batch shed budget (~11 requests of projected
  // backlog), so the OPENING burst is absorbed by the weighted-shed gate,
  // and the SUSTAINED flood is capped by the token bucket once the burst
  // allowance is spent — both refusal mechanisms must visibly engage
  // while critical traffic rides its 64 ms budget untouched.
  TenantSpec& flood = cfg.tenants.back();
  flood.quota_rps = 1000;
  flood.quota_burst = 32;
  flood.clients = 6;
  flood.think_mean_us = 250;
  flood.requests_per_client = quick ? 80 : 200;
  flood.model_pin = 0;
  return cfg;
}

namespace {

double served_frac(const PartyStats& s) {
  return s.requests == 0 ? 1.0
                         : static_cast<double>(s.served) /
                               static_cast<double>(s.requests);
}

double accuracy(const PartyStats& s) {
  return s.served == 0 ? 0.0
                       : static_cast<double>(s.correct) /
                             static_cast<double>(s.served);
}

StormInvariant check_ge(const std::string& name, double value, double bound) {
  StormInvariant inv;
  inv.name = name;
  inv.enabled = true;
  inv.value = value;
  inv.bound = bound;
  inv.passed = value >= bound;
  return inv;
}

StormInvariant check_le(const std::string& name, double value, double bound) {
  StormInvariant inv;
  inv.name = name;
  inv.enabled = true;
  inv.value = value;
  inv.bound = bound;
  inv.passed = value <= bound;
  return inv;
}

}  // namespace

StormReport run_tenant_storm(bool quick, std::uint64_t seed,
                             std::size_t threads) {
  FleetConfig cfg = tenant_storm_config(quick);
  cfg.seed = seed;

  ThreadPool pool(threads);
  std::vector<ModelWorld> worlds;
  worlds.reserve(cfg.models.size());
  for (const ModelSpec& m : cfg.models) worlds.push_back(build_world(m, pool));

  FleetEngine fleet(cfg, std::move(worlds), pool);
  auto owned = make_sim_ports(cfg, fleet);
  std::vector<ClientPort*> ports;
  ports.reserve(owned.size());
  for (auto& p : owned) ports.push_back(p.get());
  run_closed_loop(fleet, ports);

  StormReport rep;
  rep.seed = seed;
  rep.quick = quick;
  rep.flood_tenant = cfg.tenants.size() - 1;
  rep.fleet = fleet.finish();

  // The storm is refused: the flood tenant's quota + weighted-shed refusal
  // fraction must dominate its request stream.
  const PartyStats& flood = rep.fleet.tenants[rep.flood_tenant];
  const double quota_frac =
      flood.requests == 0
          ? 0.0
          : static_cast<double>(flood.statuses[static_cast<std::size_t>(
                FleetStatus::kQuotaRejected)]) /
                static_cast<double>(flood.requests);
  const double shed_frac =
      flood.requests == 0
          ? 0.0
          : static_cast<double>(flood.statuses[static_cast<std::size_t>(
                FleetStatus::kPriorityShed)]) /
                static_cast<double>(flood.requests);
  rep.invariants.push_back(
      check_ge("flood_refused_frac", quota_frac + shed_frac, 0.60));
  // BOTH refusal mechanisms must engage: the token bucket caps the
  // sustained rate, and the weighted shed gate absorbs what leaks past it.
  rep.invariants.push_back(check_ge("flood_shed_frac", shed_frac, 0.10));

  // The victims are protected: every non-flood tenant keeps serving and
  // keeps answering correctly.
  double victim_served = 1.0;
  double victim_accuracy = 1.0;
  for (std::size_t t = 0; t < rep.fleet.tenants.size(); ++t) {
    if (t == rep.flood_tenant) continue;
    victim_served = std::min(victim_served, served_frac(rep.fleet.tenants[t]));
    victim_accuracy =
        std::min(victim_accuracy, accuracy(rep.fleet.tenants[t]));
  }
  rep.invariants.push_back(
      check_ge("victim_served_frac", victim_served, 0.90));
  rep.invariants.push_back(
      check_ge("victim_accuracy", victim_accuracy, 0.60));

  // The critical tenant's tail latency stays flat: priority budgets keep
  // the storm's backlog from ever reaching gold's admitted requests.
  const PartyStats& gold = rep.fleet.tenants[0];
  rep.invariants.push_back(check_le(
      "critical_p99_us", static_cast<double>(gold.latency.percentile(0.99)),
      static_cast<double>(cfg.models[0].serve.deadline_us * 2)));

  rep.passed = true;
  for (const StormInvariant& inv : rep.invariants)
    rep.passed = rep.passed && (!inv.enabled || inv.passed);
  return rep;
}

// ---- generic.chaos.v1 (scenario tenant_storm) -----------------------------

std::string storm_report_to_json(const StormReport& rep) {
  std::string out;
  out.reserve(1 << 13);
  out += "{\n  \"schema\": \"generic.chaos.v1\",\n";
  out += "  \"scenario\": \"tenant_storm\",\n";
  out += "  \"seed\": " + std::to_string(rep.seed) + ",\n";
  out += "  \"quick\": ";
  out += rep.quick ? "true" : "false";
  out += ",\n";
  out += "  \"flood_tenant\": \"" +
         rep.fleet.config.tenants[rep.flood_tenant].name + "\",\n";
  out += "  \"requests\": " + std::to_string(rep.fleet.requests) + ",\n";
  out += "  \"makespan_us\": " + std::to_string(rep.fleet.makespan_us) + ",\n";

  out += "  \"statuses\": {";
  for (std::size_t i = 0; i < kNumFleetStatuses; ++i) {
    out += i == 0 ? "" : ", ";
    out += '"';
    out += fleet_status_name(static_cast<FleetStatus>(i));
    out += "\": " + std::to_string(rep.fleet.statuses[i]);
  }
  out += "},\n";

  out += "  \"tenants\": [";
  for (std::size_t t = 0; t < rep.fleet.tenants.size(); ++t) {
    out += t == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + rep.fleet.config.tenants[t].name +
           "\", \"priority\": \"";
    out += priority_name(rep.fleet.config.tenants[t].priority);
    out += "\", \"stats\": ";
    append_party_json(out, rep.fleet.tenants[t], "    ");
    out += "}";
  }
  out += rep.fleet.tenants.empty() ? "],\n" : "\n  ],\n";

  out += "  \"invariants\": [";
  for (std::size_t i = 0; i < rep.invariants.size(); ++i) {
    const StormInvariant& inv = rep.invariants[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + inv.name + "\"";
    out += ", \"enabled\": ";
    out += inv.enabled ? "true" : "false";
    out += ", \"passed\": ";
    out += inv.passed ? "true" : "false";
    out += ", \"value\": ";
    out += obs::json_number(inv.value);
    out += ", \"bound\": ";
    out += obs::json_number(inv.bound);
    out += "}";
  }
  out += rep.invariants.empty() ? "],\n" : "\n  ],\n";

  out += "  \"passed\": ";
  out += rep.passed ? "true" : "false";
  out += "\n}\n";
  return out;
}

}  // namespace generic::fleet
