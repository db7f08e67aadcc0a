// tenant_storm: the fleet's chaos campaign (docs/fleet.md, docs/chaos.md).
//
// One low-priority tenant ("bronze", batch class) floods the fleet at
// roughly 10x its admission quota — a dense client population with tiny
// think times, all pinned on the fastest model. The scenario pins the two
// fairness stories the fleet's admission pipeline exists to tell:
//
//   - the storm is REFUSED: most of the flood dies at the token bucket or
//     the weighted shed gate, never reaching a model engine;
//   - the victims are PROTECTED: the other tenants' served fraction,
//     accuracy and (for the critical tenant) p99 latency stay within the
//     bounds they enjoy in calm weather.
//
// Like every chaos campaign the run is pure virtual time: the report is a
// byte-stable function of (quick, seed), pinned by the golden fixture under
// tests/chaos/golden/tenant_storm.json and compared across --threads in CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "fleet/types.h"

namespace generic::fleet {

/// One invariant verdict, mirroring chaos::InvariantResult (kept local so
/// the fleet library does not depend on the chaos orchestrator).
struct StormInvariant {
  std::string name;
  bool enabled = false;
  bool passed = true;
  double value = 0.0;  ///< what the run measured
  double bound = 0.0;  ///< what the scenario demanded
};

struct StormReport {
  std::uint64_t seed = 0;
  bool quick = false;
  std::size_t flood_tenant = 0;  ///< index into fleet.config.tenants
  FleetReport fleet;
  std::vector<StormInvariant> invariants;
  bool passed = false;  ///< every enabled invariant held
};

/// The storm topology: default_fleet_config(quick) with the batch tenant
/// turned into a flood (6 clients, ~250us think, quota cut to 400 rps,
/// pinned on model 0) — offered load ~10x its admission quota.
FleetConfig tenant_storm_config(bool quick);

/// Run the campaign end to end on the simulated ingress path.
/// `threads` only changes wall-clock speed (0 = hardware).
StormReport run_tenant_storm(bool quick, std::uint64_t seed,
                             std::size_t threads);

/// Render as schema `generic.chaos.v1` (scenario "tenant_storm"): fixed
/// field order, obs::json_number doubles, no wall-clock or thread-count
/// fields.
std::string storm_report_to_json(const StormReport& report);

}  // namespace generic::fleet
