// Microbenchmark for the rtrace recorder's three cost regimes
// (obs/rtrace.h, docs/observability.md):
//   * record   — trace sink on: seq assignment + append to the trace log
//                (the cost a --rtrace run pays per lifecycle event)
//   * disabled — both sinks off: should be ~one relaxed load + branch,
//                the cost every *uninstrumented* run pays at each site
//   * wrap     — flight sink on with a tiny ring, so every record
//                overwrites the oldest slot (steady-state black-box cost)
//
// Numbers land in generic.metrics.v1 gauges when --metrics is given:
//   obs.rtrace.record_ns_per_event
//   obs.rtrace.disabled_ns_per_event
//   obs.rtrace.wrap_ns_per_event
//   obs.rtrace.events_per_rep
//
// Under -DGENERIC_OBS=OFF record() compiles to nothing; the bench still
// runs and reports the (near-zero) no-op cost, so the gauges stay
// comparable across build flavors.
#include <cstdio>

#include "bench/bench_util.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/rtrace.h"

using namespace generic;
namespace rtrace = obs::rtrace;

namespace {

/// ns per inner event, given `events_per_rep` record() calls per body().
template <typename F>
double measure_ns(F&& body, double events_per_rep, double target_s) {
  return bench::seconds_per_call(body, target_s) * 1e9 / events_per_rep;
}

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t events = flags.positive_size("--events", 4096);
  obs::Session session(flags.value("--trace", ""),
                       flags.value("--metrics", ""));
  flags.done();

  const double target_s = quick ? 0.05 : 0.4;
  const double per_rep = static_cast<double>(events);

  // A body of `events` records keeps loop overhead amortised and, for the
  // trace phase, stays far under kMaxTraceEvents between resets.
  auto burst = [&](std::uint64_t base) {
    for (std::size_t i = 0; i < events; ++i)
      rtrace::record(rtrace::EventKind::kPredict, base + i, i, 1, 0,
                     static_cast<std::int64_t>(i));
  };

  // record: trace sink on. Reset between timing reps is not possible (the
  // rep loop lives inside measure_ns), so rely on the log's drop-past-cap
  // path being the same append cost either way, and reset around the phase.
  rtrace::reset();
  rtrace::set_trace(true);
  rtrace::set_flight(false);
  const double record_ns = measure_ns([&] { burst(0); }, per_rep, target_s);
  const std::uint64_t recorded = rtrace::trace_log().events.size();
  rtrace::reset();

  // disabled: both sinks off — the cost at every instrumented call site in
  // an uninstrumented run (~one relaxed load + branch, or pure no-op when
  // built with -DGENERIC_OBS=OFF).
  rtrace::set_trace(false);
  rtrace::set_flight(false);
  const double disabled_ns = measure_ns([&] { burst(0); }, per_rep, target_s);

  // wrap: flight ring only, capacity far below the burst size so (nearly)
  // every record overwrites the oldest slot — the black box at cruise.
  rtrace::reset();
  rtrace::set_flight_capacity(64);
  rtrace::set_flight(true);
  const double wrap_ns = measure_ns([&] { burst(0); }, per_rep, target_s);
  rtrace::set_flight(false);
  rtrace::reset();
  rtrace::set_flight_capacity(rtrace::kDefaultFlightCapacity);

  std::printf("obs_overhead: %zu events/rep (obs %s)\n", events,
              GENERIC_OBS_ENABLED ? "on" : "off");
  bench::print_rule(48);
  std::printf("%-26s %12.2f ns/event\n", "record (trace sink)", record_ns);
  std::printf("%-26s %12.2f ns/event\n", "disabled (sinks off)", disabled_ns);
  std::printf("%-26s %12.2f ns/event\n", "wrap (flight ring)", wrap_ns);
  std::printf("trace log kept %llu events in the timed phase\n",
              static_cast<unsigned long long>(recorded));

  bench::set_gauge("obs.rtrace.record_ns_per_event", record_ns);
  bench::set_gauge("obs.rtrace.disabled_ns_per_event", disabled_ns);
  bench::set_gauge("obs.rtrace.wrap_ns_per_event", wrap_ns);
  bench::set_gauge("obs.rtrace.events_per_rep", per_rep);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
