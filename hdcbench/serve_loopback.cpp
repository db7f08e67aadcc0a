// serve_loopback: the fleet behind a real loopback TCP server, driven by
// closed-loop client connections from this process. Requests carry query
// indices, so the encoder never runs on this path.
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "fleet/client_model.h"
#include "fleet/engine.h"
#include "fleet/simulator.h"
#include "fleet/socket_driver.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"

namespace hdcbench {
namespace {

using namespace generic;

constexpr std::size_t kPoolLanes = 1;  // the fleet tools' default --threads
constexpr int kIoTimeoutMs = 20000;    // bounds every wait on a silent peer
constexpr int kSetupReps = 3;
constexpr int kTwinRuns = 16;          // twin timings in traced runs, 2 per stream
constexpr std::size_t kTrafficVariants = 8;

/// default_fleet_config(false) trimmed to four closed-loop clients (at most
/// nproc on a 4-core host), with every seed derived from the workload seed.
/// `traffic` picks one of several client traffic streams over the same
/// model worlds: the worlds depend on `seed` alone.
fleet::FleetConfig bench_config(std::uint64_t seed, std::uint64_t traffic) {
  fleet::FleetConfig cfg = fleet::default_fleet_config(false);
  const std::size_t clients[] = {1, 2, 1};  // gold, silver, bronze
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    cfg.tenants[t].clients = clients[t];
  cfg.seed ^= seed * 0x9E3779B97F4A7C15ull + traffic * 0xBF58476D1CE4E5B9ull;
  for (fleet::ModelSpec& m : cfg.models) {
    m.world_seed += seed;
    m.serve.seed = cfg.seed ^ m.world_seed;
  }
  return cfg;
}

/// One closed-loop client connection: HELLO, then the seeded ClientModel's
/// requests one at a time, then BYE. Times every round trip on the process
/// CPU clock (see run_serve_loopback); the spans of traced sessions are on
/// the wall clock.
struct Client {
  std::uint16_t tenant = 0, client = 0;
  Lane* lane = nullptr;  ///< traced sessions only
  std::vector<double> rtt_ns;  ///< process CPU time per round trip
  std::uint64_t sent = 0, received = 0;
  std::string error;

  void run(const fleet::FleetConfig& cfg, std::uint16_t port) {
    net::Fd fd = net::connect_loopback(port);
    if (!fd.valid()) {
      error = "connect failed";
      return;
    }
    const timeval tv{kIoTimeoutMs / 1000, 0};
    setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    net::FrameParser parser;
    std::uint8_t buf[4096];
    // Blocking read until the next frame; `read_end` gets the time the
    // last read returned.
    auto recv = [&](std::int64_t& read_end) -> std::optional<net::Frame> {
      for (;;) {
        if (parser.failed()) return std::nullopt;
        if (auto f = parser.next()) return f;
        const std::ptrdiff_t n = net::read_some(fd.get(), buf, sizeof(buf));
        read_end = now_ns();
        if (n <= 0) return std::nullopt;
        parser.feed(buf, static_cast<std::size_t>(n));
      }
    };
    std::vector<std::uint8_t> out;
    net::Hello hello;
    hello.tenant = tenant;
    hello.client = client;
    net::encode_hello(hello, out);
    std::int64_t t_read = 0;
    net::HelloAck ack;
    if (!net::write_all(fd.get(), out.data(), out.size())) {
      error = "HELLO write failed";
      return;
    }
    const auto ackf = recv(t_read);
    if (!ackf || ackf->kind != net::FrameKind::kHelloAck ||
        net::decode_hello_ack(*ackf, ack) != net::ProtoError::kNone) {
      error = "no valid HELLO_ACK";
      return;
    }

    fleet::ClientModel model(cfg, tenant, client, ack.model_queries);
    const auto priority = static_cast<std::uint8_t>(cfg.tenants[tenant].priority);
    for (std::optional<fleet::Send> send = model.start(); send;) {
      net::WireRequest req;
      req.id = send->id;
      req.send_us = send->send_us;
      req.model = send->model;
      req.priority = priority;
      req.deadline_rel_us = send->deadline_rel_us;
      req.query = send->query;
      out.clear();
      net::encode_request(req, out);

      const std::int64_t c0 = cpu_ns(), t0 = now_ns();
      const bool wrote = net::write_all(fd.get(), out.data(), out.size());
      const std::int64_t t1 = now_ns();
      ++sent;
      const auto rf = wrote ? recv(t_read) : std::nullopt;
      net::WireResponse wire;
      const bool ok = rf && rf->kind == net::FrameKind::kResponse &&
                      net::decode_response(*rf, wire) == net::ProtoError::kNone &&
                      wire.id == send->id;
      const std::int64_t t2 = now_ns(), c2 = cpu_ns();
      if (!ok) {
        error = "request " + std::to_string(send->id) + " got no valid response";
        return;
      }
      // The first request is written before the closed loop starts, so its
      // round trip also holds the start barrier's wait for the other
      // clients; only round trips timed inside the loop are sampled.
      if (++received > 1) {
        rtt_ns.push_back(static_cast<double>(c2 - c0));
        if (lane) {
          const std::uint64_t op = lane->next_op();
          const std::int64_t root = lane->add("serve.request", op, -1, t0, t2);
          lane->add("net.client_write", op, root, t0, t1);
          lane->add("net.client_wait", op, root, t1, t_read);
          lane->add("net.frame_parse", op, root, t_read, t2);
        }
      }

      fleet::FleetResponse resp;
      resp.id = wire.id;
      resp.status = static_cast<fleet::FleetStatus>(wire.status);
      resp.predicted = wire.predicted;
      resp.margin_micro = wire.margin_micro;
      resp.dims_used = wire.dims_used;
      resp.attempts = wire.attempts;
      resp.finish_us = wire.finish_us;
      resp.latency_us = wire.latency_us;
      resp.version = wire.version;
      resp.rung = wire.rung;
      send = model.on_response(resp);
    }
    out.clear();
    net::encode_bye(out);
    if (!net::write_all(fd.get(), out.data(), out.size())) error = "BYE write failed";
  }
};

/// One pass of the configured closed loop over the socket: a fresh
/// FleetEngine and one connection per client. start() returns once every
/// client is connected, handshaken and has its first request in.
class SocketSession {
 public:
  SocketSession(const fleet::FleetConfig& cfg,
                const std::vector<fleet::ModelWorld>& worlds, ThreadPool& pool,
                net::Server& server, const std::vector<Lane*>& lanes)
      : cfg_(cfg), server_(server), engine_(cfg, worlds, pool),
        driver_(server, cfg, kIoTimeoutMs) {
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
      for (std::size_t c = 0; c < cfg.tenants[t].clients; ++c) {
        Client cl;
        cl.tenant = static_cast<std::uint16_t>(t);
        cl.client = static_cast<std::uint16_t>(c);
        cl.lane = lanes.empty() ? nullptr : lanes[clients_.size()];
        clients_.push_back(std::move(cl));
      }
  }
  ~SocketSession() { join(); }
  SocketSession(const SocketSession&) = delete;
  SocketSession& operator=(const SocketSession&) = delete;

  bool start() {
    for (Client& c : clients_)
      threads_.emplace_back([this, &c] { c.run(cfg_, server_.port()); });
    return driver_.wait_ready(kIoTimeoutMs);
  }

  /// Run the closed loop to the end; returns its process CPU time in ns.
  double run() {
    const std::uint64_t encoded0 = encoded_samples();
    const std::int64_t c0 = cpu_ns();
    start_ns_ = now_ns();
    delivered_ = fleet::run_closed_loop(engine_, driver_.ports());
    wall_ns_ = static_cast<double>(now_ns() - start_ns_);
    const std::int64_t c1 = cpu_ns();
    join();
    report_ = engine_.finish();
    encoded_ = encoded_samples() - encoded0;
    return static_cast<double>(c1 - c0);
  }

  void join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  /// Every way the socket run can disagree with the in-process twin or
  /// lose a response; empty when the session is clean.
  std::string check(const std::string& twin_json) const {
    if (!driver_.ok()) return "socket driver reported a failed peer";
    std::uint64_t sent = 0, received = 0;
    for (const Client& c : clients_) {
      if (!c.error.empty()) return "client: " + c.error;
      sent += c.sent;
      received += c.received;
    }
    if (sent != received || received != delivered_ || delivered_ != report_.requests)
      return "responses do not match requests one to one";
    if (encoded_ != 0) return "the encoder ran during the closed loop";
    if (fleet::fleet_report_to_json(report_) != twin_json)
      return "generic.fleet.v1 report differs from the in-process twin";
    return {};
  }

  std::uint64_t requests() const { return report_.requests; }
  std::int64_t start_ns() const { return start_ns_; }
  double wall_ns() const { return wall_ns_; }  ///< of the last run()
  std::uint64_t encoded() const { return encoded_; }
  const std::vector<Client>& clients() const { return clients_; }

 private:
  const fleet::FleetConfig& cfg_;
  net::Server& server_;
  fleet::FleetEngine engine_;
  fleet::SocketFleetDriver driver_;
  std::vector<Client> clients_;
  std::vector<std::thread> threads_;
  std::size_t delivered_ = 0;
  std::int64_t start_ns_ = 0;
  double wall_ns_ = 0.0;
  std::uint64_t encoded_ = 0;  ///< samples the library encoded during run()
  fleet::FleetReport report_;
};

/// The in-process twin: the same closed loop with SimClientPorts.
/// `cpu_ns_out` gets the loop's process CPU time.
fleet::FleetReport run_twin(const fleet::FleetConfig& cfg,
                            const std::vector<fleet::ModelWorld>& worlds,
                            ThreadPool& pool, double* cpu_ns_out = nullptr) {
  fleet::FleetEngine engine(cfg, worlds, pool);
  auto owned = fleet::make_sim_ports(cfg, engine);
  std::vector<fleet::ClientPort*> ports;
  for (auto& p : owned) ports.push_back(p.get());
  const std::int64_t c0 = cpu_ns();
  fleet::run_closed_loop(engine, ports);
  if (cpu_ns_out) *cpu_ns_out = static_cast<double>(cpu_ns() - c0);
  return engine.finish();
}

}  // namespace

Result run_serve_loopback(const RunConfig& rc) {
  // One CPU for every thread of the run. The closed loop hands each request
  // across four or more threads (client, coordinator, engine control
  // thread); left to migrate over the host's CPUs, cross-CPU wakeups made
  // run-to-run throughput vary threefold, so the figure measures the
  // request path's CPU cost on one core instead. Every time below is read
  // from the process CPU clock: pinned, the run keeps its CPU busy, so that
  // clock advances with the wall clock except while the hypervisor or
  // another process holds the CPU, which a run cannot escape once pinned.
  pin_to_last_cpus(1);
  // SCHED_BATCH, inherited by every thread created below: a woken thread
  // waits for the running one to block instead of preempting it, so a
  // request passes between threads in the order of its path, one switch
  // per hand-off. Without it a request took ~10 switches, a third of them
  // preemptions whose timing varied from run to run; with it, 6.
  sched_param batch{};
  if (sched_setscheduler(0, SCHED_BATCH, &batch) != 0)
    throw std::runtime_error("cannot set SCHED_BATCH");
  Result res;
  // Passes cycle through several traffic streams, so that a run's round
  // trips mix as many closed-loop schedules and no single schedule's
  // latency steps set the percentiles.
  std::vector<fleet::FleetConfig> cfgs;
  for (std::size_t v = 0; v < kTrafficVariants; ++v) cfgs.push_back(bench_config(rc.seed, v));
  const fleet::FleetConfig& cfg = cfgs[0];
  ThreadPool pool(kPoolLanes);
  std::vector<fleet::ModelWorld> worlds;
  std::unique_ptr<net::Server> server;
  std::vector<fleet::FleetReport> twins(kTrafficVariants);
  std::vector<std::string> twin_json(kTrafficVariants);
  auto run_checked = [&](SocketSession& s, std::size_t v) {
    const double ns = s.run();  // process CPU time
    res.attempted += s.requests();
    if (const std::string why = s.check(twin_json[v]); !why.empty()) res.fail(s.requests(), why);
    return ns;
  };
  // Set-up: build every model's world, listen, connect and handshake, up to
  // the closed loop's start barrier. Each repetition's session then runs
  // untimed as a checked warm-up; the last repetition's server is kept.
  std::vector<double> setup_ns;
  for (int r = 0; r < kSetupReps; ++r) {
    server.reset();
    worlds.clear();
    const std::int64_t c0 = cpu_ns();
    for (const fleet::ModelSpec& m : cfg.models)
      worlds.push_back(fleet::build_world(m, pool));
    net::ServerConfig scfg;
    scfg.num_tenants = cfg.tenants.size();
    for (const fleet::ModelWorld& w : worlds)
      scfg.model_queries.push_back(static_cast<std::uint32_t>(w.queries.size()));
    server = std::make_unique<net::Server>(scfg);
    if (!server->listening()) throw std::runtime_error("cannot listen on loopback");
    SocketSession warmup(cfg, worlds, pool, *server, {});
    if (!warmup.start()) throw std::runtime_error("clients not ready in time");
    setup_ns.push_back(static_cast<double>(cpu_ns() - c0));
    for (std::size_t v = 0; v < kTrafficVariants; ++v) {
      twins[v] = run_twin(cfgs[v], worlds, pool);
      twin_json[v] = fleet::fleet_report_to_json(twins[v]);
    }
    run_checked(warmup, 0);
  }

  Tracer tracer;
  Lane& server_lane = tracer.lane();
  std::vector<Lane*> client_lanes;
  for (const fleet::TenantSpec& t : cfg.tenants)
    for (std::size_t c = 0; c < t.clients; ++c) client_lanes.push_back(&tracer.lane());

  std::vector<Window> windows(1);  // untraced sessions, ~1 s of loop each
  double loop_ns[2] = {0.0, 0.0}, responses[2] = {0.0, 0.0};
  double wall_ns[2] = {0.0, 0.0}, busy_ns = 0.0, encoded = 0.0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(rc.seconds * 1e9);
  std::size_t passes[2] = {0, 0};
  for (int i = 0; now_ns() < deadline && res.failed == 0; ++i) {
    const bool traced = rc.trace && i % 2 == 1;
    const std::size_t v = passes[traced]++ % kTrafficVariants;
    SocketSession s(cfgs[v], worlds, pool, *server, traced ? client_lanes : std::vector<Lane*>{});
    if (!s.start()) {
      res.fail(1, "clients not ready in time");
      break;
    }
    const double busy0 = pool_busy_ns(pool.stats());
    const double ns = run_checked(s, v);
    loop_ns[traced] += ns;
    wall_ns[traced] += s.wall_ns();
    responses[traced] += static_cast<double>(s.requests());
    encoded += static_cast<double>(s.encoded());
    if (traced) {
      const std::uint64_t op = server_lane.next_op();
      server_lane.add("fleet.socket_closed_loop", op, -1, s.start_ns(),
                      s.start_ns() + static_cast<std::int64_t>(s.wall_ns()));
      busy_ns += pool_busy_ns(pool.stats()) - busy0;
      continue;
    }
    Window& w = windows.back();
    w.ops += static_cast<double>(s.requests());
    w.wall_ns += ns;
    for (const Client& c : s.clients())
      w.lat_ns.insert(w.lat_ns.end(), c.rtt_ns.begin(), c.rtt_ns.end());
    if (w.wall_ns >= static_cast<double>(kWindowNs)) windows.emplace_back();
  }
  if (server->stats().protocol_errors != 0)
    res.fail(server->stats().protocol_errors, "protocol errors on the socket path");

  if (!rc.trace) {
    double correct = 0.0, requests = 0.0;
    for (const fleet::FleetReport& twin : twins) {
      for (const fleet::PartyStats& t : twin.tenants) correct += static_cast<double>(t.correct);
      requests += static_cast<double>(twin.requests);
    }
    res.set("setup_s", median(setup_ns) / 1e9);
    const WindowMedians wm = window_medians(windows);
    res.set("samples_per_s", wm.per_s);
    res.set("latency_p50_us", wm.p50_us);
    res.set("latency_p99_us", wm.p99_us);
    res.set("accuracy", frac(correct, requests));
    res.set("peak_rss_mb", peak_rss_mb());
    return res;
  }

  std::vector<double> twin_ns_per_req;
  for (int r = 0; r < kTwinRuns; ++r) {
    double ns = 0.0;
    const std::int64_t t0 = now_ns();
    const fleet::FleetReport rep = run_twin(cfgs[r % kTrafficVariants], worlds, pool, &ns);
    twin_ns_per_req.push_back(ns / static_cast<double>(rep.requests));
    server_lane.add("fleet.twin_closed_loop", server_lane.next_op(), -1, t0, now_ns());
  }
  const double twin_us = median(twin_ns_per_req) / 1e3;
  const double socket_us = frac(loop_ns[0], responses[0]) / 1e3;
  res.set("encoding.calls", encoded);
  res.set("fleet.sim_us_per_req", twin_us);
  res.set("net.ingress_us_per_req", socket_us - twin_us);
  res.set("net.client_write_us", tracer.totals("net.client_write").mean_ns() / 1e3);
  res.set("net.client_wait_us", tracer.totals("net.client_wait").mean_ns() / 1e3);
  res.set("net.frame_parse_ns", tracer.totals("net.frame_parse").mean_ns());
  res.set("common.pool_busy_frac", frac(busy_ns, wall_ns[1] * static_cast<double>(kPoolLanes)));
  res.set("bench.cpu_wall_frac", frac(loop_ns[0], wall_ns[0]));
  // Counts over the twins of every traffic stream.
  const auto status = [&](fleet::FleetStatus s) {
    double n = 0.0;
    for (const fleet::FleetReport& twin : twins)
      n += static_cast<double>(twin.statuses[static_cast<std::size_t>(s)]);
    return n;
  };
  double served = 0.0, bytes = 0.0;
  for (const fleet::FleetReport& twin : twins)
    for (std::size_t m = 0; m < twin.models.size(); ++m) {
      served += static_cast<double>(twin.models[m].served);
      bytes += static_cast<double>(twin.models[m].served) * score_bytes(*worlds[m].classifier);
    }
  res.set("fleet.served", served);
  res.set("fleet.quota_rejected", status(fleet::FleetStatus::kQuotaRejected));
  res.set("fleet.priority_shed", status(fleet::FleetStatus::kPriorityShed));
  res.set("serve.degraded", status(fleet::FleetStatus::kDegraded));
  res.set("model.score_bytes_per_query", frac(bytes, served));

  // Calibration evidence: the engine's modeled service time beside a
  // measured full-dimension score of the same model, batch for batch.
  for (std::size_t m = 0; m < cfg.models.size(); ++m) {
    const fleet::ModelSpec& spec = cfg.models[m];
    const fleet::ModelWorld& w = worlds[m];
    const std::size_t batch = spec.serve.compute_batch;
    std::vector<double> per_query_ns;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      for (std::size_t b = 0; b < w.queries.size(); b += batch) {
        const std::size_t e = std::min(w.queries.size(), b + batch);
        const auto preds = w.classifier->predict_reduced_margin_batch(
            std::span<const hdc::IntHV>(w.queries).subspan(b, e - b), spec.dims,
            model::NormMode::kUpdated, pool);
        if (preds.size() != e - b) res.fail(1, "short prediction batch");
      }
      per_query_ns.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(w.queries.size()));
    }
    res.set("serve." + spec.id + ".measured_score_us", median(per_query_ns) / 1e3);
    res.set("serve." + spec.id + ".modeled_service_us",
            static_cast<double>(spec.serve.service_base_us));
  }
  res.set("bench.trace_overhead_frac",
          frac(frac(loop_ns[1], responses[1]), frac(loop_ns[0], responses[0])) - 1.0);
  res.set("bench.attributed_frac", tracer.attributed_frac("serve.request"));
  if (!rc.trace_out.empty() && !tracer.write_json(rc.trace_out, "serve_loopback", rc.seed))
    res.fail(0, "cannot write " + rc.trace_out);
  return res;
}

}  // namespace hdcbench
