// generic_fleet_client — the real-socket closed-loop client population
// (docs/fleet.md).
//
//   generic_fleet_client --port=P | --port-file=PATH
//                        [--quick] [--seed=S] [--io-timeout-ms=30000]
//
// Connects one TCP connection per configured (tenant, client) of the
// reference fleet topology — the SAME default_fleet_config(--quick) with
// the SAME --seed as the generic_fleet --listen server — and runs each
// client's seeded ClientModel over the framed protocol: HELLO with its
// (tenant, client) identity, read the HELLO_ACK query counts, then the
// closed loop (at most one request outstanding; the next virtual send time
// is computed client-side from the response's virtual finish plus a seeded
// think time) until the model is exhausted, then BYE.
//
// Because the trace model is identical to the simulator's, the server-side
// coordinator replays the simulated schedule exactly; CI compares the two
// reports byte for byte. Exit code: 0 when every client completed its loop
// with no protocol error.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/client_model.h"
#include "fleet/types.h"
#include "net/protocol.h"
#include "net/socket.h"

using namespace generic;

namespace {

/// Blocking framed connection: write whole frames, read until the parser
/// yields the next one. Any violation or EOF latches failed().
class FramedConn {
 public:
  explicit FramedConn(net::Fd fd) : fd_(std::move(fd)) {}

  bool send(const std::vector<std::uint8_t>& frame) {
    if (!fd_.valid()) return false;
    return net::write_all(fd_.get(), frame.data(), frame.size());
  }

  std::optional<net::Frame> recv() {
    for (;;) {
      if (parser_.failed()) return std::nullopt;
      if (auto f = parser_.next()) return f;
      std::uint8_t buf[4096];
      const std::ptrdiff_t n = net::read_some(fd_.get(), buf, sizeof(buf));
      if (n <= 0) return std::nullopt;  // EOF or error
      parser_.feed(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  net::Fd fd_;
  net::FrameParser parser_;
};

/// One closed-loop client: returns true on a clean full loop.
bool run_client(const fleet::FleetConfig& cfg, std::uint16_t port,
                std::uint16_t tenant, std::uint16_t client) {
  FramedConn conn(net::connect_loopback(port));

  net::Hello hello;
  hello.tenant = tenant;
  hello.client = client;
  std::vector<std::uint8_t> out;
  net::encode_hello(hello, out);
  if (!conn.send(out)) return false;

  auto ackf = conn.recv();
  if (!ackf || ackf->kind != net::FrameKind::kHelloAck) return false;
  net::HelloAck ack;
  if (net::decode_hello_ack(*ackf, ack) != net::ProtoError::kNone)
    return false;

  fleet::ClientModel model(cfg, tenant, client, ack.model_queries);
  const std::uint8_t priority =
      static_cast<std::uint8_t>(cfg.tenants[tenant].priority);

  std::optional<fleet::Send> send = model.start();
  while (send) {
    net::WireRequest req;
    req.id = send->id;
    req.send_us = send->send_us;
    req.model = send->model;
    req.priority = priority;
    req.deadline_rel_us = send->deadline_rel_us;
    req.query = send->query;
    out.clear();
    net::encode_request(req, out);
    if (!conn.send(out)) return false;

    auto rf = conn.recv();
    if (!rf || rf->kind != net::FrameKind::kResponse) return false;
    net::WireResponse wire;
    if (net::decode_response(*rf, wire) != net::ProtoError::kNone)
      return false;
    if (wire.id != send->id) return false;  // protocol is strictly in-order

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
  conn.send(out);  // best-effort; the server closes after BYE
  return true;
}

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::uint64_t seed = flags.size("--seed", 0xF1EE7);
  std::uint16_t port = static_cast<std::uint16_t>(flags.size("--port", 0));
  const std::string port_file = flags.value("--port-file", "");
  flags.done();

  if (port == 0 && !port_file.empty()) {
    std::ifstream f(port_file);
    unsigned p = 0;
    if (f >> p) port = static_cast<std::uint16_t>(p);
  }
  if (port == 0) {
    std::fprintf(stderr, "error: need --port or --port-file\n");
    return 2;
  }

  fleet::FleetConfig cfg = fleet::default_fleet_config(quick);
  cfg.seed = seed;

  // Thread-per-client: each runs its own blocking closed loop. The
  // server-side coordinator sequences them by virtual time, so wall-clock
  // interleaving here cannot change the schedule.
  std::atomic<std::size_t> failed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
    for (std::size_t c = 0; c < cfg.tenants[t].clients; ++c) {
      threads.emplace_back([&, t, c] {
        if (!run_client(cfg, port, static_cast<std::uint16_t>(t),
                        static_cast<std::uint16_t>(c)))
          ++failed;
      });
    }
  }
  for (auto& th : threads) th.join();

  if (failed.load() != 0) {
    std::fprintf(stderr, "error: %zu client loops failed\n", failed.load());
    return 1;
  }
  std::printf("all %zu client loops completed\n", threads.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(run, argc, argv); }
