#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace generic::obs {
namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

/// `"key": value` map body from sorted (name, value) pairs.
void append_u64_map(
    std::string& out,
    const std::vector<std::pair<std::string, std::uint64_t>>& values) {
  out += "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": " + std::to_string(v);
  }
  if (!first) out += "\n  ";
  out += "}";
}

const StageStats* find_stage(const MetricsSnapshot& snap,
                             std::string_view name) {
  for (const auto& [n, s] : snap.stages)
    if (n == name) return &s;
  return nullptr;
}

std::uint64_t find_counter(const MetricsSnapshot& snap,
                           std::string_view name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          // The cast matters: a plain (possibly signed) char sign-extends
          // through %x and renders 8-digit garbage instead of \u00XX.
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.close();
  if (!f) throw std::runtime_error("write failed: " + path);
}

ChromeTraceWriter::ChromeTraceWriter(std::size_t reserve_bytes) {
  out_.reserve(reserve_bytes);
  out_ += "{\n\"traceEvents\": [\n";
}

void ChromeTraceWriter::next_event() {
  out_ += first_ ? "" : ",\n";
  first_ = false;
}

void ChromeTraceWriter::track(std::uint64_t tid, std::string_view name) {
  next_event();
  out_ += "{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
          ", \"name\": \"thread_name\", \"args\": {\"name\": ";
  append_json_string(out_, name);
  out_ += "}}";
}

void ChromeTraceWriter::slice(std::uint64_t tid, std::string_view name,
                              std::string_view cat, std::string_view ts,
                              std::string_view dur, std::string_view args) {
  next_event();
  out_ += "{\"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
          ", \"name\": ";
  append_json_string(out_, name);
  out_ += ", \"cat\": ";
  append_json_string(out_, cat);
  out_ += ", \"ts\": ";
  out_ += ts;
  out_ += ", \"dur\": ";
  out_ += dur;
  if (!args.empty()) {
    out_ += ", \"args\": {";
    out_ += args;
    out_ += "}";
  }
  out_ += "}";
}

void ChromeTraceWriter::event(std::string_view object) {
  next_event();
  out_ += object;
}

std::string ChromeTraceWriter::finish(std::string_view other_data) {
  out_ += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  out_ += other_data;
  out_ += "}\n}\n";
  return std::move(out_);
}

MetricsSnapshot collect_metrics() {
  Registry& reg = Registry::instance();
  MetricsSnapshot snap;
  snap.wall_time_s = ns_to_s(reg.now_ns());
  snap.peak_rss_bytes = peak_rss_bytes();
  snap.dropped_spans = reg.dropped_spans();
  snap.counters = reg.counter_values();
  snap.gauges = reg.gauge_values();
  snap.histograms = reg.histogram_values();
  snap.stages = reg.stage_stats();
  return snap;
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(2048);
  out += "{\n";
  out += "  \"schema\": \"generic.metrics.v1\",\n";
  out += std::string("  \"obs_enabled\": ") +
         (snap.enabled ? "true" : "false") + ",\n";
  out += "  \"wall_time_s\": ";
  out += json_number(snap.wall_time_s);
  out += ",\n  \"peak_rss_bytes\": " + std::to_string(snap.peak_rss_bytes);
  out += ",\n  \"dropped_spans\": " + std::to_string(snap.dropped_spans);

  out += ",\n  \"counters\": ";
  append_u64_map(out, snap.counters);
  out += ",\n  \"gauges\": ";
  append_u64_map(out, snap.gauges);

  // Histograms render their summary first (count/sum/percentiles) and then
  // only the occupied buckets as {"bit_width": count}, so sparse
  // distributions stay compact while the full shape remains recoverable.
  out += ",\n  \"histograms\": {";
  {
    bool first_h = true;
    for (const auto& [name, h] : snap.histograms) {
      out += first_h ? "\n" : ",\n";
      first_h = false;
      out += "    ";
      append_json_string(out, name);
      out += ": {\"count\": " + std::to_string(h.count);
      out += ", \"sum\": " + std::to_string(h.sum);
      out += ", \"p50\": " + std::to_string(h.percentile(0.50));
      out += ", \"p95\": " + std::to_string(h.percentile(0.95));
      out += ", \"p99\": " + std::to_string(h.percentile(0.99));
      out += ", \"buckets\": {";
      bool first_b = true;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        out += first_b ? "" : ", ";
        first_b = false;
        out += '"';
        out += std::to_string(i);
        out += "\": ";
        out += std::to_string(h.buckets[i]);
      }
      out += "}}";
    }
    if (!first_h) out += "\n  ";
  }
  out += "}";

  out += ",\n  \"stages\": [";
  for (std::size_t i = 0; i < snap.stages.size(); ++i) {
    const auto& [name, s] = snap.stages[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(out, name);
    out += ", \"calls\": " + std::to_string(s.calls);
    out += ", \"total_s\": ";
    out += json_number(ns_to_s(s.total_ns));
    out += ", \"mean_s\": ";
    out += json_number(s.calls == 0 ? 0.0
                                    : ns_to_s(s.total_ns) /
                                          static_cast<double>(s.calls));
    out += ", \"min_s\": ";
    out += json_number(ns_to_s(s.min_ns));
    out += ", \"max_s\": ";
    out += json_number(ns_to_s(s.max_ns));
    out += "}";
  }
  out += snap.stages.empty() ? "]" : "\n  ]";

  // Derived throughput: emitted only when both the counter and the stage
  // that times it are present, so consumers can rely on presence == valid.
  struct Derived {
    const char* key;
    const char* counter;
    const char* stage;
  };
  static constexpr Derived kDerived[] = {
      {"encode.samples_per_s", "encode.samples", "encode.batch"},
      {"predict.queries_per_s", "predict.queries", "predict.batch"},
      {"train.samples_per_s", "train.samples", "train.batch"},
      {"campaign.trials_per_s", "campaign.trials", "campaign.trial"},
  };
  out += ",\n  \"derived\": {";
  bool first = true;
  for (const auto& d : kDerived) {
    const StageStats* s = find_stage(snap, d.stage);
    const std::uint64_t c = find_counter(snap, d.counter);
    if (s == nullptr || s->total_ns == 0 || c == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, d.key);
    out += ": ";
    out += json_number(static_cast<double>(c) / ns_to_s(s->total_ns));
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"thread_pool\": ";
  if (!snap.pool.has_value()) {
    out += "null";
  } else {
    const PoolStats& p = *snap.pool;
    out += "{\n";
    out += "    \"lanes\": " + std::to_string(p.lanes) + ",\n";
    out += "    \"wall_s\": ";
    out += json_number(ns_to_s(p.wall_ns));
    out += ",\n    \"jobs\": " + std::to_string(p.jobs) + ",\n";
    out += "    \"chunks_executed\": " + std::to_string(p.chunks) + ",\n";
    out += "    \"max_chunks_per_job\": " +
           std::to_string(p.max_chunks_per_job) + ",\n";
    out += "    \"workers\": [";
    for (std::size_t i = 0; i < p.per_lane.size(); ++i) {
      const auto& lane = p.per_lane[i];
      out += i == 0 ? "\n" : ",\n";
      out += "      {\"lane\": " + std::to_string(i);
      out += ", \"busy_s\": ";
      out += json_number(ns_to_s(lane.busy_ns));
      out += ", \"idle_s\": ";
      out += json_number(ns_to_s(p.wall_ns > lane.busy_ns
                                     ? p.wall_ns - lane.busy_ns
                                     : 0));
      out += ", \"chunks\": " + std::to_string(lane.chunks);
      out += "}";
    }
    out += p.per_lane.empty() ? "]" : "\n    ]";
    out += "\n  }";
  }

  out += ",\n  \"hardware\": ";
  if (!snap.hardware.has_value()) {
    out += "null";
  } else {
    const HardwareStats& hw = *snap.hardware;
    out += "{\"energy_j\": ";
    out += json_number(hw.energy_j);
    out += ", \"elapsed_s\": ";
    out += json_number(hw.elapsed_s);
    out += ", \"cycles\": " + std::to_string(hw.cycles);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

std::string metrics_to_json_line(const MetricsSnapshot& snapshot) {
  // The pretty renderer escapes newlines inside strings, so every literal
  // '\n' in its output is structural whitespace: dropping it together with
  // the indentation that follows compacts without a JSON parser.
  const std::string pretty = metrics_to_json(snapshot);
  std::string out;
  out.reserve(pretty.size());
  std::size_t i = 0;
  while (i < pretty.size()) {
    const char c = pretty[i];
    if (c == '\n') {
      ++i;
      while (i < pretty.size() && pretty[i] == ' ') ++i;
      continue;
    }
    out += c;
    ++i;
  }
  out += '\n';
  return out;
}

std::string trace_to_json() {
  Registry& reg = Registry::instance();
  const auto events = reg.trace_events();
  ChromeTraceWriter trace(256 + events.size() * 96);
  for (const auto& [track, name] : reg.track_names()) trace.track(track, name);
  char ts[32];
  char dur[32];
  for (const auto& e : events) {
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(e.start_ns) * 1e-3);
    std::snprintf(dur, sizeof(dur), "%.3f",
                  static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    std::string args;
    for (std::uint32_t i = 0; i < e.num_args; ++i) {
      if (i != 0) args += ", ";
      append_json_string(args, e.args[i].key);
      args += ": " + std::to_string(e.args[i].value);
    }
    trace.slice(e.track, e.name, "generic", ts, dur, args);
  }
  return trace.finish("\"schema\": \"generic.trace.v1\", \"dropped_spans\": " +
                      std::to_string(reg.dropped_spans()));
}

Session::Session(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (!trace_path_.empty() || !metrics_path_.empty())
    set_current_thread_name("main");
  if (!trace_path_.empty()) set_tracing(true);
  if (!metrics_path_.empty()) set_metrics(true);
}

void Session::stream_metrics_every(double period_s) {
  if (metrics_path_.empty() || period_s <= 0.0 || streaming_) return;
  // Truncate once so the stream starts clean; the periodic thread and the
  // final write both append.
  try {
    write_file(metrics_path_, "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: cannot open metrics stream: %s\n", e.what());
    return;
  }
  streaming_ = true;
  streamer_ = std::thread([this, period_s] {
    set_current_thread_name("obs-metrics-stream");
    periodic_loop(period_s);
  });
}

void Session::periodic_loop(double period_s) {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(period_s));
  std::unique_lock<std::mutex> lock(stream_mu_);
  while (!stream_stop_) {
    if (stream_cv_.wait_for(lock, period, [this] { return stream_stop_; }))
      break;
    lock.unlock();
    try {
      std::ofstream f(metrics_path_, std::ios::app);
      if (f) f << metrics_to_json_line(collect_metrics());
    } catch (const std::exception&) {
      // Keep streaming; the final snapshot still reports at destruction.
    }
    lock.lock();
  }
}

Session::~Session() {
  if (streamer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stream_mu_);
      stream_stop_ = true;
    }
    stream_cv_.notify_all();
    streamer_.join();
  }
  try {
    if (!trace_path_.empty()) {
      write_file(trace_path_, trace_to_json());
      std::fprintf(stderr, "trace written to %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      MetricsSnapshot snap = collect_metrics();
      snap.pool = std::move(pool_);
      snap.hardware = hardware_;
      if (streaming_) {
        // In streaming mode the file is a JSONL stream: append the final
        // snapshot as one more line instead of replacing it with the
        // pretty single-object document.
        std::ofstream f(metrics_path_, std::ios::app);
        if (!f) throw std::runtime_error("cannot append: " + metrics_path_);
        f << metrics_to_json_line(snap);
        if (!f) throw std::runtime_error("write failed: " + metrics_path_);
      } else {
        write_file(metrics_path_, metrics_to_json(snap));
      }
      std::fprintf(stderr, "metrics written to %s\n", metrics_path_.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: export failed: %s\n", e.what());
  }
  set_tracing(false);
  set_metrics(false);
}

}  // namespace generic::obs
