// In-memory span recorder for the benchmark's traced runs (README.md).
//
// Spans are recorded only around the calls the benchmark itself makes into
// the library's public functions; nothing inside the library is touched.
// Each thread records into its own Lane, so recording takes no lock. Spans
// stay in memory until the run ends, when the per-layer metrics are read
// from them and they are written out as Chrome/Perfetto trace-event JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace hdcbench {

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< string literal
  std::uint64_t op = 0;   ///< operation id shared by all spans of one op
  std::int64_t parent = -1;  ///< index of the parent span in the same lane
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// One thread's span log. A lane is written by exactly one thread at a
/// time; the owning Tracer reads it only after that thread has been joined.
class Lane {
 public:
  explicit Lane(std::uint32_t id) : id_(id) {}

  /// Open a span and return its index (its handle for end()).
  std::int64_t begin(const char* name, std::uint64_t op,
                     std::int64_t parent = -1) {
    spans_.push_back(Span{name, op, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = now_ns(); }

  /// Record an already-timed span.
  std::int64_t add(const char* name, std::uint64_t op, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, op, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// A fresh operation id, unique across lanes.
  std::uint64_t next_op() { return (std::uint64_t{id_} << 40) | ++ops_; }

  std::uint32_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t id_;
  std::uint64_t ops_ = 0;
  std::vector<Span> spans_;
};

/// Per-name aggregate over every lane.
struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0.0;
  double mean_ns() const { return count == 0 ? 0.0 : total_ns / static_cast<double>(count); }
};

class Tracer {
 public:
  /// A new lane; the reference stays valid for the tracer's lifetime.
  Lane& lane() {
    lanes_.emplace_back(static_cast<std::uint32_t>(lanes_.size()));
    return lanes_.back();
  }

  SpanTotals totals(const char* name) const;
  /// Durations of every span called `name`, in ns.
  std::vector<double> durations(const char* name) const;
  /// Over all root spans called `root`: the summed duration of their direct
  /// children divided by the summed duration of the roots — the share of
  /// each operation's wall time that the layer spans account for.
  double attributed_frac(const char* root) const;

  /// Write every span as trace-event JSON ("X" events, one tid per lane,
  /// args carrying op id, span index and parent index). Returns false when
  /// the file cannot be written.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  std::deque<Lane> lanes_;
};

}  // namespace hdcbench
