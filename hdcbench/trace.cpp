#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

namespace hdcbench {
namespace {

// Keeps a long serving run's file loadable; every span still feeds the
// metrics. Parents precede children in a lane, so a prefix stays closed.
constexpr std::size_t kMaxWrittenPerLane = 50000;

}  // namespace

SpanTotals Tracer::totals(const char* name) const {
  SpanTotals t;
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans())
      if (std::strcmp(s.name, name) == 0) {
        ++t.count;
        t.total_ns += static_cast<double>(s.dur_ns());
      }
  return t;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans())
      if (std::strcmp(s.name, name) == 0)
        out.push_back(static_cast<double>(s.dur_ns()));
  return out;
}

double Tracer::attributed_frac(const char* root) const {
  double roots = 0.0, children = 0.0;
  for (const Lane& l : lanes_) {
    const std::vector<Span>& spans = l.spans();
    for (const Span& s : spans) {
      if (s.parent < 0) {
        if (std::strcmp(s.name, root) == 0)
          roots += static_cast<double>(s.dur_ns());
      } else {
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (p.parent < 0 && std::strcmp(p.name, root) == 0)
          children += static_cast<double>(s.dur_ns());
      }
    }
  }
  return roots > 0.0 ? children / roots : 0.0;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans()) t0 = s.start_ns < t0 ? s.start_ns : t0;
  std::size_t total = 0;
  for (const Lane& l : lanes_) total += l.spans().size();
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"%s\","
               "\"seed\":%" PRIu64 ",\"spans_recorded\":%zu,"
               "\"spans_written_per_lane_max\":%zu},\"traceEvents\":[",
               workload.c_str(), seed, total, kMaxWrittenPerLane);
  bool first = true;
  for (const Lane& l : lanes_) {
    std::fprintf(f, "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"lane %u\"}}",
                 first ? "" : ",", l.id(), l.id());
    first = false;
    const std::vector<Span>& spans = l.spans();
    const std::size_t n = spans.size() < kMaxWrittenPerLane ? spans.size()
                                                            : kMaxWrittenPerLane;
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"hdcbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%" PRIu64 ",\"span\":%zu,\"parent\":%" PRId64 "}}",
                   s.name, l.id(), static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.dur_ns()) / 1e3, s.op, i, s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hdcbench
