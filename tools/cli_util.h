// Output helpers shared by the CLI tools. Flags are parsed by bench::Flags
// and exceptions caught by bench::run_main (bench/bench_util.h), the same
// strict parser and top-level catch the bench binaries use.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/export.h"
#include "obs/rtrace.h"

namespace generic::tools {

/// Write the request-trace documents of the live recorder that were asked
/// for; an empty path skips that document. --rtrace is generic.rtrace.v1,
/// --rtrace-chrome the Chrome trace-event view, --flight-dump
/// generic.flight.v1. A failed write throws (obs::write_file).
inline void write_rtrace_outputs(const std::string& rtrace_path,
                                 const std::string& chrome_path,
                                 const std::string& flight_path) {
  if (!rtrace_path.empty()) {
    obs::write_file(rtrace_path, obs::rtrace::rtrace_to_json());
    std::printf("rtrace written to %s\n", rtrace_path.c_str());
  }
  if (!chrome_path.empty()) {
    obs::write_file(chrome_path, obs::rtrace::rtrace_to_chrome_json());
    std::printf("rtrace chrome trace written to %s\n", chrome_path.c_str());
  }
  if (!flight_path.empty()) {
    obs::write_file(flight_path, obs::rtrace::flight_to_json());
    std::printf("flight recorder dumped to %s\n", flight_path.c_str());
  }
}

[[noreturn]] inline void usage_exit(const char* text) {
  std::fputs(text, stderr);
  std::exit(2);
}

}  // namespace generic::tools
