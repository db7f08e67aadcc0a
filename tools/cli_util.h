// Exit-status and output helpers shared by the CLI tools. Flags are parsed
// by bench::Flags (bench/bench_util.h), the same strict parser the bench
// binaries use.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/export.h"
#include "obs/rtrace.h"

namespace generic::tools {

/// Exit status of `run(argc, argv)`. An exception escaping it, such as a
/// failed report write or an unreadable input file, prints
/// `error: <what>` and exits 1.
inline int run_main(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

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
