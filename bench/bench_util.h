// Shared helpers for the table/figure harnesses and the CLI tools:
// fixed-width table printing, strict flag parsing and the top-level
// exception catch of every main. Each bench binary regenerates one
// table or figure of the paper (see DESIGN.md §2); output is plain text
// shaped like the paper's rows so runs can be diffed against
// EXPERIMENTS.md. Wall-clock timing lives in obs::Stopwatch (src/obs).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/kernels.h"
#include "obs/obs.h"

namespace generic::bench {

/// Strict command-line parser for the bench/tool harnesses. Flags are
/// spelled `--key` or `--key=value` (plus the historical `--threads N`
/// two-token spelling). Construction rejects positional arguments and the
/// malformed `--key=` (empty value); done() rejects any flag no accessor
/// asked about. Errors print to stderr and exit(2), so a typo'd sweep
/// fails loudly instead of silently running with defaults.
class Flags {
 public:
  Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "bench") {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0 || arg.size() == 2)
        die("unexpected argument '" + std::string(arg) +
            "' (flags are --key or --key=value)");
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        if (eq + 1 == arg.size())
          die("empty value in '" + std::string(arg) +
              "' (use --key=value or drop the '=')");
        values_[std::string(arg.substr(0, eq))] =
            std::string(arg.substr(eq + 1));
      } else if (arg == "--threads" && i + 1 < argc &&
                 is_number(argv[i + 1])) {
        values_["--threads"] = argv[++i];
      } else {
        values_[std::string(arg)] = "";
      }
    }
  }

  /// True when `--flag` appears (bare or with a value).
  bool has(std::string_view flag) {
    requested_.insert(std::string(flag));
    return values_.count(std::string(flag)) != 0;
  }

  /// Value of `--key=value`, or `fallback` when the flag is absent. A bare
  /// `--key` with no value is an error for value-carrying flags.
  std::string value(std::string_view key, std::string_view fallback) {
    requested_.insert(std::string(key));
    const auto it = values_.find(std::string(key));
    if (it == values_.end()) return std::string(fallback);
    if (it->second.empty())
      die("flag '" + it->first + "' needs a value (use " + it->first +
          "=...)");
    return it->second;
  }

  /// Integer value of `--key=N`, or `fallback` when absent. Non-numeric
  /// values are an error (the old parser silently fell back).
  std::size_t size(std::string_view key, std::size_t fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    if (!is_number(v.c_str()))
      die("flag '" + std::string(key) + "' needs an integer, got '" + v +
          "'");
    return static_cast<std::size_t>(std::strtoull(v.c_str(), nullptr, 10));
  }

  /// Like size(), but zero is an error too: use for counts and intervals
  /// where 0 can only be a typo (silently accepting --metrics-every=0 or
  /// --rate=0 would run forever or divide by zero downstream).
  std::size_t positive_size(std::string_view key, std::size_t fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    const std::size_t n = size(key, fallback);
    if (n == 0)
      die("flag '" + std::string(key) + "' must be a positive integer");
    return n;
  }

  /// Real value of `--key=X`, or `fallback` when absent. The whole token
  /// must parse (strtod leftovers are an error, not a truncation).
  double real(std::string_view key, double fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    return to_real(key, v);
  }

  /// Reals of `--key=X,Y,...`, or an empty list when absent. Every item
  /// must parse whole, as in real(); an empty item is an error too.
  std::vector<double> reals(std::string_view key) {
    const std::string v = value(key, "");
    std::vector<double> out;
    if (v.empty()) return out;
    for (std::size_t begin = 0;;) {
      const std::size_t comma = v.find(',', begin);
      out.push_back(to_real(key, v.substr(begin, comma - begin)));
      if (comma == std::string::npos) return out;
      begin = comma + 1;
    }
  }

  /// Like real(), but the value must be strictly positive (rates, periods).
  double positive_real(std::string_view key, double fallback) {
    const std::string v = value(key, "");
    if (v.empty()) return fallback;
    const double x = real(key, fallback);
    if (!(x > 0.0))
      die("flag '" + std::string(key) + "' must be > 0, got '" + v + "'");
    return x;
  }

  /// Pool lane count from `--threads=N` / `--threads N`. Default 1 — every
  /// bench stays serial, and therefore byte-identical to its pre-parallel
  /// output, unless asked; 0 also means serial.
  std::size_t threads() {
    const std::size_t n = size("--threads", 1);
    return n == 0 ? 1 : n;
  }

  /// Call after the last accessor: any parsed flag nothing asked about is
  /// an unknown flag and aborts.
  void done() {
    for (const auto& [key, val] : values_) {
      (void)val;
      if (requested_.count(key) == 0) die("unknown flag '" + key + "'");
    }
  }

 private:
  [[noreturn]] void die(const std::string& msg) const {
    std::fprintf(stderr, "%s: error: %s\n", program_.c_str(), msg.c_str());
    std::exit(2);
  }

  double to_real(std::string_view key, const std::string& token) const {
    char* end = nullptr;
    const double x = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0')
      die("flag '" + std::string(key) + "' needs a number, got '" + token +
          "'");
    return x;
  }

  static bool is_number(const char* s) {
    if (*s == '\0') return false;
    for (; *s != '\0'; ++s)
      if (*s < '0' || *s > '9') return false;
    return true;
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::set<std::string> requested_;
};

/// Exit status of `run(argc, argv)`, the body of every bench and tool
/// main. An exception escaping it, such as a failed report write or an
/// unreadable input file, prints `error: <what>` and exits 1.
inline int run_main(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// Consume --kernel-backend=<auto|scalar|avx2|avx512|neon> and force the
/// XOR+popcount kernel backend (hdc/kernels.h) before any hypervector work
/// runs. GENERIC_KERNEL_BACKEND sets the same thing from the environment;
/// the flag wins because it resolves first. Unknown or uncompiled backends
/// exit(2) with the list of choices this binary actually has.
inline void apply_kernel_backend(Flags& flags) {
  const std::string name = flags.value("--kernel-backend", "auto");
  try {
    hdc::kernels::set_backend_from_string(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--kernel-backend: %s\n", e.what());
    std::exit(2);
  }
}

/// Calibrated-reps timer: run `body` once to size the rep count to about
/// `target_s` of wall time (at least 3 reps), then time the reps. Returns
/// seconds per body() call.
template <typename F>
double seconds_per_call(F&& body, double target_s) {
  obs::Stopwatch warm;
  body();
  const double once = warm.seconds();
  std::size_t reps = once > 0 ? static_cast<std::size_t>(target_s / once) : 1;
  if (reps < 3) reps = 3;
  obs::Stopwatch timer;
  for (std::size_t r = 0; r < reps; ++r) body();
  return timer.seconds() / static_cast<double>(reps);
}

/// Keep `value` observable so the optimizer cannot drop or hoist the work
/// that produced it out of a timed loop.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Record a non-negative measurement as a rounded generic.metrics.v1 gauge.
inline void set_gauge(const std::string& name, double v) {
  obs::Registry::instance().gauge(name).set(
      v < 0 ? 0 : static_cast<std::uint64_t>(v + 0.5));
}

inline void print_rule(std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace generic::bench
