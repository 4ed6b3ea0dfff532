// Declarative environment-knob registry for the bench harnesses.
//
// Every EAB_* override a bench honors is declared ONCE here as a KnobSpec —
// name, type, default, bounds, the exact "expected ..." text of its exit-2
// diagnostic, and a one-line doc string.  The typed getters below enforce
// the spec (strict parse, bounds check, die_invalid_env on anything
// malformed), so a knob's behavior and its documentation cannot drift
// apart, and `--help` on any bench lists its knobs straight from the
// registry.  Asking for an unregistered knob aborts: a getter call site
// cannot invent an undocumented override.
//
// The registry deliberately changes NO observable behavior: the diagnostics
// (format, expected-text, exit code 2) are byte-identical to the old
// scattered parse_env_u64/f64 call sites, and core_batch_test's death tests
// pin them.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace eab::bench {

/// Strict unsigned-decimal parse for environment values.  Returns false on
/// anything that is not a plain base-10 number: signs, leading whitespace,
/// trailing garbage, hex prefixes and out-of-range values all fail.  Every
/// env knob goes through this so a typo'd override dies loudly instead of
/// silently running a different sweep than the one asked for.
inline bool parse_env_u64(const char* raw, std::uint64_t& out) {
  if (raw == nullptr || *raw == '\0') return false;
  if (!std::isdigit(static_cast<unsigned char>(raw[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Strict non-negative decimal parse for environment values — the floating
/// point sibling of parse_env_u64.  Accepts plain base-10 numbers with an
/// optional fraction or exponent ("2", "0.75", "1.5e1"); signs, leading
/// whitespace, trailing garbage, hex floats and non-finite results all fail.
inline bool parse_env_f64(const char* raw, double& out) {
  if (raw == nullptr || *raw == '\0') return false;
  if (!std::isdigit(static_cast<unsigned char>(raw[0]))) return false;
  if (std::strchr(raw, 'x') != nullptr || std::strchr(raw, 'X') != nullptr) {
    return false;  // strtod would accept C99 hex floats
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || errno == ERANGE) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

/// Rejects a malformed environment override: names the variable, echoes the
/// offending value, and exits 2 (distinct from a bench's own failure codes).
[[noreturn]] inline void die_invalid_env(const char* name, const char* raw,
                                         const char* expected) {
  std::fprintf(stderr, "error: %s=\"%s\" is invalid; expected %s\n", name,
               raw, expected);
  std::exit(2);
}

enum class KnobType {
  kFlag,  ///< "0"/"1"; unset or empty means off
  kU64,   ///< strict unsigned decimal, bounds [u64_min, u64_max]
  kF64,   ///< strict non-negative decimal, optional >0 and upper bound
  kPath,  ///< free-form string; unset means empty
};

/// One declared environment knob.
struct KnobSpec {
  const char* name;      ///< "EAB_JOBS"
  KnobType type;
  const char* fallback;  ///< human-readable default for --help
  const char* expected;  ///< exact text of the exit-2 diagnostic
  const char* doc;       ///< one --help line
  std::uint64_t u64_min = 0;
  std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
  bool f64_positive = false;  ///< reject values <= 0
  double f64_max = std::numeric_limits<double>::infinity();
};

/// The process-wide knob table plus its typed strict getters.  Unset or
/// empty always yields the caller's fallback unchecked (so a sentinel like
/// EAB_JOBS's "0 = resolve from hardware" stays expressible); a SET value
/// must parse and satisfy the spec's bounds or the process exits 2 with the
/// spec's expected-text.
class KnobRegistry {
 public:
  static const KnobRegistry& instance() {
    static const KnobRegistry registry;
    return registry;
  }

  const std::vector<KnobSpec>& specs() const { return specs_; }

  /// The spec for `name`; aborts on an unregistered knob (a getter call
  /// site cannot invent an undocumented override).
  const KnobSpec& require(std::string_view name) const {
    for (const KnobSpec& spec : specs_) {
      if (name == spec.name) return spec;
    }
    std::fprintf(stderr, "fatal: knob %.*s is not registered in knobs.hpp\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  /// "0"/unset/empty = false, "1" = true, anything else exits 2.
  bool flag(const char* name) const {
    const KnobSpec& spec = require(name);
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return false;
    if (raw[0] == '0' && raw[1] == '\0') return false;
    if (raw[0] == '1' && raw[1] == '\0') return true;
    die_invalid_env(name, raw, spec.expected);
  }

  std::uint64_t u64_or(const char* name, std::uint64_t fallback) const {
    const KnobSpec& spec = require(name);
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    std::uint64_t value = 0;
    if (!parse_env_u64(raw, value) || value < spec.u64_min ||
        value > spec.u64_max) {
      die_invalid_env(name, raw, spec.expected);
    }
    return value;
  }

  double f64_or(const char* name, double fallback) const {
    const KnobSpec& spec = require(name);
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') return fallback;
    double value = 0;
    if (!parse_env_f64(raw, value) || (spec.f64_positive && value <= 0) ||
        value > spec.f64_max) {
      die_invalid_env(name, raw, spec.expected);
    }
    return value;
  }

  std::string path_or_empty(const char* name) const {
    require(name);  // even free-form knobs must be declared
    const char* raw = std::getenv(name);
    return raw == nullptr ? std::string() : std::string(raw);
  }

 private:
  KnobRegistry() {
    const auto flag_knob = [&](const char* name, const char* doc) {
      specs_.push_back({name, KnobType::kFlag, "0", "\"0\" or \"1\"", doc});
    };
    const auto path_knob = [&](const char* name, const char* doc) {
      specs_.push_back({name, KnobType::kPath, "unset", "a path", doc});
    };
    const auto u64_knob = [&](const char* name, const char* fallback,
                              const char* expected, const char* doc,
                              std::uint64_t min, std::uint64_t max) {
      KnobSpec spec{name, KnobType::kU64, fallback, expected, doc};
      spec.u64_min = min;
      spec.u64_max = max;
      specs_.push_back(spec);
    };
    const auto f64_knob = [&](const char* name, const char* fallback,
                              const char* expected, const char* doc,
                              bool positive,
                              double max =
                                  std::numeric_limits<double>::infinity()) {
      KnobSpec spec{name, KnobType::kF64, fallback, expected, doc};
      spec.f64_positive = positive;
      spec.f64_max = max;
      specs_.push_back(spec);
    };
    constexpr std::uint64_t kU64Max =
        std::numeric_limits<std::uint64_t>::max();

    // Observability.
    flag_knob("EAB_TRACE",
              "record structured traces, audit every load, exit non-zero on "
              "any cross-layer violation");
    path_knob("EAB_TRACE_OUT",
              "also dump audited recordings as Chrome traces under this "
              "directory");
    flag_knob("EAB_TELEMETRY",
              "sample simulated-time telemetry into fixed-budget series and "
              "write a .timeseries.json artifact");
    u64_knob("EAB_TELEMETRY_TICK", "5",
             "a sampling period in seconds in [1, 86400]",
             "telemetry sampling period in whole simulated seconds", 1,
             86400);
    u64_knob("EAB_TELEMETRY_BUDGET", "256", "a point budget in [2, 1048576]",
             "per-series point budget before power-of-two merge downsampling",
             2, 1048576);
    flag_knob("EAB_PROGRESS",
              "live supervisor progress lines on stderr (~1 Hz); results are "
              "bit-identical either way");

    // Parallel / supervised execution.
    u64_knob("EAB_JOBS", "hardware concurrency",
             "a worker count in [1, 1024]",
             "shards running at once: threads, or forked worker processes "
             "under EAB_SUPERVISE=1 (results are bit-identical for any "
             "value)", 1, 1024);
    flag_knob("EAB_SUPERVISE",
              "run supporting sweeps under forked, heartbeat-supervised "
              "worker processes (bit-identical results)");
    path_knob("EAB_CHECKPOINT_DIR",
              "directory for supervised sweeps' durable checkpoint journals "
              "(enables crash resume)");
    u64_knob("EAB_SELF_CHAOS", "0 (off)", "an unsigned decimal seed",
             "seed for the supervisor's self-chaos worker-kill schedule", 0,
             kU64Max);
    u64_knob("EAB_SELF_CHAOS_KILLS", "0", "a kill count in [0, 64]",
             "worker SIGKILLs injected per launch (needs EAB_SELF_CHAOS)", 0,
             64);
    flag_knob("EAB_SELF_CHAOS_ORC",
              "SIGKILL the orchestrator once after a durable checkpoint "
              "commit (needs EAB_SELF_CHAOS + EAB_CHECKPOINT_DIR)");

    // Fault & chaos engines.
    u64_knob("EAB_FAULT_SEED", "bench-specific", "an unsigned decimal seed",
             "re-rolls the fault-plan stream without recompiling", 0, kU64Max);
    u64_knob("EAB_CHAOS_SEEDS", "256", "a scenario count in [1, 1000000]",
             "random chaos scenarios per sweep", 1, 1000000);
    path_knob("EAB_CHAOS_OUT",
              "write every shrunk chaos reproducer there as replayable JSON");

    // Per-UE coverage outages.
    u64_knob("EAB_OUTAGE_COUNT", "0 (off)",
             "a coverage-window count in [0, 1000]",
             "per-UE coverage-outage windows; 0 disables the radio-failure "
             "subsystem entirely", 0, 1000);
    f64_knob("EAB_OUTAGE_START", "bench-specific", "a start time in seconds",
             "first outage-window start (simulated seconds)", false);
    f64_knob("EAB_OUTAGE_PERIOD", "bench-specific",
             "a window period in seconds > 0",
             "outage-window period; must exceed the duration", true);
    f64_knob("EAB_OUTAGE_DURATION", "bench-specific",
             "a window duration in seconds > 0", "outage-window length", true);
    f64_knob("EAB_OUTAGE_FAIL_RATE", "0",
             "a re-establishment failure rate in [0, 1]",
             "probability an RRC re-establishment attempt fails", false, 1.0);
    u64_knob("EAB_OUTAGE_SEED", "bench-specific", "an unsigned decimal seed",
             "seeds the per-UE outage jitter stream", 0, kU64Max);

    // Shared-cell co-simulation (bench_fig11_capacity --cell).
    u64_knob("EAB_CELL_SEED", "1", "an unsigned decimal number",
             "cell simulation seed", 0, kU64Max);
    u64_knob("EAB_CELL_USERS", "32", "a user count in [1, 512]",
             "top of the users axis for the capacity sweep", 1, 512);
    u64_knob("EAB_CELL_OUTAGE_COUNT", "0 (off)",
             "a blackout count in [0, 1000]",
             "whole-cell blackout windows per run", 0, 1000);
    f64_knob("EAB_CELL_OUTAGE_START", "60", "a start time in seconds",
             "first blackout start (simulated seconds)", false);
    f64_knob("EAB_CELL_OUTAGE_PERIOD", "120",
             "a blackout period in seconds > 0",
             "blackout period; must exceed the duration", true);
    f64_knob("EAB_CELL_OUTAGE_DURATION", "5",
             "a blackout duration in seconds > 0", "blackout length", true);

    // Microbenchmarks.
    u64_knob("EAB_SIM_MICRO_N", "1000000", "a positive op count per phase",
             "scales every bench_sim_micro phase", 1, kU64Max);

    // Metro-scale multi-cell simulation (bench_metro).
    u64_knob("EAB_METRO_GRID_W", "3", "a grid dimension in [1, 16]",
             "metro cell-grid width", 1, 16);
    u64_knob("EAB_METRO_GRID_H", "3", "a grid dimension in [1, 16]",
             "metro cell-grid height", 1, 16);
    u64_knob("EAB_METRO_USERS", "24", "a user count in [1, 65536]",
             "top of the mean-users-per-cell axis for the metro sweep", 1,
             65536);
    u64_knob("EAB_METRO_SEED", "1", "an unsigned decimal seed",
             "metro simulation seed (cell c runs at seed + c)", 0, kU64Max);
    f64_knob("EAB_METRO_HORIZON", "600", "a horizon in seconds > 0",
             "simulated arrival horizon per metro run", true);
    f64_knob("EAB_METRO_DWELL", "120", "a mean dwell time in seconds",
             "mean exponential dwell before a UE steps to a neighbor cell; "
             "0 disables mobility", false);
    f64_knob("EAB_METRO_HOTSPOT", "0.5", "a hotspot strength >= 0",
             "home-cell load-imbalance strength (0 = uniform homes)", false);
    flag_knob("EAB_METRO_SCALE",
              "add the 100k-session scale point (large grid, short horizon) "
              "to the metro bench");
  }

  std::vector<KnobSpec> specs_;
};

/// The registry the benches read their knobs through.
inline const KnobRegistry& knobs() { return KnobRegistry::instance(); }

/// Prints `bench`'s usage plus the registry rows for `names` (in the given
/// order) to stdout.
inline void print_knob_help(const char* bench, const char* what,
                            const std::vector<const char*>& names) {
  std::printf("usage: %s [--help]\n%s\n", bench, what);
  if (names.empty()) {
    std::printf("\nThis bench honors no environment knobs.\n");
    return;
  }
  std::printf("\nenvironment knobs:\n");
  for (const char* name : names) {
    const KnobSpec& spec = KnobRegistry::instance().require(name);
    std::printf("  %-24s %s\n%-27s[%s; default %s]\n", spec.name, spec.doc,
                "", spec.expected, spec.fallback);
  }
}

/// `--help`/`-h` handling for every bench main: prints the knob table from
/// the registry and returns true (the caller exits 0).  Any other argv is
/// left for the bench to interpret.
inline bool maybe_print_help(int argc, char** argv, const char* bench,
                             const char* what,
                             const std::vector<const char*>& names) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_knob_help(bench, what, names);
      return true;
    }
  }
  return false;
}

}  // namespace eab::bench
