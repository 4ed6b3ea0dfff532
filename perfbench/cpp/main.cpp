// perfbench: the repository benchmark.
//
//   perfbench --workload page_loads|config_sweep|metro_sessions --seed N
//             --seconds S --trace 0|1 [--spans-out FILE] [--preset tiny]
//
// One process, one thread, one workload, closed loop.  With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it replays the layers with
// spans and prints the per-layer metrics.  Human-readable lines come first;
// the last line of stdout is one JSON object.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string self_time_table(const SpanRecorder& spans) {
  const std::vector<std::int64_t> self = spans.self_ns();
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    auto& [count, ms] = by_name[spans.spans()[i].name];
    ++count;
    ms += static_cast<double>(self[i]) / 1e6;
  }
  std::string out = "span self time:   name                    spans     total ms   mean ms";
  for (const auto& [name, entry] : by_name) {
    char row[128];
    std::snprintf(row, sizeof(row), "\n  %-34s %8zu %12.3f %9.4f", name.c_str(),
                  entry.first, entry.second,
                  entry.second / static_cast<double>(entry.first));
    out += row;
  }
  return out;
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "page_loads|config_sweep|metro_sessions --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE] [--preset tiny|full]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--preset") {
      if (value != "tiny" && value != "full") usage("--preset takes tiny or full");
      args.tiny = value == "tiny";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

void print_json(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.checks_ok && report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char entry[192];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  Report report;
  if (args.workload == "page_loads") {
    report = run_page_loads(args);
  } else if (args.workload == "config_sweep") {
    report = run_config_sweep(args);
  } else if (args.workload == "metro_sessions") {
    report = run_metro_sessions(args);
  } else {
    usage("unknown workload");
  }
  std::printf("workload %s seed %llu trace %d%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.tiny ? " preset tiny" : "");
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  if (!report.digest.empty()) std::printf("digest %s\n", report.digest.c_str());
  std::printf("operations: %llu attempted, %llu failed (failed_frac %.6f)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));
  for (const Metric& m : report.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(report);
  return 0;
}
