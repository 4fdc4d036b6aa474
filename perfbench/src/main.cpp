// perfbench: the malsched benchmark.
//
//   perfbench --workload <exact|zipf_repeat|fleet_miss|online_replay>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --list-metrics
//
// Prints human-readable lines, then one JSON line: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 reports the per-layer metrics of a traced run.
// --list-metrics prints "<name> <unit> <end_to_end|per_layer>" per metric.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace "
               "0|1 [--trace-out FILE]\n"
               "       perfbench --list-metrics\n"
               "workloads: exact zipf_repeat fleet_miss online_replay\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const auto& spec : perfbench::metric_catalog()) {
        std::printf("%s %s %s\n", spec.name, spec.unit,
                    spec.kind == perfbench::MetricKind::EndToEnd
                        ? "end_to_end"
                        : "per_layer");
      }
      return 0;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) {
        return usage();
      }
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') {
      return usage();
    }
  }
  if (!(options.seconds > 0.0) || options.seconds > 120.0) {
    return usage();
  }

  perfbench::Report report(options);
  if (options.workload == "exact") {
    perfbench::run_exact(options, report);
  } else if (options.workload == "zipf_repeat") {
    perfbench::run_zipf_repeat(options, report);
  } else if (options.workload == "fleet_miss") {
    perfbench::run_fleet_miss(options, report);
  } else if (options.workload == "online_replay") {
    perfbench::run_online_replay(options, report);
  } else {
    return usage();
  }
  report.print();
  return 0;
}
