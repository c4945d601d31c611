// perfbench: one end-to-end benchmark of the distributed KADABRA library.
//
//   perfbench --workload <road_cold|social_mpi|ba_churn|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON object as the last line of standard output:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 1 the metrics are the per-layer ones, and the spans and
// counters of the run are written to perfbench-out/.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      usage(("unknown argument " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str()))
      usage(("malformed value for " + key).c_str());
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    usage("unknown or missing --workload");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0))
    usage("--seconds must lie in (0, 600]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Tracer tracer(args.trace);
  const perfbench::Outcome outcome = perfbench::run_workload(args, tracer);
  for (const std::string& problem : outcome.problems)
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  if (args.trace) {
    const std::string path = "perfbench-out/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    tracer.write(path, args, outcome);
    std::fprintf(stderr, "trace written to %s\n", path.c_str());
  }
  std::printf("%s\n", perfbench::result_json(outcome).c_str());
  return 0;
}
