// The benchmark's workloads (README.md describes each one).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; `args.workload` must be one of workload_names().
[[nodiscard]] Outcome run_workload(const Args& args, Tracer& tracer);

}  // namespace perfbench
