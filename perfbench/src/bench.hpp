// Shared plumbing of the benchmark: arguments, clocks, order statistics,
// the metric record every workload fills, and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "reference.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seconds since the process started (the benchmark's static
/// initialization, before main runs).
[[nodiscard]] double since_start_s();

/// Steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed correctness checks, one line each (printed to stderr).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a check; a false condition marks the run incorrect.
  void check(bool ok, const std::string& what);
};

/// The result object {correct, attempted, failed, metrics} as one line of
/// JSON (non-finite values print as null).
[[nodiscard]] std::string result_json(const Outcome& outcome);

/// In-memory span recorder. Disabled tracers record nothing; the
/// workloads run the same code either way, so the traced run differs from
/// the untraced one only by the recording itself.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // spans of one operation share this
    double start_s = 0.0;       // since process start
    double end_s = 0.0;
  };

  /// RAII span; nested scopes on one thread become children. Safe to
  /// open from several threads at once.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t id_ = 0;
    std::uint64_t saved_parent_ = 0;
    std::string name_;
    std::uint64_t request_ = 0;
    double start_s_ = 0.0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Adds `delta` to a named counter recorded beside the spans.
  void count(const std::string& name, double delta);
  /// Durations of every recorded span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes the run's result, the counters and the spans as JSON.
  void write(const std::string& path, const Args& args,
             const Outcome& outcome) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;                 // guarded by mutex_
  std::map<std::string, double> counters_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;               // guarded by mutex_
};

/// Edge list of a library graph, for the reference computations.
[[nodiscard]] ref::Adjacency to_reference(const distbc::graph::Graph& graph);

}  // namespace perfbench
