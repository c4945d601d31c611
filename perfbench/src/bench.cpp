#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// Innermost open span of the calling thread (0 = none).
thread_local std::uint64_t t_parent = 0;

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string result_json(const Outcome& outcome) {
  std::string out = std::string("{\"correct\": ") +
                    (outcome.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcome.attempted) +
                    ", \"failed\": " + std::to_string(outcome.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

double since_start_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + fraction * (values[high] - values[low]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  {
    const std::scoped_lock lock(tracer_.mutex_);
    id_ = tracer_.next_id_++;
  }
  name_ = std::move(name);
  request_ = request;
  saved_parent_ = t_parent;
  t_parent = id_;
  start_s_ = since_start_s();
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  const double end = since_start_s();
  t_parent = saved_parent_;
  const std::scoped_lock lock(tracer_.mutex_);
  tracer_.spans_.push_back(
      {std::move(name_), id_, saved_parent_, request_, start_s_, end});
}

void Tracer::count(const std::string& name, double delta) {
  if (!enabled_) return;
  const std::scoped_lock lock(mutex_);
  counters_[name] += delta;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::scoped_lock lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  return out;
}

void Tracer::write(const std::string& path, const Args& args,
                   const Outcome& outcome) const {
  const std::scoped_lock lock(mutex_);
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": "
      << json_number(args.seconds) << ",\n \"result\": "
      << result_json(outcome) << ",\n \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n  " : ",\n  ") << json_string(name) << ": "
        << json_number(value);
    first = false;
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"start_s\": " << json_number(s.start_s)
        << ", \"end_s\": " << json_number(s.end_s) << "}";
  }
  out << "]}\n";
}

ref::Adjacency to_reference(const distbc::graph::Graph& graph) {
  std::vector<ref::Edge> edges;
  edges.reserve(graph.num_edges());
  for (distbc::graph::Vertex u = 0; u < graph.num_vertices(); ++u)
    for (const distbc::graph::Vertex v : graph.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return ref::Adjacency(graph.num_vertices(), edges);
}

}  // namespace perfbench
