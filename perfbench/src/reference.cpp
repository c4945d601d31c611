#include "reference.hpp"

#include <algorithm>
#include <limits>
#include <thread>

namespace perfbench::ref {

namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

/// Runs fn(source, partial) for every source, splitting sources
/// round-robin over `threads` workers, each with its own partial result.
template <typename Partial, typename Fn>
std::vector<Partial> over_sources(std::uint32_t n, int threads,
                                  const Partial& zero, Fn&& fn) {
  const int workers = std::max(1, threads);
  std::vector<Partial> partials(static_cast<std::size_t>(workers), zero);
  auto work = [&](int w) {
    for (std::uint32_t s = static_cast<std::uint32_t>(w); s < n;
         s += static_cast<std::uint32_t>(workers))
      fn(s, partials[static_cast<std::size_t>(w)]);
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  return partials;
}

}  // namespace

Adjacency::Adjacency(std::uint32_t num_vertices,
                     const std::vector<Edge>& edges) {
  std::vector<Edge> arcs;
  arcs.reserve(2 * edges.size());
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& arc : arcs) ++offsets_[arc.first + 1];
  for (std::uint32_t v = 0; v < num_vertices; ++v)
    offsets_[v + 1] += offsets_[v];
  targets_.reserve(arcs.size());
  for (const auto& arc : arcs) targets_.push_back(arc.second);
}

std::vector<std::uint32_t> bfs_distances(const Adjacency& graph,
                                         std::uint32_t source) {
  std::vector<std::uint32_t> dist(graph.num_vertices(), kUnreached);
  std::vector<std::uint32_t> queue;
  queue.reserve(graph.num_vertices());
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (const std::uint32_t* w = graph.begin(u); w != graph.end(u); ++w) {
      if (dist[*w] != kUnreached) continue;
      dist[*w] = dist[u] + 1;
      queue.push_back(*w);
    }
  }
  return dist;
}

std::vector<double> brandes(const Adjacency& graph, int threads) {
  const std::uint32_t n = graph.num_vertices();
  const auto partials = over_sources(
      n, threads, std::vector<double>(n, 0.0),
      [&](std::uint32_t s, std::vector<double>& acc) {
        // Per-call scratch keeps workers independent; n is small enough
        // that the allocations do not matter for a reference.
        std::vector<std::uint32_t> dist(n, kUnreached);
        std::vector<double> sigma(n, 0.0);
        std::vector<double> dependency(n, 0.0);
        std::vector<std::uint32_t> order;
        order.reserve(n);
        dist[s] = 0;
        sigma[s] = 1.0;
        order.push_back(s);
        for (std::size_t head = 0; head < order.size(); ++head) {
          const std::uint32_t u = order[head];
          for (const std::uint32_t* w = graph.begin(u); w != graph.end(u);
               ++w) {
            if (dist[*w] == kUnreached) {
              dist[*w] = dist[u] + 1;
              order.push_back(*w);
            }
            if (dist[*w] == dist[u] + 1) sigma[*w] += sigma[u];
          }
        }
        for (std::size_t i = order.size(); i-- > 1;) {
          const std::uint32_t w = order[i];
          for (const std::uint32_t* u = graph.begin(w); u != graph.end(w);
               ++u) {
            if (dist[*u] + 1 == dist[w])
              dependency[*u] += sigma[*u] / sigma[w] * (1.0 + dependency[w]);
          }
          acc[w] += dependency[w];
        }
      });
  std::vector<double> scores(n, 0.0);
  const double norm =
      n < 2 ? 0.0 : 1.0 / (static_cast<double>(n) * (static_cast<double>(n) - 1));
  for (const auto& partial : partials)
    for (std::uint32_t v = 0; v < n; ++v) scores[v] += partial[v];
  for (double& score : scores) score *= norm;
  return scores;
}

std::vector<double> harmonic_closeness(const Adjacency& graph, int threads) {
  const std::uint32_t n = graph.num_vertices();
  const auto partials = over_sources(
      n, threads, std::vector<double>(n, 0.0),
      [&](std::uint32_t s, std::vector<double>& acc) {
        const std::vector<std::uint32_t> dist = bfs_distances(graph, s);
        double sum = 0.0;
        for (std::uint32_t v = 0; v < n; ++v)
          if (v != s && dist[v] != kUnreached) sum += 1.0 / dist[v];
        acc[s] = sum;
      });
  std::vector<double> scores(n, 0.0);
  if (n < 2) return scores;
  for (const auto& partial : partials)
    for (std::uint32_t v = 0; v < n; ++v) scores[v] += partial[v];
  for (double& score : scores) score /= static_cast<double>(n) - 1;
  return scores;
}

double mean_distance(const Adjacency& graph, int threads) {
  const std::uint32_t n = graph.num_vertices();
  if (n < 2) return 0.0;
  const auto partials = over_sources(
      n, threads, 0.0, [&](std::uint32_t s, double& acc) {
        const std::vector<std::uint32_t> dist = bfs_distances(graph, s);
        for (std::uint32_t v = 0; v < n; ++v)
          if (v != s && dist[v] != kUnreached) acc += dist[v];
      });
  double total = 0.0;
  for (const double partial : partials) total += partial;
  return total / (static_cast<double>(n) * (static_cast<double>(n) - 1));
}

double mean_distance_from(const Adjacency& graph,
                          const std::vector<std::uint32_t>& sources) {
  const std::uint32_t n = graph.num_vertices();
  if (n < 2 || sources.empty()) return 0.0;
  double total = 0.0;
  for (const std::uint32_t s : sources) {
    const std::vector<std::uint32_t> dist = bfs_distances(graph, s);
    double sum = 0.0;
    for (std::uint32_t v = 0; v < n; ++v)
      if (v != s && dist[v] != kUnreached) sum += dist[v];
    total += sum / (static_cast<double>(n) - 1);
  }
  return total / static_cast<double>(sources.size());
}

}  // namespace perfbench::ref
