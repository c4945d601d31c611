// Exact reference computations the benchmark checks the library against.
//
// Written apart from the library's own betweenness and adaptive code: they
// take a plain vertex count and undirected edge list, build their own
// adjacency, and share no code with src/bc or src/adaptive, so a fault
// there cannot hide behind the same fault here.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench::ref {

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/// Simple undirected adjacency (duplicate edges and self loops dropped).
class Adjacency {
 public:
  Adjacency(std::uint32_t num_vertices, const std::vector<Edge>& edges);

  [[nodiscard]] std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  [[nodiscard]] std::uint64_t num_edges() const { return targets_.size() / 2; }
  [[nodiscard]] const std::uint32_t* begin(std::uint32_t v) const {
    return targets_.data() + offsets_[v];
  }
  [[nodiscard]] const std::uint32_t* end(std::uint32_t v) const {
    return targets_.data() + offsets_[v + 1];
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
};

/// Hop distances from `source` (UINT32_MAX = unreachable).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Adjacency& graph,
                                                       std::uint32_t source);

/// Brandes betweenness normalized over ordered pairs:
/// b(v) = (1 / (n (n - 1))) * sum_{s != t} sigma_st(v) / sigma_st.
/// Sources are split over `threads` worker threads.
[[nodiscard]] std::vector<double> brandes(const Adjacency& graph,
                                          int threads = 1);

/// Normalized harmonic closeness h(v) = (1 / (n - 1)) sum_{u != v} 1/d(u, v).
[[nodiscard]] std::vector<double> harmonic_closeness(const Adjacency& graph,
                                                     int threads = 1);

/// Exact mean shortest-path distance over ordered pairs s != t (connected
/// graphs).
[[nodiscard]] double mean_distance(const Adjacency& graph, int threads = 1);

/// Mean distance estimated from the full BFS of each listed source: the
/// average, over sources, of the source's mean distance to all others.
[[nodiscard]] double mean_distance_from(const Adjacency& graph,
                                        const std::vector<std::uint32_t>& sources);

}  // namespace perfbench::ref
