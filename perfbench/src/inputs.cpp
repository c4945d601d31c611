#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "dynamic/mutable_graph.hpp"

namespace perfbench {

using distbc::dynamic::Edge;
using distbc::dynamic::EdgeBatch;
using distbc::graph::Vertex;

distbc::api::Config pinned_config(int ranks, std::uint64_t seed) {
  distbc::api::Config config;
  config.ranks = ranks;
  config.threads = 1;
  config.deterministic = true;
  config.sample_batch = kSampleBatch;
  config.auto_tune = false;
  config.seed = seed;
  return config;
}

std::vector<EdgeBatch> make_churn(const GraphPtr& initial,
                                  int deletion_batches,
                                  std::uint64_t per_side, distbc::Rng rng) {
  distbc::dynamic::MutableGraph sim(initial);
  std::vector<Edge> recyclable;
  std::vector<EdgeBatch> batches;
  for (int b = 0; b <= deletion_batches; ++b) {
    const distbc::graph::Graph& graph = *sim.snapshot();
    EdgeBatch batch;
    std::set<Edge> added;
    std::vector<Edge> added_order;
    while (added.size() < per_side) {
      const auto [x, y] = rng.next_distinct_pair(graph.num_vertices());
      const Edge edge{static_cast<Vertex>(std::min(x, y)),
                      static_cast<Vertex>(std::max(x, y))};
      if (graph.has_edge(edge.u, edge.v) || !added.insert(edge).second)
        continue;
      batch.insert(edge.u, edge.v);
      added_order.push_back(edge);
    }
    if (b > 0) {
      const auto deletions =
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              recyclable.size(), per_side));
      for (auto it = recyclable.begin(); it != recyclable.begin() + deletions;
           ++it)
        batch.remove(it->u, it->v);
      recyclable.erase(recyclable.begin(), recyclable.begin() + deletions);
    }
    recyclable.insert(recyclable.end(), added_order.begin(),
                      added_order.end());
    if (const distbc::api::Status status = batch.validate(graph);
        !status.ok) {
      std::fprintf(stderr, "churn generation: %s\n", status.message.c_str());
      std::exit(2);
    }
    sim.apply(batch);
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace perfbench
