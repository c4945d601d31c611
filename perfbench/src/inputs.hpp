// Inputs of the four workloads, all derived from the run's --seed, and
// the pinned configuration every timed query runs with.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/config.hpp"
#include "dynamic/edge_batch.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace perfbench {

using GraphPtr = std::shared_ptr<const distbc::graph::Graph>;

/// Traversal-kernel width of every query: pinned so no timed probe
/// decides it (0 would probe widths on calibration).
inline constexpr int kSampleBatch = 16;

/// Deterministic mode, one thread per rank, no autotuning, the default
/// network model: samples and epochs repeat exactly for a given seed.
[[nodiscard]] distbc::api::Config pinned_config(int ranks,
                                                std::uint64_t seed);

/// A churn sequence against `initial`: batch 0 inserts `per_side` random
/// absent edges; every later batch inserts `per_side` more and deletes the
/// `per_side` oldest edges earlier batches inserted. The original edges
/// never leave, so every snapshot stays connected. Each batch is sealed
/// against the graph version it follows.
[[nodiscard]] std::vector<distbc::dynamic::EdgeBatch> make_churn(
    const GraphPtr& initial, int deletion_batches, std::uint64_t per_side,
    distbc::Rng rng);

}  // namespace perfbench
