// Isolated per-layer probes for the traced run: each times direct calls
// into one layer's public functions on the workload's own inputs and adds
// the layer's metrics to the outcome. Every probe runs on every workload,
// so a layer that a workload barely exercises still reports what it
// would cost there (the "should move" table in README.md).
#pragma once

#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "bc/kadabra_math.hpp"
#include "bench.hpp"
#include "dynamic/edge_batch.hpp"
#include "inputs.hpp"

namespace perfbench {

/// diameter.*, calibration.*, kernel.*, codec.*, comm.{reduce,barrier,
/// allreduce_merge}_s and stop.check_s on `graph` with the workload's
/// statistical parameters and rank count.
void probe_layers(const distbc::graph::Graph& graph,
                  const distbc::bc::KadabraParams& params, int ranks,
                  Outcome& out);

/// dynamic.*: replays `batches` (from make_churn) through MutableGraph,
/// connectivity, SampleLedger::classify and IncrementalBc::refresh.
void probe_dynamic(const GraphPtr& graph,
                   const std::vector<distbc::dynamic::EdgeBatch>& batches,
                   const distbc::bc::KadabraParams& params, Outcome& out);

/// adaptive.closeness_s and adaptive.mean_distance_s: one closeness and
/// one mean-distance query each on a fresh session.
void probe_adaptive(const GraphPtr& graph, const distbc::api::Config& config,
                    Outcome& out);

/// service.*: queries through a one-replica SessionPool.
void probe_service(const GraphPtr& graph, const distbc::api::Config& config,
                   Outcome& out);

/// engine.*, stop.phase_s and comm.{bytes,aggregation_bytes,modeled_s}
/// from the results of the workload's own traced queries.
void engine_metrics(const std::vector<distbc::api::Result>& results,
                    Outcome& out);

}  // namespace perfbench
