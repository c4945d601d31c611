#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "bc/batch_sampler.hpp"
#include "bc/kadabra_context.hpp"
#include "comm/substrate.hpp"
#include "dynamic/incremental_bc.hpp"
#include "dynamic/mutable_graph.hpp"
#include "epoch/frame_codec.hpp"
#include "epoch/state_frame.hpp"
#include "graph/batched_bidirectional_bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "mpisim/runtime.hpp"
#include "service/session_pool.hpp"

namespace perfbench {

namespace {

using namespace distbc;

/// Median wall time of `reps` calls after one untimed warm-up call.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const Stopwatch watch;
    fn();
    times.push_back(watch.elapsed_s());
  }
  return median(times);
}

/// Samples the kernel probe draws; enough for a stable per-sample rate on
/// the smallest workload graph.
constexpr std::uint64_t kKernelSamples = 4096;

/// Keeps probe results observable so the timed loops are not elided.
volatile double g_sink = 0.0;

void probe_diameter(const graph::Graph& graph, Outcome& out) {
  // iFUB can take thousands of BFS (ba_churn): two timed calls, no
  // warm-up - its work is deterministic.
  std::vector<double> ifub_times;
  graph::DiameterResult ifub;
  for (int rep = 0; rep < 2; ++rep) {
    const Stopwatch watch;
    ifub = graph::ifub_diameter(graph);
    ifub_times.push_back(watch.elapsed_s());
  }
  out.set("diameter.ifub_s", median(ifub_times), "s");
  out.set("diameter.ifub_bfs", static_cast<double>(ifub.num_bfs), "count");
  out.set("diameter.approx_s", median_time(5, [&] {
            (void)graph::vertex_diameter(graph, /*exact=*/false);
          }),
          "s");
}

void probe_kernel(const graph::Graph& graph, std::uint64_t seed,
                  Outcome& out) {
  graph::BatchedBidirectionalBfs kernel(graph, kSampleBatch);
  Rng rng = Rng(seed).split(1);
  std::vector<graph::Vertex> path;
  std::uint64_t touched = 0;
  const Stopwatch watch;
  for (std::uint64_t done = 0; done < kKernelSamples;) {
    const int width = static_cast<int>(std::min<std::uint64_t>(
        kKernelSamples - done, static_cast<std::uint64_t>(kSampleBatch)));
    for (int lane = 0; lane < width; ++lane) {
      const auto [s, t] = rng.next_distinct_pair(graph.num_vertices());
      (void)kernel.stage(static_cast<graph::Vertex>(s),
                         static_cast<graph::Vertex>(t));
    }
    kernel.run_staged();
    for (int lane = 0; lane < width; ++lane) {
      const bool connected = kernel.result(lane).connected;
      touched += kernel.lane_touched(lane);
      path.clear();
      if (connected) kernel.sample_path(lane, rng, path);
    }
    done += static_cast<std::uint64_t>(width);
  }
  const double seconds = watch.elapsed_s();
  const auto samples = static_cast<double>(kKernelSamples);
  out.set("kernel.sample_s", seconds / samples, "s");
  out.set("kernel.samples_per_s", samples / seconds, "1/s");
  out.set("kernel.touched_per_sample", static_cast<double>(touched) / samples,
          "vertices");
}

void probe_codec(const epoch::StateFrame& frame, Outcome& out) {
  std::vector<std::uint64_t> image;
  const double encode_s = median_time(9, [&] {
    image.clear();
    (void)frame.encode(image, epoch::FrameRep::kDense);
  });
  epoch::StateFrame sink(frame.num_vertices());
  const double decode_s = median_time(9, [&] { sink.decode_add(image); });
  std::vector<std::uint64_t> acc;
  const double merge_s = median_time(9, [&] {
    acc = image;
    epoch::merge_images(acc, image, frame.dense_words(),
                        /*densify_threshold=*/1.0);
  });
  out.set("codec.encode_s", encode_s, "s");
  out.set("codec.decode_add_s", decode_s, "s");
  out.set("codec.merge_images_s", merge_s, "s");
  out.set("codec.image_words", static_cast<double>(image.size()), "words");
}

/// One substrate per rank over the default network model; rank 0's
/// medians are reported.
void probe_comm(const epoch::StateFrame& frame, int ranks, Outcome& out) {
  constexpr int kReps = 9;
  std::vector<std::uint64_t> image;
  (void)frame.encode(image, epoch::FrameRep::kDense);
  double barrier_s = 0.0, reduce_s = 0.0, merge_s = 0.0;
  mpisim::Runtime runtime({.num_ranks = ranks, .ranks_per_node = 1});
  runtime.run([&](mpisim::Comm& comm) {
    const auto world =
        comm::make_substrate(comm::SubstrateKind::kMpisim, comm);
    const std::span<const std::uint64_t> send(image);
    std::vector<std::uint64_t> recv(image.size());
    epoch::StateFrame merged(frame.num_vertices());
    const double b = median_time(kReps, [&] {
      comm::Request request = world->ibarrier();
      request.wait();
    });
    const double r = median_time(kReps, [&] {
      world->reduce(send, std::span<std::uint64_t>(recv), 0);
    });
    const double m = median_time(kReps, [&] {
      world->allreduce_merge(send,
                             [&](int, std::span<const std::uint64_t> in) {
                               merged.decode_add(in);
                             });
    });
    if (world->rank() == 0) {
      barrier_s = b;
      reduce_s = r;
      merge_s = m;
    }
  });
  out.set("comm.barrier_s", barrier_s, "s");
  out.set("comm.reduce_s", reduce_s, "s");
  out.set("comm.allreduce_merge_s", merge_s, "s");
}

/// Both stopping functions over every vertex - the full sweep a check
/// pays when the rule holds (an early failing vertex ends it sooner).
void probe_stop(const bc::KadabraContext& context,
                const epoch::StateFrame& frame, Outcome& out) {
  double sink = 0.0;
  const double omega = static_cast<double>(context.omega);
  const std::uint64_t tau = frame.tau();
  const double seconds = median_time(5, [&] {
    for (std::uint32_t v = 0; v < frame.num_vertices(); ++v) {
      const double b = static_cast<double>(frame.count(v)) /
                       static_cast<double>(tau);
      sink += bc::stopping_f(b, context.calibration.delta_l[v], omega, tau);
      sink += bc::stopping_g(b, context.calibration.delta_u[v], omega, tau);
    }
  });
  g_sink = sink;
  out.set("stop.check_s", seconds, "s");
}

}  // namespace

void probe_layers(const graph::Graph& graph, const bc::KadabraParams& params,
                  int ranks, Outcome& out) {
  probe_diameter(graph, out);

  // Phase 2 as the drivers run it: diameter bound -> omega and the
  // calibration sample count, non-adaptive samples, delta balancing.
  const std::uint32_t vd = graph::vertex_diameter(graph, params.exact_diameter);
  bc::KadabraContext context;
  epoch::StateFrame frame(graph.num_vertices());
  {
    const Stopwatch watch;
    context = bc::begin_context(params, vd);
    bc::BatchSampler sampler(graph, Rng(params.seed).split(0), kSampleBatch);
    sampler.sample_batch(frame, context.initial_samples);
    bc::finish_calibration(context, frame);
    out.set("calibration.s", watch.elapsed_s(), "s");
  }
  out.set("calibration.samples", static_cast<double>(context.initial_samples),
          "count");

  probe_kernel(graph, params.seed, out);
  probe_codec(frame, out);
  probe_comm(frame, ranks, out);
  probe_stop(context, frame, out);
}

void probe_dynamic(const GraphPtr& graph,
                   const std::vector<dynamic::EdgeBatch>& batches,
                   const bc::KadabraParams& params, Outcome& out) {
  dynamic::IncrementalBc engine(params, dynamic::SketchParams{},
                                kSampleBatch);
  engine.run(graph);
  dynamic::MutableGraph mutable_graph(graph);
  std::vector<double> apply_s, connectivity_s, classify_s, refresh_s, dirty,
      retained;
  for (const dynamic::EdgeBatch& batch : batches) {
    const bool deletes = !batch.deletes().empty();
    Stopwatch watch;
    mutable_graph.apply(batch);
    const double applied = watch.elapsed_s();
    const GraphPtr& snapshot = mutable_graph.snapshot();
    watch = Stopwatch();
    const bool connected = graph::is_connected(*snapshot);
    const double connectivity = watch.elapsed_s();
    watch = Stopwatch();
    const auto classification = engine.ledger().classify(batch);
    const double classified = watch.elapsed_s();
    const std::uint32_t bound =
        deletes ? graph::vertex_diameter(*snapshot, params.exact_diameter) : 0;
    watch = Stopwatch();
    const auto stats = engine.refresh(snapshot, batch, bound);
    const double refreshed = watch.elapsed_s();
    if (!deletes || !connected) continue;  // time deletion batches only
    apply_s.push_back(applied);
    connectivity_s.push_back(connectivity);
    classify_s.push_back(classified);
    refresh_s.push_back(refreshed);
    dirty.push_back(static_cast<double>(classification.dirty.size()));
    retained.push_back(static_cast<double>(stats.retained));
  }
  out.set("dynamic.graph_apply_s", median(apply_s), "s");
  out.set("dynamic.connectivity_s", median(connectivity_s), "s");
  out.set("dynamic.classify_s", median(classify_s), "s");
  out.set("dynamic.refresh_s", median(refresh_s), "s");
  out.set("dynamic.samples_dirty", median(dirty), "count");
  out.set("dynamic.samples_retained", median(retained), "count");
  out.set("dynamic.rebuilds",
          static_cast<double>(mutable_graph.stats().rebuilds), "count");
}

namespace {

/// Mean-distance half-width of the probes: 1% of the 2-approximate vertex
/// diameter (at least half a hop), so high-diameter graphs do not need
/// hundreds of thousands of samples for a cost probe.
double probe_mean_epsilon(const graph::Graph& graph) {
  return std::max(0.5, 0.01 * graph::vertex_diameter(graph, /*exact=*/false));
}

}  // namespace

void probe_adaptive(const GraphPtr& graph, const api::Config& config,
                    Outcome& out) {
  api::Session session(graph, config);
  Stopwatch watch;
  const api::Result closeness =
      session.run(api::ClosenessRankQuery{.epsilon = 0.2, .delta = 0.1});
  out.set("adaptive.closeness_s", watch.elapsed_s(), "s");
  watch = Stopwatch();
  const api::Result mean =
      session.run(api::MeanDistanceQuery{
          .epsilon = probe_mean_epsilon(*graph), .delta = 0.1});
  out.set("adaptive.mean_distance_s", watch.elapsed_s(), "s");
  out.check(closeness.status.ok && mean.status.ok,
            "adaptive probe queries failed");
}

void probe_service(const GraphPtr& graph, const api::Config& config,
                   Outcome& out) {
  api::Config pooled = config;
  pooled.service_pool_size = 1;
  service::SessionPool pool(graph, pooled);
  const api::MeanDistanceQuery query{.epsilon = probe_mean_epsilon(*graph),
                                     .delta = 0.1};
  std::vector<double> queue_s, run_s;
  for (int i = 0; i < 3; ++i) {
    const service::Ticket ticket = pool.submit(query);
    const service::Response& response = ticket.wait();
    out.check(response.status.ok && response.result.status.ok,
              "service probe query failed");
    queue_s.push_back(response.queue_seconds);
    run_s.push_back(response.run_seconds);
  }
  out.set("service.queue_s", median(queue_s), "s");
  out.set("service.run_s", median(run_s), "s");
  out.set("service.calibration_reuses",
          static_cast<double>(pool.stats().calibration_reuses), "count");
}

void engine_metrics(const std::vector<api::Result>& results, Outcome& out) {
  std::vector<double> sampling, transition, stop, modeled;
  double samples = 0.0, epochs = 0.0, bytes = 0.0, aggregation = 0.0;
  for (const api::Result& r : results) {
    sampling.push_back(r.phases.seconds(Phase::kSampling));
    transition.push_back(r.phases.seconds(Phase::kEpochTransition));
    stop.push_back(r.phases.seconds(Phase::kStopCheck));
    modeled.push_back(r.comm_volume.modeled_seconds());
    samples = static_cast<double>(r.samples);
    epochs = static_cast<double>(r.epochs);
    bytes = static_cast<double>(r.comm_volume.total());
    aggregation = static_cast<double>(r.comm_volume.aggregation_bytes());
  }
  out.set("engine.samples", samples, "count");
  out.set("engine.epochs", epochs, "count");
  out.set("engine.sampling_s", median(sampling), "s");
  out.set("engine.transition_s", median(transition), "s");
  out.set("stop.phase_s", median(stop), "s");
  out.set("comm.bytes", bytes, "B");
  out.set("comm.aggregation_bytes", aggregation, "B");
  out.set("comm.modeled_s", median(modeled), "s_modeled");
}

}  // namespace perfbench
