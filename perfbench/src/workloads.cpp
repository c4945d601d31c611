// The four workloads. Each one sets up its inputs from --seed, warms up,
// then runs whole rounds of the same operations through the public API
// until --seconds have elapsed, and finally checks the answers against the
// benchmark's own reference computations (reference.hpp).
//
// Untraced runs report the end-to-end metrics; traced runs record spans
// around the same calls and add the isolated layer probes (probes.hpp).
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "api/session.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/instances.hpp"
#include "graph/components.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "service/dispatcher.hpp"

namespace perfbench {

namespace {

using namespace distbc;

constexpr double kDelta = 0.1;
/// Threads for the reference computations, which run after the timed
/// loop (the thread budget of the timed part is unaffected).
constexpr int kCheckThreads = 3;
/// Epsilon of the dynamic-layer probe on workloads that do not churn.
constexpr double kProbeEpsilon = 0.05;

// road_cold: roadNet-PA proxy (perturbed 180 x 60 grid, ~10.8k vertices,
// hop diameter ~240) at 1 rank x 1 thread.
constexpr double kRoadScale = 0.25;
constexpr double kRoadEpsilon = 0.02;

// social_mpi: twitter proxy (R-MAT 2^14 vertices, edge factor 35, largest
// component ~14k vertices / 420k edges, hop diameter ~5) at 3 ranks x 1
// thread, with the short epochs the existing benches use.
constexpr double kSocialScale = 0.25;
constexpr double kSocialEpsilon = 0.004;
constexpr int kSocialRanks = 3;
constexpr std::uint64_t kSocialEpochBase = 50;
/// Sources of the benchmark's own BFS mean-distance estimate.
constexpr std::uint32_t kMeanDistanceSources = 512;

// ba_churn: Barabasi-Albert, n = 10000, attach 2, with FIXED inputs: the
// generator seed, the churn and the sampling seed do not depend on --seed.
// iFUB's BFS count swings from 5 to 8079 across generator seeds, which
// would make apply time a lottery of the seed; and the incremental answer
// after churn misses epsilon on some churn sequences only (1 of churn
// seeds 1-10, CHANGES.md, FOUND), which would make the run's verdict one.
// Churn seed 8 shows that fault in every run, as the failed final query of
// every round.
constexpr graph::Vertex kBaVertices = 10000;
constexpr std::uint32_t kBaAttach = 2;
constexpr std::uint64_t kBaGeneratorSeed = 7;
constexpr std::uint64_t kChurnSeed = 8;
constexpr double kChurnEpsilon = 0.02;
/// Deletion batches per round; eight distinct ones keep the 90th
/// percentile off the single most expensive batch.
constexpr int kDeletionBatches = 8;
/// Churn per batch as a share of the edges (inserts + deletes).
constexpr double kChurnShare = 0.001;

// service_mix: two small graphs behind one Dispatcher. The graphs come
// from a FIXED generator seed: across generator seeds these small
// instances move the 90th-percentile latency and qps by ~20% (two 5-seed
// sets measured), more than any bound allows. --seed drives the sampling
// streams; every round sends the six requests in the same order.
constexpr std::uint64_t kServiceGraphSeed = 1;
constexpr double kServiceRoadScale = 1.0;    // quick-road: 80 x 40 grid
constexpr double kServiceSocialScale = 1.0;  // quick-social: R-MAT 2^11
constexpr int kPoolSize = 2;
constexpr int kInFlight = 2;
constexpr double kServiceBcEpsilon = 0.02;
constexpr double kServiceClosenessEpsilon = 0.05;
/// Mean-distance half-width in hops, per graph: the road grid's distances
/// span ~100 hops, so its confidence interval needs a wider target for a
/// comparable sample count.
constexpr double kServiceMeanEpsilon[2] = {1.0, 0.1};
constexpr std::size_t kTopK = 10;
/// At least this many rounds (of 6 requests) per run, so the 90th
/// percentile has at least 40 samples under it.
constexpr std::size_t kMinServiceRounds = 7;

/// Runs `round` until `seconds` have elapsed and at least `min_rounds`
/// rounds ran; returns the wall time of all rounds.
template <typename Fn>
double run_rounds(double seconds, int min_rounds, Fn&& round) {
  const Stopwatch wall;
  for (int rounds = 0; rounds < min_rounds || wall.elapsed_s() < seconds;
       ++rounds)
    round();
  return wall.elapsed_s();
}

std::shared_ptr<const graph::Graph> timed_build(
    Tracer& tracer, const std::function<graph::Graph()>& build) {
  const Tracer::Scope span(tracer, "gen.build");
  return std::make_shared<const graph::Graph>(build());
}

std::unique_ptr<api::Session> timed_session(Tracer& tracer,
                                            const GraphPtr& graph,
                                            const api::Config& config,
                                            std::uint64_t request = 0) {
  const Tracer::Scope span(tracer, "api.session_ctor", request);
  return std::make_unique<api::Session>(graph, config);
}

bc::KadabraParams params_of(const api::Config& config, double epsilon) {
  bc::KadabraParams params;
  params.epsilon = epsilon;
  params.delta = kDelta;
  params.exact_diameter = config.exact_diameter;
  params.seed = config.seed;
  return params;
}

double max_abs_error(const std::vector<double>& estimate,
                     const std::vector<double>& exact) {
  if (estimate.size() != exact.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t v = 0; v < exact.size(); ++v)
    worst = std::max(worst, std::fabs(estimate[v] - exact[v]));
  return worst;
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

/// End-to-end metrics (untraced) or the traced query time and the set-up
/// spans (traced).
void report(Outcome& out, const Args& args, const Tracer& tracer,
            double setup_s, const std::vector<double>& latencies,
            double wall_s, double rss_mb) {
  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("query_s", median(latencies), "s");
    out.set("query_p90_s", quantile(latencies, 0.9), "s");
    out.set("qps", static_cast<double>(latencies.size()) / wall_s, "1/s");
    out.set("peak_rss_mb", rss_mb, "MB");
    return;
  }
  double build_s = 0.0;
  for (const double d : tracer.durations("gen.build")) build_s += d;
  out.set("traced.query_s", median(latencies), "s");
  out.set("gen.build_s", build_s, "s");
  out.set("api.session_ctor_s", median(tracer.durations("api.session_ctor")),
          "s");
}

/// The layer probes plus a dynamic probe of two deletion batches of 0.1%
/// churn at kProbeEpsilon, for the workloads that do not churn themselves.
void common_probes(const GraphPtr& graph, const api::Config& config,
                   double epsilon, std::uint64_t seed, Outcome& out) {
  probe_layers(*graph, params_of(config, epsilon), config.ranks, out);
  const auto per_side =
      std::max<std::uint64_t>(1, graph->num_edges() / 2000);
  const auto batches = make_churn(graph, 2, per_side, Rng(seed).split(7));
  probe_dynamic(graph, batches, params_of(config, kProbeEpsilon), out);
}

// --- road_cold and social_mpi -----------------------------------------------

/// The timed part both cold-query workloads share: a warm-up query on the
/// set-up session, then rounds of one cold query on a fresh session each,
/// every one checked bitwise against the warm-up answer.
struct ColdQueries {
  api::Result first;
  std::vector<double> latencies;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  std::vector<api::Result> traced;  // traced runs only
};

ColdQueries run_cold_queries(const Args& args, Tracer& tracer,
                             const GraphPtr& graph, const api::Config& config,
                             api::Session& setup_session,
                             const api::BetweennessQuery& query,
                             const std::string& name, Outcome& out) {
  ColdQueries runs;
  runs.first = setup_session.run(query);
  out.check(runs.first.status.ok,
            name + ": warm-up query failed: " + runs.first.status.message);
  std::uint64_t request = 0;
  runs.wall_s = run_rounds(args.seconds, 3, [&] {
    ++request;
    const auto fresh = timed_session(tracer, graph, config, request);
    const Stopwatch watch;
    api::Result result;
    {
      const Tracer::Scope span(tracer, "api.query", request);
      result = fresh->run(query);
    }
    runs.latencies.push_back(watch.elapsed_s());
    ++out.attempted;
    if (!result.status.ok) {
      ++out.failed;
      return;
    }
    out.check(result.samples == runs.first.samples &&
                  result.epochs == runs.first.epochs &&
                  result.scores == runs.first.scores,
              name + ": a cold query differs from the first one");
    if (args.trace) runs.traced.push_back(std::move(result));
  });
  runs.rss_mb = peak_rss_mb();
  return runs;
}

Outcome road_cold(const Args& args, Tracer& tracer) {
  Outcome out;
  const GraphPtr graph = timed_build(tracer, [&] {
    return gen::instance_by_name("road-pa-proxy").build(kRoadScale, args.seed);
  });
  const api::Config config = pinned_config(1, args.seed);
  const api::BetweennessQuery query{.epsilon = kRoadEpsilon, .delta = kDelta};
  const auto session = timed_session(tracer, graph, config);
  const double setup_s = since_start_s();
  const ColdQueries runs = run_cold_queries(args, tracer, graph, config,
                                            *session, query, "road_cold", out);

  const std::vector<double> exact =
      ref::brandes(to_reference(*graph), kCheckThreads);
  const double error = max_abs_error(runs.first.scores, exact);
  out.check(error <= kRoadEpsilon,
            fmt("road_cold: max |b~ - b| = %.5f > eps %.3f", error,
                kRoadEpsilon));
  tracer.count("check.road_max_error", error);

  report(out, args, tracer, setup_s, runs.latencies, runs.wall_s, runs.rss_mb);
  if (args.trace) {
    engine_metrics(runs.traced, out);
    common_probes(graph, config, kRoadEpsilon, args.seed, out);
    probe_adaptive(graph, config, out);
    probe_service(graph, config, out);
  }
  return out;
}

api::Config social_config(int ranks, std::uint64_t seed) {
  api::Config config = pinned_config(ranks, seed);
  config.epoch_base = kSocialEpochBase;
  // Three virtual streams at every shape: the 1 x 1 check run then draws
  // exactly the samples of the 3-rank run.
  config.virtual_streams = kSocialRanks;
  return config;
}

Outcome social_mpi(const Args& args, Tracer& tracer) {
  Outcome out;
  const GraphPtr graph = timed_build(tracer, [&] {
    return gen::instance_by_name("twitter-proxy").build(kSocialScale,
                                                        args.seed);
  });
  const api::Config config = social_config(kSocialRanks, args.seed);
  const api::BetweennessQuery query{.epsilon = kSocialEpsilon,
                                    .delta = kDelta};
  const auto session = timed_session(tracer, graph, config);
  const double setup_s = since_start_s();
  const ColdQueries runs = run_cold_queries(
      args, tracer, graph, config, *session, query, "social_mpi", out);
  const api::Result& first = runs.first;

  // 1 x 1 run of the same query: no collective runs, same samples.
  {
    api::Session sequential(graph, social_config(1, args.seed));
    const Stopwatch watch;
    const api::Result single = sequential.run(query);
    tracer.count("check.social_1x1_query_s", watch.elapsed_s());
    out.check(single.status.ok && single.scores == first.scores,
              "social_mpi: 3-rank scores differ from the 1 x 1 run");
  }
  bool in_range = true;
  double score_sum = 0.0;
  for (const double score : first.scores) {
    in_range &= score >= 0.0 && score <= 1.0;
    score_sum += score;
  }
  out.check(in_range, "social_mpi: a score lies outside [0, 1]");

  // Sum of scores = mean distance - 1 (interior vertices of an average
  // shortest path). Hoeffding on both estimates, each with failure
  // probability 1e-4; distances lie in [1, D] with D <= 2 ecc(s) for any s.
  const ref::Adjacency adjacency = to_reference(*graph);
  Rng rng = Rng(args.seed).split(3);
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i = 0; i < kMeanDistanceSources; ++i)
    sources.push_back(
        static_cast<std::uint32_t>(rng.next_bounded(graph->num_vertices())));
  const double mean = ref::mean_distance_from(adjacency, sources);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : ref::bfs_distances(adjacency, sources[0]))
    ecc = std::max(ecc, d);
  const double range = 2.0 * ecc - 1.0;
  const double log_term = std::log(2.0 / 1e-4);
  const double bound =
      range * (std::sqrt(log_term / (2.0 * static_cast<double>(first.samples))) +
               std::sqrt(log_term / (2.0 * sources.size())));
  out.check(std::fabs(score_sum - (mean - 1.0)) <= bound,
            fmt("social_mpi: score sum %.4f vs mean distance - 1 = %.4f",
                score_sum, mean - 1.0));
  tracer.count("check.social_sum_gap", std::fabs(score_sum - (mean - 1.0)));
  tracer.count("check.social_sum_bound", bound);

  report(out, args, tracer, setup_s, runs.latencies, runs.wall_s, runs.rss_mb);
  if (args.trace) {
    engine_metrics(runs.traced, out);
    common_probes(graph, config, kSocialEpsilon, args.seed, out);
    probe_adaptive(graph, config, out);
    probe_service(graph, config, out);
  }
  return out;
}

// --- ba_churn ---------------------------------------------------------------

/// The benchmark's own edge set after `batches`, replayed from the lists.
std::vector<ref::Edge> tracked_edges(
    const graph::Graph& initial,
    const std::vector<dynamic::EdgeBatch>& batches) {
  std::set<ref::Edge> edges;
  for (graph::Vertex u = 0; u < initial.num_vertices(); ++u)
    for (const graph::Vertex v : initial.neighbors(u))
      if (u < v) edges.emplace(u, v);
  for (const dynamic::EdgeBatch& batch : batches) {
    for (const dynamic::Edge& e : batch.inserts()) edges.emplace(e.u, e.v);
    for (const dynamic::Edge& e : batch.deletes()) edges.erase({e.u, e.v});
  }
  return {edges.begin(), edges.end()};
}

Outcome ba_churn(const Args& args, Tracer& tracer) {
  Outcome out;
  const GraphPtr graph = timed_build(tracer, [] {
    return graph::largest_component(
        gen::barabasi_albert(kBaVertices, kBaAttach, kBaGeneratorSeed));
  });
  const auto per_side = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(kChurnShare *
                                    static_cast<double>(graph->num_edges()) /
                                    2.0 +
                                    0.5));
  const std::vector<dynamic::EdgeBatch> batches = make_churn(
      graph, kDeletionBatches, per_side, Rng(kChurnSeed).split(2));
  const api::Config config = pinned_config(1, kChurnSeed);
  const api::BetweennessQuery query{
      .epsilon = kChurnEpsilon, .delta = kDelta, .incremental = true};
  auto session = timed_session(tracer, graph, config);
  const double setup_s = since_start_s();

  const api::Result warm = session->run(query);  // warm-up
  out.check(warm.status.ok, "ba_churn: warm-up query failed: " +
                                warm.status.message);
  // The benchmark's own edge set after the churn, and Brandes on it, for
  // the final query of every round.
  const std::vector<ref::Edge> edges = tracked_edges(*graph, batches);
  const std::vector<double> exact = ref::brandes(
      ref::Adjacency(graph->num_vertices(), edges), kCheckThreads);

  std::vector<double> latencies;
  std::vector<double> final_scores;
  GraphPtr final_snapshot;
  std::uint64_t request = 0;
  const double wall_s = run_rounds(args.seconds, 2, [&] {
    ++request;
    const auto fresh = timed_session(tracer, graph, config, request);
    api::Result result;
    {
      const Tracer::Scope span(tracer, "api.first_query", request);
      result = fresh->run(query);
    }
    ++out.attempted;
    if (!result.status.ok) {
      ++out.failed;
      return;
    }
    for (const dynamic::EdgeBatch& batch : batches) {
      const Stopwatch watch;
      dynamic::ApplyReport applied;
      {
        const Tracer::Scope span(tracer, "api.apply", request);
        applied = fresh->apply(batch);
      }
      ++out.attempted;
      if (!applied.status.ok) {
        ++out.failed;
        return;
      }
      {
        const Tracer::Scope span(tracer, "api.query", request);
        result = fresh->run(query);
      }
      ++out.attempted;
      if (!result.status.ok) {
        ++out.failed;
        return;
      }
      if (applied.had_deletes) latencies.push_back(watch.elapsed_s());
      tracer.count("dynamic.session_samples_dirty",
                   static_cast<double>(applied.samples_dirty));
    }
    // The round's final answer against Brandes on the tracked edge set.
    // On these fixed inputs the incremental engine misses epsilon (max
    // error 0.030 against 0.02) in every round; the miss is counted as
    // the round's failed operation.
    const double error = max_abs_error(result.scores, exact);
    if (error > kChurnEpsilon) ++out.failed;
    if (final_scores.empty()) {
      final_scores = result.scores;
      final_snapshot = fresh->dynamic_state()->snapshot();
      tracer.count("check.churn_final_error", error);
    }
    out.check(result.scores == final_scores,
              "ba_churn: a round's final scores differ from the first");
  });
  const double rss_mb = peak_rss_mb();

  out.check(final_snapshot != nullptr &&
                final_snapshot->num_edges() == edges.size(),
            "ba_churn: snapshot edge count differs from the tracked edge set");
  const double warm_error = max_abs_error(
      warm.scores, ref::brandes(to_reference(*graph), kCheckThreads));
  out.check(warm_error <= kChurnEpsilon,
            fmt("ba_churn: max |b~ - b| before churn = %.5f > eps %.3f",
                warm_error, kChurnEpsilon));
  tracer.count("check.churn_warm_error", warm_error);

  report(out, args, tracer, setup_s, latencies, wall_s, rss_mb);
  if (args.trace) {
    // The incremental engine runs its own epoch loop; the engine layer is
    // read from one plain query on the churned graph.
    api::Session plain(final_snapshot, config);
    const api::Result result =
        plain.run(api::BetweennessQuery{.epsilon = kChurnEpsilon,
                                        .delta = kDelta});
    out.check(result.status.ok, "ba_churn: plain probe query failed");
    engine_metrics({result}, out);
    probe_layers(*graph, params_of(config, kChurnEpsilon), 1, out);
    probe_dynamic(graph, batches, params_of(config, kChurnEpsilon), out);
    probe_adaptive(graph, config, out);
    probe_service(graph, config, out);
  }
  return out;
}

// --- service_mix ------------------------------------------------------------

struct ServiceGraph {
  std::string id;
  GraphPtr graph;
  std::vector<double> betweenness, closeness;
  double mean_distance = 0.0;
};

Outcome service_mix(const Args& args, Tracer& tracer) {
  Outcome out;
  std::vector<ServiceGraph> graphs(2);
  graphs[0].id = "road";
  graphs[0].graph = timed_build(tracer, [&] {
    return gen::instance_by_name("quick-road").build(kServiceRoadScale,
                                                     kServiceGraphSeed);
  });
  graphs[1].id = "social";
  graphs[1].graph = timed_build(tracer, [&] {
    return gen::instance_by_name("quick-social").build(kServiceSocialScale,
                                                       kServiceGraphSeed);
  });
  api::Config config = pinned_config(1, args.seed);
  config.service_pool_size = kPoolSize;
  service::Dispatcher dispatcher;
  for (const ServiceGraph& g : graphs) {
    const Tracer::Scope span(tracer, "api.session_ctor");
    const api::Status status = dispatcher.bind(g.id, g.graph, config);
    out.check(status.ok, "service_mix: bind failed: " + status.message);
  }
  const double setup_s = since_start_s();

  // One round: the three query kinds on each graph.
  std::vector<service::Request> mix;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const std::string& id = graphs[g].id;
    mix.push_back({"client", id,
                   api::BetweennessQuery{.epsilon = kServiceBcEpsilon,
                                         .delta = kDelta,
                                         .top_k = kTopK}});
    mix.push_back({"client", id,
                   api::ClosenessRankQuery{.epsilon = kServiceClosenessEpsilon,
                                           .delta = kDelta,
                                           .top_k = kTopK}});
    mix.push_back({"client", id,
                   api::MeanDistanceQuery{.epsilon = kServiceMeanEpsilon[g],
                                          .delta = kDelta}});
  }
  // Warm-up round, one request at a time: calibrates betweenness on each
  // graph and keeps every first answer as the bitwise reference.
  std::vector<api::Result> reference;
  for (const service::Request& request : mix) {
    const service::Ticket ticket = dispatcher.submit(request);
    const service::Response& response = ticket.wait();
    out.check(response.status.ok && response.result.status.ok,
              "service_mix: warm-up request failed");
    reference.push_back(response.result);
  }

  // Closed loop: kInFlight client threads, each waiting for its answer
  // before sending the next request, stopping only at round boundaries so
  // every run issues whole rounds.
  std::mutex mutex;
  std::size_t next = 0;
  bool stop = false;
  std::vector<double> latencies;
  std::vector<service::Response> responses;  // traced runs only
  std::vector<std::size_t> kinds;
  std::uint64_t mismatches = 0, failures = 0;
  const Stopwatch wall;
  auto client = [&] {
    while (true) {
      std::size_t index = 0;
      {
        const std::scoped_lock lock(mutex);
        if (stop) return;
        if (next % mix.size() == 0 && wall.elapsed_s() >= args.seconds &&
            next >= kMinServiceRounds * mix.size()) {
          stop = true;
          return;
        }
        index = next++;
      }
      const std::size_t kind = index % mix.size();
      const Stopwatch watch;
      service::Response response;
      {
        const Tracer::Scope span(tracer, "service.request", index + 1);
        response = dispatcher.submit(mix[kind]).wait();
      }
      const double latency = watch.elapsed_s();
      const bool ok = response.status.ok && response.result.status.ok;
      const api::Result& r = response.result;
      const api::Result& want = reference[kind];
      const bool same = r.scores == want.scores && r.top_k == want.top_k &&
                        r.mean == want.mean;
      const std::scoped_lock lock(mutex);
      latencies.push_back(latency);
      failures += ok ? 0 : 1;
      mismatches += ok && !same ? 1 : 0;
      if (args.trace) {
        kinds.push_back(kind);
        responses.push_back(std::move(response));
      }
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kInFlight; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  const double wall_s = wall.elapsed_s();
  const double rss_mb = peak_rss_mb();
  out.attempted = latencies.size();
  out.failed = failures;
  out.check(mismatches == 0,
            "service_mix: identical requests gave different answers");

  // Exact references on both graphs, against the warm-up answers (every
  // later answer is bitwise identical to them).
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const ref::Adjacency adjacency = to_reference(*graphs[g].graph);
    const std::vector<double> exact_bc = ref::brandes(adjacency, kCheckThreads);
    const std::vector<double> exact_cl =
        ref::harmonic_closeness(adjacency, kCheckThreads);
    const double exact_mean = ref::mean_distance(adjacency, kCheckThreads);
    const api::Result& bc_answer = reference[3 * g];
    const api::Result& cl_answer = reference[3 * g + 1];
    const api::Result& md_answer = reference[3 * g + 2];
    double bc_error = max_abs_error(bc_answer.scores, exact_bc);
    for (const auto& [v, score] : bc_answer.top_k)
      bc_error = std::max(bc_error, std::fabs(score - exact_bc[v]));
    double cl_error = max_abs_error(cl_answer.scores, exact_cl);
    for (const auto& [v, score] : cl_answer.top_k)
      cl_error = std::max(cl_error, std::fabs(score - exact_cl[v]));
    const double md_error = std::fabs(md_answer.mean - exact_mean);
    out.check(bc_error <= kServiceBcEpsilon,
              fmt("service_mix: betweenness error %.5f > %.3f", bc_error,
                  kServiceBcEpsilon));
    out.check(cl_error <= kServiceClosenessEpsilon,
              fmt("service_mix: closeness error %.5f > %.3f", cl_error,
                  kServiceClosenessEpsilon));
    out.check(md_error <= kServiceMeanEpsilon[g],
              fmt("service_mix: mean distance error %.5f > %.3f", md_error,
                  kServiceMeanEpsilon[g]));
    tracer.count("check.service_bc_error_" + graphs[g].id, bc_error);
    tracer.count("check.service_closeness_error_" + graphs[g].id, cl_error);
    tracer.count("check.service_mean_error_" + graphs[g].id, md_error);
  }

  report(out, args, tracer, setup_s, latencies, wall_s, rss_mb);
  if (args.trace) {
    std::vector<double> queue_s, run_s, closeness_s, mean_s;
    std::vector<api::Result> betweenness;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      queue_s.push_back(responses[i].queue_seconds);
      run_s.push_back(responses[i].run_seconds);
      switch (kinds[i] % 3) {
        case 0: betweenness.push_back(responses[i].result); break;
        case 1: closeness_s.push_back(responses[i].run_seconds); break;
        default: mean_s.push_back(responses[i].run_seconds); break;
      }
    }
    double reuses = 0.0;
    for (const ServiceGraph& g : graphs)
      reuses += static_cast<double>(
          dispatcher.pool(g.id)->stats().calibration_reuses);
    out.set("service.queue_s", median(queue_s), "s");
    out.set("service.run_s", median(run_s), "s");
    out.set("service.calibration_reuses", reuses, "count");
    out.set("adaptive.closeness_s", median(closeness_s), "s");
    out.set("adaptive.mean_distance_s", median(mean_s), "s");
    engine_metrics(betweenness, out);
    common_probes(graphs[0].graph, config, kServiceBcEpsilon, args.seed, out);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"road_cold", "social_mpi",
                                                 "ba_churn", "service_mix"};
  return names;
}

Outcome run_workload(const Args& args, Tracer& tracer) {
  if (args.workload == "road_cold") return road_cold(args, tracer);
  if (args.workload == "social_mpi") return social_mpi(args, tracer);
  if (args.workload == "ba_churn") return ba_churn(args, tracer);
  return service_mix(args, tracer);
}

}  // namespace perfbench
