// Hand-computed checks of the benchmark's reference computations on a
// path, a star and a cycle. Exits non-zero on the first mismatch.
//
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "reference.hpp"

namespace {

int failures = 0;

void expect_near(double actual, double expected, const char* what) {
  if (std::fabs(actual - expected) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.15g, want %.15g\n", what, actual,
                 expected);
    ++failures;
  }
}

void expect_all(const std::vector<double>& actual,
                const std::vector<double>& expected, const char* what) {
  if (actual.size() != expected.size()) {
    std::fprintf(stderr, "FAIL %s: %zu values, want %zu\n", what,
                 actual.size(), expected.size());
    ++failures;
    return;
  }
  for (std::size_t i = 0; i < actual.size(); ++i)
    expect_near(actual[i], expected[i], what);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

int main() {
  using perfbench::ref::Adjacency;
  namespace ref = perfbench::ref;

  // Path 0-1-2-3: each inner vertex lies on the 2 unordered pairs that
  // cross it, i.e. 4 of the 12 ordered pairs.
  const Adjacency path(4, {{0, 1}, {1, 2}, {2, 3}});
  expect_all(ref::brandes(path), {0.0, 1.0 / 3, 1.0 / 3, 0.0},
             "path betweenness");
  expect_all(ref::harmonic_closeness(path),
             {(1 + 0.5 + 1.0 / 3) / 3, 2.5 / 3, 2.5 / 3,
              (1 + 0.5 + 1.0 / 3) / 3},
             "path closeness");
  expect_near(ref::mean_distance(path), 10.0 / 6, "path mean distance");

  // Star, center 0 and 4 leaves: the center is on all 12 ordered leaf
  // pairs out of 20; 4 pairs at distance 1 and 6 at distance 2.
  const Adjacency star(5, {{0, 1}, {0, 2}, {0, 3}, {4, 0}});
  expect_all(ref::brandes(star), {0.6, 0.0, 0.0, 0.0, 0.0},
             "star betweenness");
  expect_all(ref::harmonic_closeness(star), {1.0, 0.625, 0.625, 0.625, 0.625},
             "star closeness");
  expect_near(ref::mean_distance(star), 1.6, "star mean distance");

  // Cycle C5: each vertex is the unique midpoint of its two neighbors (2
  // ordered pairs of 20); distances 1, 1, 2, 2 from every vertex.
  const Adjacency c5(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  expect_all(ref::brandes(c5), std::vector<double>(5, 0.1),
             "C5 betweenness");
  expect_all(ref::harmonic_closeness(c5), std::vector<double>(5, 0.75),
             "C5 closeness");
  expect_near(ref::mean_distance(c5), 1.5, "C5 mean distance");

  // Cycle C4: opposite vertices have two shortest paths, so each vertex
  // carries half of one pair in each direction: 1 of 12.
  const Adjacency c4(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  expect_all(ref::brandes(c4), std::vector<double>(4, 1.0 / 12),
             "C4 betweenness");

  // Threads split the sources without changing any sum.
  expect_all(ref::brandes(c5, 3), ref::brandes(c5, 1), "threaded brandes");
  expect_all(ref::harmonic_closeness(path, 3), ref::harmonic_closeness(path),
             "threaded closeness");
  expect_near(ref::mean_distance(star, 2), 1.6, "threaded mean distance");

  // Identity the social_mpi check relies on: scores sum to mean distance
  // minus one (the interior vertices of an average shortest path).
  for (const Adjacency* graph : {&path, &star, &c5, &c4})
    expect_near(sum(ref::brandes(*graph)), ref::mean_distance(*graph) - 1,
                "sum of betweenness");

  // BFS from every source gives the exact mean; duplicate and reversed
  // edges are dropped by the adjacency.
  expect_near(ref::mean_distance_from(c5, {0, 1, 2, 3, 4}), 1.5,
              "mean distance from all sources");
  expect_near(ref::mean_distance_from(star, {0}), 1.0, "star from center");
  const Adjacency duplicated(3, {{0, 1}, {1, 0}, {1, 2}, {2, 2}, {1, 2}});
  expect_near(static_cast<double>(duplicated.num_edges()), 2.0,
              "deduplicated edge count");

  if (failures != 0) {
    std::fprintf(stderr, "%d reference check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("reference checks passed\n");
  return EXIT_SUCCESS;
}
