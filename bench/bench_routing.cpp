// Routing fast-path microbenchmark — epoch-cached shortest paths.
//
// Workload: a k x k grid topology (k = 12, --quick 8), a stream of
// (src, dst) path queries through topo::PathCache, and periodic link
// churn (remove + re-add one grid edge every 4096 queries, so the epoch
// advances and the cache re-validates the way it does under the paper's
// link-fabrication/teardown attacks). Queries model flow locality the
// way RoutingService sees it — every PacketIn of a flow asks for the
// same (src, dst) path — so 80% of queries draw from a small hot set of
// switch pairs (re-drawn after each churn) and 20% are uniform.
//
// --trials N sets the query count (default 200k, --quick 20k). The
// printed checksum (total traversals over all queries) equals what a
// fresh BFS per query would give; tests/fastpath_test.cpp holds the
// cache to that reference. Cache hit/miss counters are printed on a
// [bench] line so the main stdout stays diffable across builds.
// Registered in ctest as a non-failing info test (bench.routing.info).
#include <cstdio>
#include <map>
#include <vector>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "sim/rng.hpp"
#include "topo/graph.hpp"
#include "topo/path_cache.hpp"

using namespace tmg;
using namespace tmg::bench;

namespace {

constexpr int kGridFull = 12;
constexpr int kGridQuick = 8;
constexpr std::size_t kChurnEvery = 4096;
constexpr std::size_t kHotPairs = 16;

struct Grid {
  topo::TopologyGraph graph;
  std::vector<std::pair<of::Location, of::Location>> edges;
  int side = 0;

  [[nodiscard]] of::Dpid dpid(int r, int c) const {
    return static_cast<of::Dpid>(r * side + c + 1);
  }
};

Grid build_grid(int side) {
  Grid grid;
  grid.side = side;
  std::map<of::Dpid, of::PortNo> next_port;
  const auto port_of = [&](of::Dpid d) {
    return ++next_port[d];  // ports 1, 2, ... per switch
  };
  const auto connect = [&](of::Dpid a, of::Dpid b) {
    const of::Location la{a, port_of(a)};
    const of::Location lb{b, port_of(b)};
    grid.graph.add_link(la, lb);
    grid.edges.emplace_back(la, lb);
  };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      if (c + 1 < side) connect(grid.dpid(r, c), grid.dpid(r, c + 1));
      if (r + 1 < side) connect(grid.dpid(r, c), grid.dpid(r + 1, c));
    }
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Microbench", "PathCache query throughput under link churn");

  const HarnessOptions opts = parse_harness_args(argc, argv);
  const std::size_t queries = opts.trial_count(200'000, 20'000);
  const int side = opts.quick ? kGridQuick : kGridFull;

  Grid grid = build_grid(side);
  topo::PathCache cache{grid.graph};
  sim::Rng rng{0xB010u};

  std::printf("  %dx%d grid (%zu links), %zu queries (80%% over %zu hot "
              "pairs), churn every %zu\n\n",
              side, side, grid.edges.size(), queries, kHotPairs, kChurnEvery);

  const auto switches = static_cast<std::int64_t>(side) * side;
  const auto edge_count = static_cast<std::int64_t>(grid.edges.size());
  const auto random_dpid = [&] {
    return static_cast<of::Dpid>(rng.uniform_int(1, switches));
  };
  std::vector<std::pair<of::Dpid, of::Dpid>> hot(kHotPairs);
  const auto redraw_hot = [&] {
    for (auto& pair : hot) pair = {random_dpid(), random_dpid()};
  };
  redraw_hot();

  WallTimer timer;
  std::uint64_t total_traversals = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t churns = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    if (q != 0 && q % kChurnEvery == 0) {
      // Tear one edge down and put it back: the link set ends unchanged
      // but the epoch advances twice, invalidating every cached path.
      const auto& [a, b] = grid.edges[static_cast<std::size_t>(
          rng.uniform_int(0, edge_count - 1))];
      grid.graph.remove_link(a, b);
      grid.graph.add_link(a, b);
      ++churns;
      redraw_hot();  // flows shift when the topology does
    }
    of::Dpid from;
    of::Dpid to;
    if (rng.uniform_int(0, 9) < 8) {
      const auto& pair = hot[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kHotPairs) - 1))];
      from = pair.first;
      to = pair.second;
    } else {
      from = random_dpid();
      to = random_dpid();
    }
    const auto path = cache.path(from, to);
    if (path.has_value()) {
      total_traversals += path->size();
    } else {
      ++unreachable;
    }
  }
  const double wall_ms = timer.elapsed_ms();

  // Grid stays connected (churn restores every edge), so unreachable
  // must be 0.
  std::printf("  checksum: traversals=%llu unreachable=%llu churns=%llu\n",
              static_cast<unsigned long long>(total_traversals),
              static_cast<unsigned long long>(unreachable),
              static_cast<unsigned long long>(churns));
  std::printf("[bench] path cache: hits=%llu misses=%llu entries=%zu\n",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()), cache.size());

  BenchResult result;
  result.bench = "routing";
  result.trials = queries;
  result.base_seed = 0xB010u;
  result.jobs = 1;  // single-threaded by construction
  result.wall_ms = wall_ms;
  result.events = queries;
  report_bench(opts, result);
  return 0;  // info bench: never fails ctest on timing
}
