// Flow-table fast-path microbenchmark — dst-MAC-indexed lookup and
// heap-based expiry.
//
// Workload: one of::FlowTable driven by a deterministic op mix shaped
// like a live reactive switch: lookups dominate (90%), with a trickle
// of adds (4%), exact-match deletes (2%), and timeout sweeps (4%).
// Installed rules are dst-keyed forwarding entries (as a reactive L2
// controller produces) plus rare src-constrained dst-wildcard
// monitoring rules at lower priority. MACs come from a 256-host
// universe and rules live for simulated seconds while the clock steps a
// millisecond per op, so the table holds a few hundred entries in
// steady state — the regime where a linear scan walks half the table on
// a hit and all of it on a miss, but the dst-MAC index visits only the
// packet's own bucket plus the wildcard rules.
//
// --trials N sets the op count (default 400k, --quick 40k). The printed
// checksum (lookup hits, expired entries, final table size) is a pure
// function of the op count; tests/fastpath_test.cpp holds the indexed
// table to its linear-scan reference.
// Registered in ctest as a non-failing info test (bench.flow_table.info).
#include <cstdio>

#include "bench_harness.hpp"
#include "bench_util.hpp"
#include "of/flow_table.hpp"
#include "sim/rng.hpp"

using namespace tmg;
using namespace tmg::bench;
using sim::Duration;
using sim::SimTime;

namespace {

constexpr std::int64_t kHosts = 256;

}  // namespace

int main(int argc, char** argv) {
  banner("Microbench", "FlowTable lookup/add/expire throughput");

  const HarnessOptions opts = parse_harness_args(argc, argv);
  const std::size_t ops = opts.trial_count(400'000, 40'000);

  of::FlowTable table;
  sim::Rng rng{0xF107u};
  SimTime now = SimTime::zero();

  const auto random_mac = [&] {
    return net::MacAddress::host(
        static_cast<std::uint32_t>(rng.uniform_int(1, kHosts)));
  };

  std::printf("  %zu ops (90%% lookup / 4%% add / 2%% delete / 4%% expire), "
              "%lld-host MAC universe,\n  dst-keyed rules + rare "
              "dst-wildcard monitoring rules\n\n",
              ops, static_cast<long long>(kHosts));

  WallTimer timer;
  std::uint64_t hits = 0;
  std::uint64_t expired = 0;
  std::uint64_t installed = 0;
  std::uint64_t next_cookie = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    now = now + Duration::millis(1);
    const auto op = rng.uniform_int(0, 99);
    if (op < 90) {
      net::Packet pkt;
      pkt.src_mac = random_mac();
      pkt.dst_mac = random_mac();
      const auto in_port = static_cast<of::PortNo>(rng.uniform_int(1, 8));
      if (table.lookup(pkt, in_port, now) != nullptr) ++hits;
    } else if (op < 94) {
      of::FlowEntry e;
      e.cookie = next_cookie++;
      if (rng.uniform_int(0, 19) == 0) {
        // Monitoring rule: src-constrained, dst-wildcard, low priority.
        e.match.src_mac = random_mac();
        e.priority = static_cast<std::uint16_t>(rng.uniform_int(90, 93));
      } else {
        e.match.dst_mac = random_mac();
        if (rng.uniform_int(0, 9) < 3) e.match.src_mac = random_mac();
        e.priority = static_cast<std::uint16_t>(rng.uniform_int(100, 103));
      }
      e.idle_timeout = Duration::seconds(rng.uniform_int(2, 10));
      if (rng.uniform_int(0, 3) == 0)
        e.hard_timeout = Duration::seconds(rng.uniform_int(5, 30));
      table.add(e, now);
      ++installed;
    } else if (op < 96) {
      of::FlowMatch m;
      m.dst_mac = random_mac();
      expired += table.remove_matching(m).size();
    } else {
      expired += table.expire(now).size();
    }
  }
  const double wall_ms = timer.elapsed_ms();

  std::printf("  checksum: hits=%llu removed=%llu installed=%llu "
              "final_size=%zu\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(expired),
              static_cast<unsigned long long>(installed), table.size());

  BenchResult result;
  result.bench = "flow_table";
  result.trials = ops;
  result.base_seed = 0xF107u;
  result.jobs = 1;  // single-threaded by construction
  result.wall_ms = wall_ms;
  result.events = ops;
  report_bench(opts, result);
  return 0;  // info bench: never fails ctest on timing
}
