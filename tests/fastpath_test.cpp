// Randomized equivalence tests for the caches and tables on the hot path.
//
// Each structure (epoch-keyed PathCache, incremental LatencyWindow,
// DedupRing, and the linear FlowTable) is driven with random operation
// sequences and compared, step by step, against a plain reference. The
// flow table's reference is the same linear algorithm as src/, written
// out independently here as the oracle. Seeded Rng, so failures are
// reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "ctrl/dedup_ring.hpp"
#include "of/flow_table.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"
#include "stats/latency_window.hpp"
#include "stats/quantile.hpp"
#include "topo/generate.hpp"
#include "topo/graph.hpp"
#include "topo/path_cache.hpp"

namespace tmg {
namespace {

using sim::Duration;
using sim::Rng;
using sim::SimTime;

// ---------------- LatencyWindow vs sort-based reference ----------------

class LatencyWindowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatencyWindowFuzz, IncrementalThresholdMatchesNaiveSort) {
  Rng rng{GetParam()};
  const auto capacity = static_cast<std::size_t>(rng.uniform_int(1, 40));
  const auto min_samples = static_cast<std::size_t>(rng.uniform_int(1, 10));
  const double k = 3.0;
  stats::LatencyWindow window{capacity, k, min_samples};
  std::deque<double> reference;  // same eviction policy, naive threshold

  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 90) {
      const double sample = rng.normal(20.0, 5.0);
      window.add(sample);
      reference.push_back(sample);
      if (reference.size() > capacity) reference.pop_front();
    } else if (op < 95) {
      // Threshold probe between mutations.
      const double probe = rng.normal(25.0, 10.0);
      std::optional<double> naive;
      if (reference.size() >= min_samples) {
        std::vector<double> sorted(reference.begin(), reference.end());
        std::sort(sorted.begin(), sorted.end());
        naive = stats::compute_iqr_sorted(sorted).upper_fence(k);
      }
      ASSERT_EQ(window.threshold(), naive) << "step " << step;
      ASSERT_EQ(window.is_outlier(probe),
                naive.has_value() && probe > *naive);
    } else {
      window.clear();
      reference.clear();
    }
    ASSERT_TRUE(window.audit().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyWindowFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------- FlowTable vs linear-scan reference ----------------

/// Linear-scan flow table: the same algorithm as of::FlowTable, kept
/// here as an independent oracle so a regression in either shows up as
/// a divergence.
class LinearFlowTable {
 public:
  void add(of::FlowEntry entry, SimTime now) {
    entry.installed_at = now;
    entry.last_matched_at = now;
    for (auto& e : entries_) {
      if (e.priority == entry.priority && e.match == entry.match) {
        e = entry;
        return;
      }
    }
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const of::FlowEntry& e) { return e.priority < entry.priority; });
    entries_.insert(pos, std::move(entry));
  }

  std::vector<of::FlowEntry> remove_matching(const of::FlowMatch& match) {
    std::vector<of::FlowEntry> removed;
    auto it = entries_.begin();
    while (it != entries_.end()) {
      if (it->match == match) {
        removed.push_back(*it);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return removed;
  }

  of::FlowEntry* lookup(const net::Packet& pkt, of::PortNo in_port,
                        SimTime now) {
    for (auto& e : entries_) {
      if (e.match.matches(pkt, in_port)) {
        ++e.packet_count;
        e.byte_count += pkt.wire_size();
        e.last_matched_at = now;
        return &e;
      }
    }
    return nullptr;
  }

  /// The first LLDP-pinned entry, in table order, that matches.
  of::FlowEntry* lookup_lldp_override(const net::Packet& pkt,
                                      of::PortNo in_port, SimTime now) {
    for (auto& e : entries_) {
      if (e.match.ethertype != net::EtherType::Lldp) continue;
      if (e.match.matches(pkt, in_port)) {
        ++e.packet_count;
        e.byte_count += pkt.wire_size();
        e.last_matched_at = now;
        return &e;
      }
    }
    return nullptr;
  }

  std::vector<of::ExpiredEntry> expire(SimTime now) {
    std::vector<of::ExpiredEntry> expired;
    auto it = entries_.begin();
    while (it != entries_.end()) {
      const bool hard = it->hard_timeout > Duration::zero() &&
                        now - it->installed_at >= it->hard_timeout;
      const bool idle = it->idle_timeout > Duration::zero() &&
                        now - it->last_matched_at >= it->idle_timeout;
      if (hard || idle) {
        expired.push_back(of::ExpiredEntry{
            *it, hard ? of::FlowRemoved::Reason::HardTimeout
                      : of::FlowRemoved::Reason::IdleTimeout});
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return expired;
  }

  [[nodiscard]] const std::vector<of::FlowEntry>& entries() const {
    return entries_;
  }

 private:
  std::vector<of::FlowEntry> entries_;
};

bool same_entry(const of::FlowEntry& a, const of::FlowEntry& b) {
  return a.cookie == b.cookie && a.match == b.match && a.action == b.action &&
         a.priority == b.priority && a.idle_timeout == b.idle_timeout &&
         a.hard_timeout == b.hard_timeout &&
         a.packet_count == b.packet_count && a.byte_count == b.byte_count &&
         a.installed_at == b.installed_at &&
         a.last_matched_at == b.last_matched_at;
}

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, IndexedTableMatchesLinearScan) {
  Rng rng{GetParam()};
  of::FlowTable table;
  LinearFlowTable linear;
  SimTime now = SimTime::zero();
  std::uint64_t next_cookie = 1;

  // A small universe of MACs/ports so priority ties, identical matches,
  // wildcards and dst collisions all happen often.
  const auto random_mac = [&] {
    return net::MacAddress::host(
        static_cast<std::uint32_t>(rng.uniform_int(1, 6)));
  };
  // Some matches pin an ethertype (LLDP, the flow-rule relay's rule, or
  // IPv4) and some packets are LLDP frames to the LLDP multicast
  // address, so the override path sees pinned, unpinned and
  // wrong-ethertype entries against both kinds of frame.
  const auto random_ethertype = [&] {
    return rng.uniform_int(0, 1) == 0 ? net::EtherType::Lldp
                                      : net::EtherType::Ipv4;
  };
  const auto random_match = [&] {
    of::FlowMatch m;
    if (rng.uniform_int(0, 9) < 8) m.dst_mac = random_mac();
    if (rng.uniform_int(0, 9) < 3) m.src_mac = random_mac();
    if (rng.uniform_int(0, 9) < 2)
      m.in_port = static_cast<of::PortNo>(rng.uniform_int(1, 4));
    if (rng.uniform_int(0, 9) < 3) m.ethertype = random_ethertype();
    return m;
  };
  const auto random_packet = [&] {
    net::Packet pkt;
    pkt.src_mac = random_mac();
    pkt.dst_mac = random_mac();
    if (rng.uniform_int(0, 9) < 3) {
      pkt.ethertype = net::EtherType::Lldp;
      if (rng.uniform_int(0, 1) == 0) {
        pkt.dst_mac = net::MacAddress::lldp_multicast();
      }
    }
    return pkt;
  };

  for (int step = 0; step < 4000; ++step) {
    now = now + Duration::millis(rng.uniform_int(0, 200));
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 30) {
      of::FlowEntry e;
      e.cookie = next_cookie++;
      e.match = random_match();
      e.action = of::FlowAction::output(
          static_cast<of::PortNo>(rng.uniform_int(1, 4)));
      e.priority = static_cast<std::uint16_t>(100 + rng.uniform_int(0, 2));
      if (rng.uniform_int(0, 2) != 0)
        e.idle_timeout = Duration::seconds(rng.uniform_int(1, 5));
      if (rng.uniform_int(0, 3) == 0)
        e.hard_timeout = Duration::seconds(rng.uniform_int(1, 8));
      table.add(e, now);
      linear.add(e, now);
    } else if (op < 75) {
      const net::Packet pkt = random_packet();
      const auto in_port = static_cast<of::PortNo>(rng.uniform_int(1, 4));
      // Half the lookups take the override path (the switch's path for
      // LLDP frames), with any frame: it must skip every entry that
      // does not pin LLDP.
      const bool override_path = op < 50;
      of::FlowEntry* a =
          override_path ? table.lookup_lldp_override(pkt, in_port, now)
                        : table.lookup(pkt, in_port, now);
      of::FlowEntry* b =
          override_path ? linear.lookup_lldp_override(pkt, in_port, now)
                        : linear.lookup(pkt, in_port, now);
      ASSERT_EQ(a != nullptr, b != nullptr) << "step " << step;
      if (a != nullptr) {
        ASSERT_TRUE(same_entry(*a, *b)) << "step " << step;
      }
    } else if (op < 85) {
      const of::FlowMatch m = random_match();  // DeleteMatching semantics
      const auto a = table.remove_matching(m);
      const auto b = linear.remove_matching(m);
      ASSERT_EQ(a.size(), b.size()) << "step " << step;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(same_entry(a[i], b[i])) << "step " << step;
      }
    } else {
      const auto a = table.expire(now);
      const auto b = linear.expire(now);
      ASSERT_EQ(a.size(), b.size()) << "step " << step;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(same_entry(a[i].entry, b[i].entry)) << "step " << step;
        ASSERT_EQ(a[i].reason, b[i].reason) << "step " << step;
      }
    }
    // Full-state equivalence after every operation.
    ASSERT_EQ(table.entries().size(), linear.entries().size());
    for (std::size_t i = 0; i < table.entries().size(); ++i) {
      ASSERT_TRUE(same_entry(table.entries()[i], linear.entries()[i]))
          << "step " << step << " position " << i;
    }
    ASSERT_TRUE(table.audit().empty()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---------------- PathCache vs fresh BFS ----------------

class PathCacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

void expect_same_path(
    const std::optional<std::vector<topo::TopologyGraph::Traversal>>& cached,
    const std::optional<std::vector<topo::TopologyGraph::Traversal>>& fresh,
    const std::string& where) {
  ASSERT_EQ(cached.has_value(), fresh.has_value()) << where;
  if (!cached) return;
  ASSERT_EQ(cached->size(), fresh->size()) << where;
  for (std::size_t i = 0; i < cached->size(); ++i) {
    ASSERT_EQ((*cached)[i].from, (*fresh)[i].from) << where;
    ASSERT_EQ((*cached)[i].to, (*fresh)[i].to) << where;
  }
}

TEST_P(PathCacheFuzz, CachedPathsMatchFreshBfsAcrossChurn) {
  Rng rng{GetParam()};
  topo::TopologyGraph graph;
  topo::PathCache cache{graph};
  constexpr of::Dpid kSwitches = 8;

  const auto random_loc = [&] {
    return of::Location{
        static_cast<of::Dpid>(rng.uniform_int(1, kSwitches)),
        static_cast<of::PortNo>(rng.uniform_int(1, 4))};
  };

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    if (op < 42) {
      const std::uint64_t before = graph.epoch();
      if (op < 25) {
        const bool added = graph.add_link(random_loc(), random_loc());
        // The epoch must move iff the link set changed.
        ASSERT_EQ(graph.epoch() != before, added);
      } else if (op < 40) {
        const bool removed = graph.remove_link(random_loc(), random_loc());
        ASSERT_EQ(graph.epoch() != before, removed);
      } else {
        graph.clear();
        ASSERT_GT(graph.epoch(), before);
      }
      // Every pair, including from == to and the never-linked dpid
      // kSwitches + 1, against the early-exit reference BFS.
      for (of::Dpid from = 1; from <= kSwitches + 1; ++from) {
        for (of::Dpid to = 1; to <= kSwitches + 1; ++to) {
          expect_same_path(cache.path(from, to), graph.path(from, to),
                           "step " + std::to_string(step) + " pair " +
                               std::to_string(from) + "->" +
                               std::to_string(to));
        }
      }
    } else {
      const auto from = static_cast<of::Dpid>(rng.uniform_int(1, kSwitches));
      const auto to = static_cast<of::Dpid>(rng.uniform_int(1, kSwitches));
      expect_same_path(cache.path(from, to), graph.path(from, to),
                       "step " + std::to_string(step));
    }
    ASSERT_TRUE(cache.audit().empty()) << "step " << step;
  }
  // Steady state must actually hit: repeat one query with no churn.
  (void)cache.path(1, 2);
  const std::uint64_t hits_before = cache.hits();
  (void)cache.path(1, 2);
  ASSERT_EQ(cache.hits(), hits_before + 1);
}

TEST(PathCache, FabricatedLinkInvalidatesCachedPath) {
  // The security property behind the epoch contract: once an attacker
  // fabricates a link, no pre-attack path may be served from cache.
  topo::TopologyGraph graph;
  topo::PathCache cache{graph};
  graph.add_link({1, 1}, {2, 1});
  graph.add_link({2, 2}, {3, 1});
  const auto before = cache.path(1, 3);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->size(), 2u);  // 1 -> 2 -> 3

  // Fabricated shortcut (the paper's link-fabrication attack).
  ASSERT_TRUE(graph.add_link({1, 2}, {3, 2}));
  const auto after = cache.path(1, 3);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);  // routed over the fabricated edge
  ASSERT_TRUE(cache.audit().empty());
}

// One BFS serves every destination from a source: on a k=4 fat-tree,
// the paths from one edge switch to all 19 others cost one tree build.
// A fabricated link bumps the epoch, so the next query rebuilds the
// tree and routes over the new edge.
TEST(PathCache, OneTreePerSourcePerEpoch) {
  topo::GeneratorConfig cfg;
  cfg.family = topo::TopoFamily::FatTree;
  cfg.k = 4;
  topo::GeneratedTopology t = topo::generate(cfg);
  topo::TopologyGraph& graph = t.graph;
  topo::PathCache cache{graph};
  const of::Dpid src = t.tiers[2].front();
  const of::Dpid far = t.tiers[2].back();  // another pod: 4 hops away

  std::size_t others = 0;
  for (const auto& tier : t.tiers) {
    for (const of::Dpid dst : tier) {
      if (dst == src) continue;
      ++others;
      expect_same_path(cache.path(src, dst), graph.path(src, dst),
                       "dst " + std::to_string(dst));
    }
  }
  ASSERT_EQ(others, 19u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 18u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_EQ(cache.path(src, far)->size(), 4u);
  EXPECT_EQ(cache.misses(), 1u);

  const of::Location near_end{src, 99};
  const of::Location far_end{far, 99};
  ASSERT_TRUE(graph.add_link(near_end, far_end));
  const auto after = cache.path(src, far);
  EXPECT_EQ(cache.misses(), 2u);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].from, near_end);
  EXPECT_EQ((*after)[0].to, far_end);
  EXPECT_TRUE(cache.audit().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathCacheFuzz,
                         ::testing::Values(21u, 22u, 23u));

// ---------------- Switch-port tables vs a link-end multiset ----------------

class PortTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PortTableFuzz, SwitchPortsMatchLinkEndMultiset) {
  Rng rng{GetParam()};
  topo::TopologyGraph graph;
  constexpr of::Dpid kSwitches = 8;
  constexpr of::PortNo kMaxPort = 300;
  // Reference: the stored links and one entry per link end.
  std::set<topo::Link> links;
  std::multiset<of::Location> ends;

  // Most draws come from six ports, so endpoints are shared; the rest
  // reach port 300, so tables grow unevenly.
  const auto random_loc = [&] {
    const std::int64_t hi = rng.uniform_int(0, 3) == 0 ? kMaxPort : 6;
    return of::Location{static_cast<of::Dpid>(rng.uniform_int(1, kSwitches)),
                        static_cast<of::PortNo>(rng.uniform_int(1, hi))};
  };
  const auto probe = [&](of::Location loc, const std::string& where) {
    const bool expect = ends.contains(loc);
    ASSERT_EQ(graph.is_switch_port(loc), expect) << where << loc.to_string();
    if (const auto index = graph.switch_index(loc.dpid)) {
      ASSERT_EQ(graph.is_switch_port(*index, loc.port), expect)
          << where << loc.to_string();
    }
  };

  std::optional<topo::Link> last_removed;
  for (int step = 0; step < 2000; ++step) {
    const std::string where = "step " + std::to_string(step) + " ";
    const int op = static_cast<int>(rng.uniform_int(0, 99));
    of::Location x = random_loc();
    of::Location y = random_loc();
    if (op < 10 && last_removed) {
      x = last_removed->b;  // re-add, endpoints swapped
      y = last_removed->a;
    } else if (op >= 40 && op < 70 && !links.empty()) {
      const auto last = static_cast<std::int64_t>(links.size()) - 1;
      auto it = links.begin();
      std::advance(it, rng.uniform_int(0, last));
      x = it->b;  // remove a stored link, endpoints swapped
      y = it->a;
    }
    if (op < 40) {
      const bool added = graph.add_link(x, y);
      ASSERT_EQ(added, links.insert(topo::Link{x, y}).second) << where;
      if (added) {
        ends.insert(x);
        ends.insert(y);
      }
    } else if (op < 97) {
      const bool removed = graph.remove_link(x, y);
      ASSERT_EQ(removed, links.erase(topo::Link{x, y}) == 1) << where;
      if (removed) {
        ends.erase(ends.find(x));
        ends.erase(ends.find(y));
        last_removed = topo::Link{x, y};
      }
    } else {
      graph.clear();
      links.clear();
      ends.clear();
    }

    // The endpoints just touched, random ones, and the table edges of
    // every switch, including the never-linked dpid kSwitches + 1.
    probe(x, where);
    probe(y, where);
    for (int i = 0; i < 16; ++i) probe(random_loc(), where);
    constexpr of::PortNo kEdges[] = {0, kMaxPort, kMaxPort + 1, 65535};
    for (of::Dpid dpid = 1; dpid <= kSwitches + 1; ++dpid) {
      for (const of::PortNo port : kEdges) probe({dpid, port}, where);
    }
    // An index no dpid was interned at is never a switch port.
    const auto unknown = static_cast<std::uint32_t>(graph.switch_count());
    ASSERT_FALSE(graph.is_switch_port(unknown, 1));
    ASSERT_FALSE(graph.is_switch_port(topo::kNoSwitch, 1));
    ASSERT_FALSE(HasFatalFailure()) << where;
    const std::vector<std::string> issues = graph.audit();
    ASSERT_TRUE(issues.empty()) << where << issues.front();
  }
  // One full sweep of every switch's ports against the reference.
  for (of::Dpid dpid = 1; dpid <= kSwitches + 1; ++dpid) {
    for (std::uint32_t port = 0; port <= kMaxPort + 1; ++port) {
      probe(of::Location{dpid, static_cast<of::PortNo>(port)}, "sweep ");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortTableFuzz,
                         ::testing::Values(41u, 42u, 43u));

// ---------------- DedupRing vs set+deque reference ----------------

class DedupRingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DedupRingFuzz, MatchesSetDequeReference) {
  Rng rng{GetParam()};
  const auto capacity = static_cast<std::size_t>(rng.uniform_int(4, 64));
  ctrl::DedupRing ring{capacity};
  std::unordered_set<std::uint64_t> ref_set;
  std::deque<std::uint64_t> ref_order;

  for (int step = 0; step < 20000; ++step) {
    // Small id universe so evict-then-reinsert cycles are common.
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 300));
    ASSERT_EQ(ring.contains(id), ref_set.contains(id)) << "step " << step;
    if (!ref_set.contains(id)) {
      ring.push(id);
      ref_set.insert(id);
      ref_order.push_back(id);
      while (ref_order.size() > capacity) {
        ref_set.erase(ref_order.front());
        ref_order.pop_front();
      }
    }
    ASSERT_EQ(ring.size(), ref_set.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupRingFuzz,
                         ::testing::Values(31u, 32u, 33u));

// ---------------- EventLoop post() ordering ----------------

TEST(EventLoopPost, PostAndScheduleShareOneOrderingDomain) {
  sim::EventLoop loop;
  std::vector<int> fired;
  loop.post_after(Duration::millis(5), [&] { fired.push_back(1); });
  loop.schedule_after(Duration::millis(5), [&] { fired.push_back(2); });
  loop.post_after(Duration::millis(5), [&] { fired.push_back(3); });
  loop.post_after(Duration::millis(1), [&] { fired.push_back(0); });
  loop.run();
  // Equal timestamps fire in insertion order across both APIs.
  ASSERT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(loop.events_executed(), 4u);
}

TEST(EventLoopPost, CancelledTimersInterleavedWithPosts) {
  sim::EventLoop loop;
  std::vector<int> fired;
  auto handle =
      loop.schedule_after(Duration::millis(2), [&] { fired.push_back(-1); });
  for (int i = 0; i < 200; ++i) {
    loop.post_after(Duration::millis(3), [&fired, i] { fired.push_back(i); });
  }
  handle.cancel();
  ASSERT_EQ(loop.live_events(), 200u);
  loop.run();
  ASSERT_EQ(fired.size(), 200u);
  ASSERT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

}  // namespace
}  // namespace tmg
