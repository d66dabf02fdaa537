// Tests for the fleet-scale topology generators (DESIGN.md §12):
// two-run determinism per (family, size, seed), structural invariants
// (fat-tree degree/level math, leaf-spine bipartiteness, ISP
// connectivity), and generator output pinned under the graph audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "topo/generate.hpp"

namespace tmg::topo {
namespace {

bool same_topology(const GeneratedTopology& a, const GeneratedTopology& b) {
  if (a.family != b.family) return false;
  if (a.tiers != b.tiers) return false;
  if (a.hosts.size() != b.hosts.size()) return false;
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    if (a.hosts[i].dpid != b.hosts[i].dpid ||
        a.hosts[i].port != b.hosts[i].port) {
      return false;
    }
  }
  return a.graph.links() == b.graph.links();
}

// Per-switch fabric degree, counted from the link list.
std::size_t degree(const GeneratedTopology& t, Dpid d) {
  std::size_t n = 0;
  for (const Link& l : t.graph.links()) {
    if (l.a.dpid == d) ++n;
    if (l.b.dpid == d) ++n;
  }
  return n;
}

TEST(FatTree, LevelAndLinkCounts) {
  for (const int k : {4, 8, 16}) {
    GeneratorConfig cfg;
    cfg.family = TopoFamily::FatTree;
    cfg.k = k;
    const GeneratedTopology t = generate(cfg);
    const std::size_t ku = static_cast<std::size_t>(k);
    ASSERT_EQ(t.tiers.size(), 3u);
    EXPECT_EQ(t.tiers[0].size(), ku * ku / 4) << "core, k=" << k;
    EXPECT_EQ(t.tiers[1].size(), ku * ku / 2) << "aggregation, k=" << k;
    EXPECT_EQ(t.tiers[2].size(), ku * ku / 2) << "edge, k=" << k;
    EXPECT_EQ(t.switch_count(), 5 * ku * ku / 4);
    EXPECT_EQ(t.host_count(), ku * ku * ku / 4);
    // Edge<->agg and agg<->core each contribute k * (k/2)^2 links.
    EXPECT_EQ(t.graph.link_count(), 2 * ku * (ku / 2) * (ku / 2));
    EXPECT_TRUE(t.graph.audit().empty());
  }
}

TEST(FatTree, DegreeInvariants) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::FatTree;
  cfg.k = 8;
  const GeneratedTopology t = generate(cfg);
  // Core and aggregation switches carry k fabric links; edge switches
  // carry k/2 up-links (their other k/2 ports face hosts).
  for (const Dpid d : t.tiers[0]) EXPECT_EQ(degree(t, d), 8u);
  for (const Dpid d : t.tiers[1]) EXPECT_EQ(degree(t, d), 8u);
  for (const Dpid d : t.tiers[2]) EXPECT_EQ(degree(t, d), 4u);
}

TEST(FatTree, HostPortsAreNotSwitchPorts) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::FatTree;
  cfg.k = 4;
  const GeneratedTopology t = generate(cfg);
  for (const HostAttachment& h : t.hosts) {
    EXPECT_FALSE(t.graph.is_switch_port(Location{h.dpid, h.port}))
        << "host port " << h.dpid << ":" << h.port
        << " classified as fabric";
    // Hosts hang off edge switches only.
    EXPECT_NE(std::find(t.tiers[2].begin(), t.tiers[2].end(), h.dpid),
              t.tiers[2].end());
  }
}

TEST(FatTree, AnyEdgePairIsConnected) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::FatTree;
  cfg.k = 8;
  const GeneratedTopology t = generate(cfg);
  // First and last edge switch live in different pods: the shortest
  // path must climb edge -> agg -> core -> agg -> edge (4 hops).
  const auto p = t.graph.path(t.tiers[2].front(), t.tiers[2].back());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 4u);
  // Same-pod pair: edge -> agg -> edge.
  const auto q = t.graph.path(t.tiers[2][0], t.tiers[2][1]);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->size(), 2u);
}

TEST(LeafSpine, BipartiteFabric) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::LeafSpine;
  cfg.spines = 4;
  cfg.leaves = 12;
  cfg.hosts_per_leaf = 16;
  const GeneratedTopology t = generate(cfg);
  ASSERT_EQ(t.tiers.size(), 2u);
  EXPECT_EQ(t.tiers[0].size(), 4u);
  EXPECT_EQ(t.tiers[1].size(), 12u);
  EXPECT_EQ(t.graph.link_count(), 48u);
  EXPECT_EQ(t.host_count(), 12u * 16u);
  const std::set<Dpid> spines(t.tiers[0].begin(), t.tiers[0].end());
  const std::set<Dpid> leaves(t.tiers[1].begin(), t.tiers[1].end());
  // Every link crosses tiers: no leaf-leaf or spine-spine edges.
  for (const Link& l : t.graph.links()) {
    const bool a_spine = spines.contains(l.a.dpid);
    const bool b_spine = spines.contains(l.b.dpid);
    EXPECT_NE(a_spine, b_spine) << "intra-tier link " << l.to_string();
  }
  // Full mesh between tiers: leaf degree == spines, spine degree ==
  // leaves.
  for (const Dpid d : t.tiers[0]) EXPECT_EQ(degree(t, d), 12u);
  for (const Dpid d : t.tiers[1]) EXPECT_EQ(degree(t, d), 4u);
  EXPECT_TRUE(t.graph.audit().empty());
}

TEST(Isp, ConnectedAndAudited) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::Isp;
  cfg.isp_switches = 64;
  cfg.seed = 7;
  const GeneratedTopology t = generate(cfg);
  ASSERT_EQ(t.tiers.size(), 1u);
  EXPECT_EQ(t.switch_count(), 64u);
  // The preferential-attachment spanning tree guarantees at least n-1
  // links; Waxman shortcuts only add more.
  EXPECT_GE(t.graph.link_count(), 63u);
  EXPECT_TRUE(t.graph.audit().empty());
  // Spanning tree => every switch reachable from the first.
  for (const Dpid d : t.tiers[0]) {
    EXPECT_TRUE(t.graph.path(t.tiers[0].front(), d).has_value())
        << "switch " << d << " unreachable";
  }
}

TEST(Isp, SeedChangesWiring) {
  GeneratorConfig cfg;
  cfg.family = TopoFamily::Isp;
  cfg.isp_switches = 48;
  cfg.seed = 1;
  const GeneratedTopology a = generate(cfg);
  cfg.seed = 2;
  const GeneratedTopology b = generate(cfg);
  EXPECT_FALSE(same_topology(a, b));
}

TEST(Generate, TwoRunDeterminismPerFamily) {
  for (const TopoFamily family :
       {TopoFamily::FatTree, TopoFamily::LeafSpine, TopoFamily::Isp}) {
    GeneratorConfig cfg;
    cfg.family = family;
    cfg.k = 8;
    cfg.leaves = 16;
    cfg.spines = 4;
    cfg.isp_switches = 96;
    cfg.seed = 42;
    const GeneratedTopology a = generate(cfg);
    const GeneratedTopology b = generate(cfg);
    EXPECT_TRUE(same_topology(a, b)) << "family " << to_string(family);
  }
}

TEST(Generate, MillionHostAttachments) {
  // Leaf-spine host capacity scales independently of fabric size: the
  // attachment list is the only thing that grows.
  GeneratorConfig cfg;
  cfg.family = TopoFamily::LeafSpine;
  cfg.spines = 8;
  cfg.leaves = 1024;
  cfg.hosts_per_leaf = 1024;
  const GeneratedTopology t = generate(cfg);
  EXPECT_EQ(t.host_count(), 1024u * 1024u);
  EXPECT_EQ(t.switch_count(), 1032u);
  // Identities stay unique out to the end of the range.
  const std::uint32_t last =
      static_cast<std::uint32_t>(t.host_count()) - 1;
  EXPECT_NE(fleet_mac(0), fleet_mac(last));
  EXPECT_NE(fleet_ip(0), fleet_ip(last));
  EXPECT_EQ(fleet_ip(0).to_string(), "10.0.0.1");
}

TEST(Generate, FleetIdentityIsIndexDerived) {
  EXPECT_EQ(fleet_mac(0), net::MacAddress::host(1));
  EXPECT_EQ(fleet_ip(65535).to_string(), "10.1.0.0");
  EXPECT_EQ(fleet_ip(0x00ffffff - 1).to_string(), "10.255.255.255");
}

}  // namespace
}  // namespace tmg::topo
