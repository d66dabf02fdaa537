// Deterministic fleet-scale topology generators (DESIGN.md §12).
//
// Three families cover the shapes the paper's attacks care about:
//
//   fat-tree(k)   — the canonical data-center fabric: k pods, k²/4 core
//                   + k²/2 aggregation + k²/2 edge switches, k³/4 host
//                   ports. k=4..32 spans 20 switches/16 hosts up to
//                   1,280 switches/8,192 hosts.
//   leaf-spine    — two-tier Clos: every leaf uplinks to every spine;
//                   host capacity = leaves × hosts_per_leaf, which
//                   scales to millions of attachment records without
//                   changing the switch fabric.
//   isp           — a seeded Waxman/Barabási–Albert hybrid: a
//                   preferential-attachment spanning tree (guaranteed
//                   connectivity) plus distance-decayed Waxman shortcut
//                   edges. The irregular degree distribution is what
//                   distinguishes wide-area topologies from Clos math.
//
// Output is a pure function of the config — the same (family, size,
// seed) always yields byte-identical wiring, dpid assignment, and host
// attachment order, on every platform (sim::Rng is xoshiro256**, not
// std::*_distribution). tests/generate_test.cpp pins this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4_address.hpp"
#include "net/mac_address.hpp"
#include "topo/graph.hpp"

namespace tmg::topo {

enum class TopoFamily : std::uint8_t { FatTree, LeafSpine, Isp };

[[nodiscard]] const char* to_string(TopoFamily family);

struct GeneratorConfig {
  TopoFamily family = TopoFamily::FatTree;

  /// Fat-tree arity. Must be even, 4..32.
  int k = 4;

  /// Leaf-spine dimensions.
  int leaves = 4;
  int spines = 2;
  int hosts_per_leaf = 8;

  /// ISP dimensions (four host ports per switch).
  int isp_switches = 64;
  /// Seed for the ISP family's random structure (ignored by the two
  /// deterministic Clos families).
  std::uint64_t seed = 0;
};

/// Where host #i plugs into the fabric. Identity (MAC/IP) is derived
/// from the index alone — see fleet_mac / fleet_ip.
struct HostAttachment {
  Dpid dpid = 0;
  PortNo port = 0;
};

struct GeneratedTopology {
  GeneratorConfig config;
  std::string family;

  /// Inter-switch fabric only; host edge ports are NOT links here, so
  /// is_switch_port() correctly classifies them as host-facing.
  TopologyGraph graph;

  /// Switch dpids grouped into levels, top of the fabric first
  /// (fat-tree: core/aggregation/edge; leaf-spine: spine/leaf;
  /// isp: a single "backbone" tier). Parallel to tier_names.
  std::vector<std::vector<Dpid>> tiers;
  std::vector<std::string> tier_names;

  /// Host attachment points in host-index order.
  std::vector<HostAttachment> hosts;

  [[nodiscard]] std::size_t switch_count() const {
    std::size_t n = 0;
    for (const auto& t : tiers) n += t.size();
    return n;
  }
  [[nodiscard]] std::size_t host_count() const { return hosts.size(); }
};

/// Build the topology described by `cfg`. Pure: no global state, no
/// wall clock; same config -> identical result. Invalid dimensions
/// (odd/out-of-range fat-tree k, non-positive counts) fail a TMG_ASSERT.
[[nodiscard]] GeneratedTopology generate(const GeneratorConfig& cfg);

/// Identity of generated host #index (0-based): locally administered
/// MAC and a 10.0.0.0/8 address with a 24-bit host part, so fleets of
/// millions keep unique identities (net::Ipv4Address::host covers only
/// the paper-size 16-bit range).
[[nodiscard]] net::MacAddress fleet_mac(std::uint32_t index);
[[nodiscard]] net::Ipv4Address fleet_ip(std::uint32_t index);

}  // namespace tmg::topo
