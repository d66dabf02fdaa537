#include "topo/generate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "check/assert.hpp"
#include "sim/rng.hpp"

namespace tmg::topo {
namespace {

// Fat-tree(k): dpids are assigned level-major so structural position is
// readable from the number alone: cores first, then aggregation
// (pod-major), then edge (pod-major), all 1-based.
GeneratedTopology generate_fat_tree(const GeneratorConfig& cfg) {
  const int k = cfg.k;
  TMG_ASSERT(k >= 4 && k <= 32 && k % 2 == 0,
             "fat-tree k must be even and in [4, 32]");
  const int half = k / 2;
  const int n_core = half * half;
  const int n_pod_sw = half;  // per level, per pod

  GeneratedTopology out;
  out.config = cfg;
  out.family = to_string(TopoFamily::FatTree);
  out.tier_names = {"core", "aggregation", "edge"};
  out.tiers.resize(3);

  const auto core_dpid = [&](int c) { return static_cast<Dpid>(1 + c); };
  const auto agg_dpid = [&](int pod, int j) {
    return static_cast<Dpid>(1 + n_core + pod * n_pod_sw + j);
  };
  const auto edge_dpid = [&](int pod, int i) {
    return static_cast<Dpid>(1 + n_core + k * n_pod_sw + pod * n_pod_sw + i);
  };

  for (int c = 0; c < n_core; ++c) out.tiers[0].push_back(core_dpid(c));
  for (int pod = 0; pod < k; ++pod)
    for (int j = 0; j < n_pod_sw; ++j) out.tiers[1].push_back(agg_dpid(pod, j));
  for (int pod = 0; pod < k; ++pod)
    for (int i = 0; i < n_pod_sw; ++i)
      out.tiers[2].push_back(edge_dpid(pod, i));

  // Edge i <-> every aggregation j in the same pod.
  //   edge uplink ports: 1..k/2 (port j+1 to agg j)
  //   agg  downlink ports: 1..k/2 (port i+1 to edge i)
  for (int pod = 0; pod < k; ++pod) {
    for (int i = 0; i < n_pod_sw; ++i) {
      for (int j = 0; j < n_pod_sw; ++j) {
        out.graph.add_link(
            Location{edge_dpid(pod, i), static_cast<PortNo>(1 + j)},
            Location{agg_dpid(pod, j), static_cast<PortNo>(1 + i)});
      }
    }
  }
  // Aggregation j <-> core group j: agg j of every pod uplinks to cores
  // [j*k/2, (j+1)*k/2) on ports k/2+1..k; core c reaches pod p on port
  // p+1.
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < n_pod_sw; ++j) {
      for (int c = 0; c < n_pod_sw; ++c) {
        out.graph.add_link(
            Location{agg_dpid(pod, j), static_cast<PortNo>(half + 1 + c)},
            Location{core_dpid(j * half + c),
                     static_cast<PortNo>(1 + pod)});
      }
    }
  }
  // Hosts: each edge switch serves k/2 hosts on ports k/2+1..k,
  // edge-major then port-major, so host index -> attachment is a pure
  // address computation.
  out.hosts.reserve(static_cast<std::size_t>(k) * n_pod_sw * n_pod_sw);
  for (int pod = 0; pod < k; ++pod) {
    for (int i = 0; i < n_pod_sw; ++i) {
      for (int h = 0; h < half; ++h) {
        out.hosts.push_back(HostAttachment{
            edge_dpid(pod, i), static_cast<PortNo>(half + 1 + h)});
      }
    }
  }
  return out;
}

GeneratedTopology generate_leaf_spine(const GeneratorConfig& cfg) {
  const int spines = cfg.spines;
  const int leaves = cfg.leaves;
  const int hosts_per_leaf = cfg.hosts_per_leaf;
  TMG_ASSERT(spines >= 1 && leaves >= 1 && hosts_per_leaf >= 0,
             "leaf-spine dimensions must be positive");

  GeneratedTopology out;
  out.config = cfg;
  out.family = to_string(TopoFamily::LeafSpine);
  out.tier_names = {"spine", "leaf"};
  out.tiers.resize(2);

  const auto spine_dpid = [&](int s) { return static_cast<Dpid>(1 + s); };
  const auto leaf_dpid = [&](int l) {
    return static_cast<Dpid>(1 + spines + l);
  };
  for (int s = 0; s < spines; ++s) out.tiers[0].push_back(spine_dpid(s));
  for (int l = 0; l < leaves; ++l) out.tiers[1].push_back(leaf_dpid(l));

  // Full bipartite fabric: leaf l port s+1 <-> spine s port l+1.
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      out.graph.add_link(Location{leaf_dpid(l), static_cast<PortNo>(1 + s)},
                         Location{spine_dpid(s), static_cast<PortNo>(1 + l)});
    }
  }
  // Hosts fill leaf ports spines+1 .. spines+hosts_per_leaf, leaf-major.
  out.hosts.reserve(static_cast<std::size_t>(leaves) * hosts_per_leaf);
  for (int l = 0; l < leaves; ++l) {
    for (int h = 0; h < hosts_per_leaf; ++h) {
      out.hosts.push_back(HostAttachment{
          leaf_dpid(l), static_cast<PortNo>(spines + 1 + h)});
    }
  }
  return out;
}

/// Host access ports per ISP switch.
constexpr int kHostsPerIspSwitch = 4;
/// Waxman shortcut parameters on a unit square: alpha scales overall
/// shortcut density, beta the distance decay.
constexpr double kWaxmanAlpha = 0.4;
constexpr double kWaxmanBeta = 0.2;

// ISP-like: a preferential-attachment spanning tree (every new switch
// wires to an existing one picked with probability proportional to
// degree+1 — the Barabási–Albert rich-get-richer kernel) guarantees one
// connected component; Waxman shortcut edges
// P(i,j) = alpha * exp(-dist / (beta * sqrt(2))) layered on top give
// the distance-local mesh structure of real backbone maps. All draws
// come from one seeded sim::Rng in a fixed order, so the wiring is a
// pure function of (switches, seed).
GeneratedTopology generate_isp(const GeneratorConfig& cfg) {
  const int n = cfg.isp_switches;
  TMG_ASSERT(n >= 2, "isp topology needs at least 2 switches");

  GeneratedTopology out;
  out.config = cfg;
  out.family = to_string(TopoFamily::Isp);
  out.tier_names = {"backbone"};
  out.tiers.resize(1);
  for (int i = 0; i < n; ++i)
    out.tiers[0].push_back(static_cast<Dpid>(1 + i));

  sim::Rng rng(cfg.seed);
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::vector<double> ys(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] = rng.uniform01();
    ys[static_cast<std::size_t>(i)] = rng.uniform01();
  }

  // Ports are consumed in edge-creation order, one counter per switch;
  // `nbrs` mirrors switch-level adjacency for the shortcut dedup (the
  // graph itself keys links by port pairs, not switch pairs).
  std::vector<PortNo> next_port(static_cast<std::size_t>(n), 1);
  std::vector<std::vector<int>> nbrs(static_cast<std::size_t>(n));
  const auto adjacent = [&](int i, int j) {
    const std::vector<int>& v = nbrs[static_cast<std::size_t>(i)];
    return std::find(v.begin(), v.end(), j) != v.end();
  };
  const auto wire = [&](int i, int j) {
    const Location a{static_cast<Dpid>(1 + i),
                     next_port[static_cast<std::size_t>(i)]};
    const Location b{static_cast<Dpid>(1 + j),
                     next_port[static_cast<std::size_t>(j)]};
    out.graph.add_link(a, b);
    ++next_port[static_cast<std::size_t>(i)];
    ++next_port[static_cast<std::size_t>(j)];
    nbrs[static_cast<std::size_t>(i)].push_back(j);
    nbrs[static_cast<std::size_t>(j)].push_back(i);
  };

  // Spanning tree: endpoint multiset realizes degree-proportional
  // selection without a weighted scan.
  std::vector<int> endpoints;
  endpoints.reserve(static_cast<std::size_t>(n) * 4);
  endpoints.push_back(0);
  for (int i = 1; i < n; ++i) {
    const int target = endpoints[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(endpoints.size()) - 1))];
    wire(i, target);
    endpoints.push_back(target);
    endpoints.push_back(i);
  }
  // Waxman shortcuts over all pairs in deterministic (i, j) order.
  const double max_dist = std::sqrt(2.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double dx = xs[static_cast<std::size_t>(i)] -
                        xs[static_cast<std::size_t>(j)];
      const double dy = ys[static_cast<std::size_t>(i)] -
                        ys[static_cast<std::size_t>(j)];
      const double dist = std::sqrt(dx * dx + dy * dy);
      const double p =
          kWaxmanAlpha * std::exp(-dist / (kWaxmanBeta * max_dist));
      // The draw happens for every pair regardless of whether the edge
      // already exists, so the stream position — and thus every later
      // edge — depends only on the pair index, not on tree shape.
      const bool add = rng.chance(p);
      if (add && !adjacent(i, j)) wire(i, j);
    }
  }
  // Hosts: kHostsPerIspSwitch access ports per switch, switch-major,
  // numbered after that switch's final fabric port.
  out.hosts.reserve(static_cast<std::size_t>(n) * kHostsPerIspSwitch);
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < kHostsPerIspSwitch; ++h) {
      out.hosts.push_back(HostAttachment{
          static_cast<Dpid>(1 + i),
          static_cast<PortNo>(next_port[static_cast<std::size_t>(i)] + h)});
    }
  }
  return out;
}

}  // namespace

const char* to_string(TopoFamily family) {
  switch (family) {
    case TopoFamily::FatTree:
      return "fat-tree";
    case TopoFamily::LeafSpine:
      return "leaf-spine";
    case TopoFamily::Isp:
      return "isp";
  }
  return "?";
}

GeneratedTopology generate(const GeneratorConfig& cfg) {
  switch (cfg.family) {
    case TopoFamily::FatTree:
      return generate_fat_tree(cfg);
    case TopoFamily::LeafSpine:
      return generate_leaf_spine(cfg);
    case TopoFamily::Isp:
      return generate_isp(cfg);
  }
  TMG_ASSERT(false, "unknown topology family");
  return {};
}

net::MacAddress fleet_mac(std::uint32_t index) {
  return net::MacAddress::host(index + 1);
}

net::Ipv4Address fleet_ip(std::uint32_t index) {
  // 10.a.b.c with a 24-bit host part: room for 16M unique addresses.
  return net::Ipv4Address{(10u << 24) | ((index + 1) & 0x00ff'ffffu)};
}

}  // namespace tmg::topo
