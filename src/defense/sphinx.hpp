// SPHINX surrogate (Dhawan et al., NDSS'15).
//
// The paper's authors could not obtain SPHINX and built a surrogate
// implementing its published invariants (Sec. IV); we do the same:
//  * Flow graphs: per destination-MAC, the waypoints declared by
//    (trusted) Flow-Mod messages.
//  * Identifier-binding invariant: the same MAC live at two network
//    locations within a short window -> alert. A single, quiescent move
//    is accepted silently, which is exactly the race Port Probing wins.
//  * Flow-counter consistency: byte counts for the same flow at
//    successive waypoints must agree within a similarity factor tau;
//    a blackholing fabricated link diverges, a faithful MITM does not.
//  * Waypoint deviation: a packet of a declared flow appearing at a
//    switch not on the declared path -> alert.
// SPHINX trusts new links (Sec. V-A), so link fabrication itself raises
// nothing here.
#pragma once

#include <map>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct SphinxConfig {
  /// Period of flow-stats polling.
  sim::Duration stats_poll = sim::Duration::seconds(1);
  /// Similarity factor: counters diverge if max > tau * min + slack.
  double tau = 1.5;
  /// SPHINX raises alerts but does not alter network state (paper
  /// Sec. IV-B).
  bool block = false;
  /// EXTENSION (off by default, not in the paper's surrogate): verify
  /// per-link port-counter symmetry — bytes transmitted into a link
  /// must reappear at its far end. Catches lossy links and, notably,
  /// in-band fabricated links whose endpoints carry asymmetric covert
  /// traffic. See EXPERIMENTS.md.
  bool check_link_symmetry = false;
};

class Sphinx : public ctrl::DefenseModule {
 public:
  Sphinx(ctrl::Controller& ctrl, SphinxConfig config = {});

  [[nodiscard]] std::string name() const override { return "SPHINX"; }

  /// Begin periodic flow-stats polling.
  void start();

  ctrl::Verdict on_packet_in(const of::PacketIn& pi,
                             std::uint32_t switch_index) override;
  void on_flow_mod(of::Dpid dpid, const of::FlowMod& fm) override;
  void on_flow_stats(const of::FlowStatsReply& fsr) override;
  void on_port_stats(const of::PortStatsReply& psr) override;

  [[nodiscard]] std::uint64_t conflicts_detected() const { return conflicts_; }

 private:
  struct Binding {
    of::Location loc;
    sim::SimTime last_seen;
  };
  /// Flow graph for one destination MAC: the declared forwarding
  /// waypoints and the freshest counters seen at each.
  struct FlowGraph {
    std::map<of::Dpid, of::PortNo> waypoints;  // dpid -> declared out port
    std::map<of::Dpid, std::uint64_t> bytes;   // dpid -> latest byte count
    sim::SimTime last_flow_mod;
  };

  void poll_stats();
  void check_counters(const net::MacAddress& dst, const FlowGraph& fg);
  void check_link_symmetry();

  ctrl::Controller& ctrl_;
  SphinxConfig config_;
  // Ordered maps: on_flow_stats iterates flows_ and raises alerts, so
  // iteration order must be stable for bit-reproducible alert streams.
  std::map<net::MacAddress, Binding> bindings_;
  std::map<net::MacAddress, FlowGraph> flows_;
  std::map<of::Location, of::PortStatsEntry> port_stats_;
  std::uint64_t conflicts_ = 0;
  bool started_ = false;
};

}  // namespace tmg::defense
