// OpenFlow switch model.
//
// Forwards dataplane packets per its flow table, punts table misses and
// all LLDP to the controller as Packet-In, honors Packet-Out / Flow-Mod,
// and reports port state transitions. Carrier loss is detected through
// the IEEE 802.3 link-integrity pulse window (16±8 ms): a
// flap shorter than the sampled detection delay produces *no* Port-Down,
// which is the physical fact the in-band port-amnesia attack must respect
// (paper Sec. V-A).
//
// Ports are found by number, not searched for: the port table is indexed
// by port number (DESIGN.md §8f), so every link delivery and every
// forward is a bounds check and a load. Numbers with no attached link
// hold an empty record; walks over the table (floods, port lists, stats
// replies) skip those and visit attached ports in ascending number.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "of/control_channel.hpp"
#include "of/data_link.hpp"
#include "of/flow_table.hpp"
#include "of/messages.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"

namespace tmg::of {

struct PortStats {
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
};

class Switch {
 public:
  Switch(sim::EventLoop& loop, sim::Rng rng, Dpid dpid,
         ControlChannel& channel);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Attach one side of a data link as port `port`. Port numbers are
  /// switch-local and must be unique (std::logic_error otherwise). The
  /// port table grows to `port`, so it may reallocate: nothing keeps a
  /// Port reference across an attach.
  void attach_link(PortNo port, DataLink& link, Side side);

  [[nodiscard]] Dpid dpid() const { return dpid_; }
  [[nodiscard]] bool port_oper_up(PortNo port) const;
  /// Counters of an attached port (std::out_of_range otherwise).
  [[nodiscard]] const PortStats& port_stats(PortNo port) const;
  /// Attached port numbers, ascending.
  [[nodiscard]] const FlowTable& flow_table() const { return table_; }
  [[nodiscard]] std::vector<PortNo> ports() const;

 private:
  struct Port {
    DataLink* link = nullptr;  // nullptr: no link attached at this number
    Side side = Side::A;
    bool peer_carrier_up = true;  // last raw signal from the far end
    bool oper_up = true;          // state as reported to the controller
    std::uint64_t epoch = 0;      // invalidates in-flight detection checks
    PortStats stats;
  };

  /// The port attached as `no`; nullptr if none is.
  [[nodiscard]] Port* find_port(PortNo no);
  [[nodiscard]] const Port* find_port(PortNo no) const;
  void handle_ctrl(const CtrlToSwitch& msg);
  void handle_packet_out(const PacketOut& po);
  void handle_flow_mod(const FlowMod& fm);
  // The packet paths pass on the pointer the link or the Packet-Out
  // delivered: a switch traversal never copies the frame.
  void on_rx(PortNo port, const net::PacketPtr& pkt);
  void on_peer_carrier(PortNo port, bool up);
  void forward(const net::PacketPtr& pkt, PortNo out_port);
  /// Forwarding core: the packet is shared between the forward-delay
  /// event, the wire event, and (on floods) every egress port. `out`
  /// must be operationally up.
  void forward_shared(net::PacketPtr pkt, Port& out);
  void flood(const net::PacketPtr& pkt, PortNo except_port);
  void apply_action(const net::PacketPtr& pkt, PortNo in_port,
                    const FlowAction& action);
  void send_packet_in(PortNo in_port, const net::PacketPtr& pkt,
                      PacketIn::Reason reason);
  void sweep_expired();

  sim::EventLoop& loop_;
  sim::Rng rng_;
  Dpid dpid_;
  ControlChannel& channel_;
  std::vector<Port> ports_;  // indexed by port number; 0 is never attached
  FlowTable table_;
};

}  // namespace tmg::of
