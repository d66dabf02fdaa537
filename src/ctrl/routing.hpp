// Reactive routing (Floodlight Forwarding analogue).
//
// Table-miss Packet-Ins trigger shortest-path computation over the
// (possibly poisoned) topology, Flow-Mod installation along the path,
// and a Packet-Out of the triggering packet. Broadcast and
// unknown-unicast are flooded with controller-side duplicate
// suppression (standing in for Floodlight's broadcast tree).
#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/dedup_ring.hpp"
#include "ctrl/message_pipeline.hpp"
#include "of/messages.hpp"
#include "topo/path_cache.hpp"

namespace tmg::ctrl {

class Controller;

class RoutingService final : public MessageListener {
 public:
  explicit RoutingService(Controller& ctrl);

  // --- MessageListener (registered at kRoutingSlot, last) ---
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint32_t subscriptions() const override;
  Disposition on_message(const PipelineMessage& msg,
                         DispatchContext& ctx) override;

  /// Route or flood a (non-LLDP) Packet-In sent by the switch interned
  /// at `switch_index`.
  void handle_packet_in(const of::PacketIn& pi, std::uint32_t switch_index);

  /// Purge rules delivering to a host that moved, so traffic follows the
  /// new binding immediately (Floodlight does the same on device move).
  void on_host_moved(const HostEvent& ev);

  [[nodiscard]] std::uint64_t paths_installed() const { return paths_; }
  [[nodiscard]] std::uint64_t floods() const { return floods_; }

  /// Epoch-keyed shortest-path memo (audited by the invariant checker).
  [[nodiscard]] const topo::PathCache& path_cache() const {
    return path_cache_;
  }

 private:
  /// Hop-by-hop dataplane flooding with per-switch storm suppression:
  /// each switch floods a given packet at most once, so broadcasts
  /// propagate over real links (and pay real link latency) without
  /// looping.
  void flood(const of::PacketIn& pi, std::uint32_t switch_index);
  /// Re-lay flood_bits_ at `words` words per slot, keeping every slot's
  /// bits.
  void widen_flood_slots(std::size_t words);
  /// Install per-hop rules toward dst and forward the packet. Returns
  /// false if no path exists.
  bool route(const of::PacketIn& pi, const of::Location& dst_loc);

  Controller& ctrl_;
  /// All shortest-path queries go through the epoch-keyed cache; any
  /// topology mutation (including a fabricated link) invalidates it.
  topo::PathCache path_cache_;
  /// Flood dedup: ring of recent trace ids. Ring slot s owns the
  /// flood_words_ words of flood_bits_ starting at s * flood_words_, one
  /// bit per switch index that already flooded that id. Slots are reused
  /// on eviction, so steady-state flooding allocates nothing.
  DedupRing flooded_;
  std::vector<std::uint64_t> flood_bits_;
  std::size_t flood_words_ = 0;
  DedupRing routed_;
  std::uint64_t next_cookie_ = 1;
  std::uint64_t paths_ = 0;
  std::uint64_t floods_ = 0;
};

}  // namespace tmg::ctrl
