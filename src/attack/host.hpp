// End-host model.
//
// Used for victims, bystanders, attackers, and idle-scan zombies. A host
// owns one NIC attached to a data-link side, auto-responds to ARP/ICMP/
// TCP, and exposes interface and identity controls with realistic
// latencies (NicOpModel).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "attack/nic_model.hpp"
#include "of/data_link.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"

namespace tmg::attack {

/// Every host answers ARP requests and ICMP echo requests for its IP.
struct HostConfig {
  net::MacAddress mac;
  net::Ipv4Address ip;
  /// TCP ports with a listening service (SYN -> SYN-ACK). Every other
  /// port answers RST (a live host is detectable either way).
  std::set<std::uint16_t> open_tcp_ports;
  /// Reply to unsolicited SYN-ACKs with RST and expose a globally
  /// incrementing IP-ID: the side channel a TCP idle scan exploits.
  bool idle_scan_zombie = false;
  /// Network-access credential (802.1x-style). Non-zero: the host
  /// authenticates whenever its interface comes up or it is re-cabled,
  /// which the SecureBinding defense consumes. Zero: no credential.
  std::uint64_t auth_token = 0;
};

class Host {
 public:
  Host(sim::EventLoop& loop, sim::Rng rng, HostConfig config);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  void attach_link(of::DataLink& link, of::Side side);

  /// Unplug from the current link (drops carrier, i.e. the switch will
  /// see a Port-Down after its detection window). Used for migrations.
  void detach_link();

  // --- Identity ---
  [[nodiscard]] net::MacAddress mac() const { return config_.mac; }
  [[nodiscard]] net::Ipv4Address ip() const { return config_.ip; }

  /// Instantaneous identity rewrite (used inside timed sequences).
  void set_identity(net::MacAddress mac, net::Ipv4Address ip);

  /// Full `ifconfig`-style identity change: interface down, identity
  /// rewritten, interface up after a latency drawn from `model`. Invokes
  /// `done` when the interface is back up.
  void change_identity_timed(net::MacAddress mac, net::Ipv4Address ip,
                             const NicOpModel& model,
                             std::function<void()> done = {});

  // --- Interface state ---
  [[nodiscard]] bool interface_up() const { return up_; }
  /// False while unplugged (e.g. mid-migration).
  [[nodiscard]] bool attached() const { return link_ != nullptr; }
  void set_interface(bool up);

  /// Flap: down now, up after `hold`. Invokes `done` on restoration.
  void flap_interface(sim::Duration hold, std::function<void()> done = {});

  // --- Traffic ---
  /// Transmit if the interface is up (silently dropped otherwise, like a
  /// real down NIC).
  void send(net::Packet pkt);

  void send_arp_request(net::Ipv4Address target);
  void send_ping(net::MacAddress dst_mac, net::Ipv4Address dst_ip,
                 std::uint16_t ident, std::uint16_t seq);
  void send_raw(net::MacAddress dst_mac, net::Ipv4Address dst_ip,
                std::string label, std::size_t size = 128);

  /// Pre-send hook: return true to consume the packet before the
  /// listeners and the auto-responder see it (attacker sniffing /
  /// bridging).
  using PacketHook = std::function<bool(const net::Packet&)>;
  void set_packet_hook(PacketHook hook) { hook_ = std::move(hook); }

  /// Non-consuming observer invoked for every received packet after the
  /// hook (probe engines use this to match replies).
  using PacketListener = std::function<void(const net::Packet&)>;
  void add_listener(PacketListener listener);

  /// ARP-cache lookup (learned from ARP sender fields only, like a real
  /// stack — data-frame source MACs are never trusted for resolution).
  [[nodiscard]] std::optional<net::MacAddress> arp_lookup(
      net::Ipv4Address ip) const;

  /// Send `pkt` to `dst_ip`, resolving the destination MAC via the ARP
  /// cache or an ARP exchange; the packet is queued while resolution is
  /// in flight and dropped if it fails within the resolve timeout (1 s).
  void send_resolved(net::Ipv4Address dst_ip, net::Packet pkt);

 private:
  void on_rx(const net::Packet& pkt);
  void maybe_authenticate();
  void auto_respond(const net::Packet& pkt);
  void reply_later(net::Packet pkt);
  void reply_later_resolved(net::Ipv4Address dst_ip, net::Packet pkt);
  void learn_arp(const net::ArpPayload& arp);
  void flush_pending(net::Ipv4Address ip, net::MacAddress mac);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  HostConfig config_;
  of::DataLink* link_ = nullptr;
  of::Side side_ = of::Side::A;
  bool up_ = true;
  PacketHook hook_;
  std::vector<PacketListener> listeners_;
  std::uint16_t ip_id_ = 1;
  std::unordered_map<net::Ipv4Address, net::MacAddress> arp_cache_;
  struct PendingResolution {
    std::vector<net::Packet> queue;
    sim::TimerHandle timeout;
  };
  std::unordered_map<net::Ipv4Address, PendingResolution> pending_arp_;
};

}  // namespace tmg::attack
