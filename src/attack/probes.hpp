// Liveness probe engines (paper Table I / Sec. IV-B.1).
//
// Each probe type runs its real protocol exchange in the simulation
// (ARP request/reply, ICMP echo, TCP SYN handshake, TCP idle scan via a
// zombie's IP-ID side channel). On top of the exchange, an optional
// "tool overhead" models the nmap engine cost the paper measured in
// Table I (scan time excluding RTT):
//   ICMP ping 0.91±0.04 ms | TCP SYN 492.3±1.4 ms |
//   ARP ping 133.5±1.6 ms  | TCP idle scan 1.8±0.1 ms
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "attack/host.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"

namespace tmg::attack {

enum class ProbeType { IcmpPing, TcpSyn, ArpPing, TcpIdleScan };

const char* to_string(ProbeType t);

/// Estimated IDS-flagging likelihood, as ranked in Table I.
enum class Stealth { Low, Medium, High, VeryHigh };
Stealth stealth_of(ProbeType t);
const char* to_string(Stealth s);

/// Sample the nmap-style engine overhead for one scan (Table I model).
sim::Duration sample_tool_overhead(ProbeType t, sim::Rng& rng);

struct ProbeTarget {
  net::Ipv4Address ip;
  net::MacAddress mac;         // required for ICMP/TCP (resolved earlier)
  std::uint16_t tcp_port = 80;  // TCP SYN / idle scan target port
};

/// Zombie parameters for the idle scan.
struct ZombieRef {
  net::Ipv4Address ip;
  net::MacAddress mac;
};

struct ProbeOutcome {
  bool alive = false;
  sim::SimTime started;
  sim::SimTime finished;
  [[nodiscard]] sim::Duration duration() const { return finished - started; }
};

/// One-shot liveness probe engine bound to an attacker host.
class LivenessProber {
 public:
  struct Config {
    ProbeType type = ProbeType::ArpPing;
    /// Wait for a response before declaring the target down.
    sim::Duration timeout = sim::Duration::millis(35);
    /// Model nmap engine overhead before the exchange starts.
    bool tool_overhead = false;
    /// Idle scan only: the zombie host to bounce through.
    std::optional<ZombieRef> zombie;
  };

  LivenessProber(sim::EventLoop& loop, sim::Rng rng, Host& attacker,
                 Config config);

  /// Run one probe; `done` fires when the target answered or the
  /// timeout elapsed. Probes do not overlap: calling probe() while one
  /// is outstanding is a logic error.
  void probe(const ProbeTarget& target,
             std::function<void(ProbeOutcome)> done);

  [[nodiscard]] bool busy() const { return static_cast<bool>(done_); }
  [[nodiscard]] std::uint64_t probes_sent() const { return sent_; }

 private:
  void start_exchange(const ProbeTarget& target);
  void run_icmp(const ProbeTarget& target);
  void run_tcp_syn(const ProbeTarget& target);
  void run_arp(const ProbeTarget& target);
  void run_idle_scan(const ProbeTarget& target);
  void arm_timeout();
  void finish(bool alive);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  Host& host_;
  Config config_;
  std::function<void(ProbeOutcome)> done_;
  sim::SimTime started_;
  sim::TimerHandle timeout_;
  std::uint64_t sent_ = 0;
  std::uint16_t next_ident_ = 1;
  std::uint16_t next_port_ = 40000;
  // Current-probe correlation state.
  ProbeTarget target_;
  std::uint16_t probe_ident_ = 0;
  std::uint16_t probe_port_ = 0;
  // Idle-scan state.
  int idle_phase_ = 0;
  std::uint16_t zombie_ipid_before_ = 0;
};

}  // namespace tmg::attack
