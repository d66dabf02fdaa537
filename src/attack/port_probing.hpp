// Port Probing + Host Location Hijacking (paper Sec. IV-B, Figs. 2-3).
//
// The attacker arpings the victim to learn its MAC, then liveness-probes
// it on a fixed cadence. The instant the victim is declared offline
// (probe timeout, optionally confirmed by consecutive failures), the
// attacker rewrites its own NIC identity to the victim's (ifconfig-model
// latency) and originates traffic, winning the Host Tracking Service
// re-binding race before the victim rejoins elsewhere.
#pragma once

#include <functional>
#include <optional>

#include "attack/host.hpp"
#include "attack/probes.hpp"
#include "obs/trace_log.hpp"
#include "sim/event_loop.hpp"

namespace tmg::obs {
class Observability;
}  // namespace tmg::obs

namespace tmg::attack {

struct PortProbingConfig {
  net::Ipv4Address victim_ip;
  ProbeType probe_type = ProbeType::ArpPing;
  /// Probe cadence (paper: one probe every 50 ms).
  sim::Duration probe_period = sim::Duration::millis(50);
  /// Probe timeout, derived from the RTT quantile function for the
  /// desired false-positive rate (paper: 35 ms for N(20,5) at 1% FP).
  sim::Duration probe_timeout = sim::Duration::millis(35);
  /// Consecutive failures required before declaring the victim down.
  int confirm_failures = 1;
  /// Model nmap engine overhead per scan (Table I timings).
  bool nmap_overhead = false;
  /// Idle-scan zombie, if probe_type == TcpIdleScan.
  std::optional<ZombieRef> zombie;
};

class PortProbingAttack {
 public:
  /// Event timeline; all instants are absolute SimTimes. The benches
  /// difference these against the victim's actual down time to
  /// regenerate Figs. 5-8.
  struct Timeline {
    sim::SimTime started;
    std::optional<sim::SimTime> victim_mac_acquired;
    /// Start of the final (timed-out) probe — Fig. 7's reference event.
    std::optional<sim::SimTime> final_probe_start;
    /// Probe timeout fired: attacker believes the victim is down (Fig 8).
    std::optional<sim::SimTime> victim_declared_down;
    /// Attacker NIC back up carrying the victim's identity (Fig. 5).
    std::optional<sim::SimTime> interface_up_as_victim;
    /// First spoofed traffic on the wire.
    std::optional<sim::SimTime> traffic_sent;
    /// Controller re-bound the victim's identity to the attacker
    /// (Fig. 6). Set via mark_hijack_confirmed() by the observer.
    std::optional<sim::SimTime> hijack_confirmed;
  };

  PortProbingAttack(sim::EventLoop& loop, sim::Rng rng, Host& attacker,
                    PortProbingConfig config);

  /// Begin: acquire the victim's MAC via arping, then probe.
  void start();

  [[nodiscard]] const Timeline& timeline() const { return timeline_; }
  [[nodiscard]] std::uint64_t probes_run() const { return probes_run_; }
  [[nodiscard]] bool identity_claimed() const {
    return timeline_.interface_up_as_victim.has_value();
  }

  /// Invoked right after the attacker originates spoofed traffic.
  void set_on_claimed(std::function<void()> cb) { on_claimed_ = std::move(cb); }

  /// The experiment harness calls this when it observes the Host
  /// Tracking Service re-bind the victim's MAC to the attacker's port.
  void mark_hijack_confirmed(sim::SimTime at);

  /// Attach observability (borrowed; nullptr detaches). The attack then
  /// emits a span tree mirroring the Timeline: a root "attack/hijack"
  /// span with per-probe "attack/probe" children, the
  /// "attack/disconnect-detect" window (final probe start -> declared
  /// down), and the "attack/race" window (declared down -> hijack
  /// confirmed) whose "attack/ident-change" child is the ifconfig
  /// latency. Probe totals mirror in at export time via a collector.
  void set_observability(obs::Observability* obs);

 private:
  void acquire_mac();
  void schedule_probe();
  void run_probe();
  void on_probe(const ProbeOutcome& outcome);
  void hijack();
  void maintain();

  sim::EventLoop& loop_;
  sim::Rng rng_;
  Host& host_;
  PortProbingConfig config_;
  LivenessProber prober_;
  Timeline timeline_;
  std::optional<net::MacAddress> victim_mac_;
  int consecutive_failures_ = 0;
  std::uint64_t probes_run_ = 0;
  bool hijacking_ = false;
  std::function<void()> on_claimed_;
  obs::Observability* obs_ = nullptr;
  obs::SpanId span_root_ = 0;   // attack/hijack, whole campaign
  obs::SpanId span_race_ = 0;   // attack/race, down -> confirmed
  obs::SpanId span_ident_ = 0;  // attack/ident-change
};

}  // namespace tmg::attack
