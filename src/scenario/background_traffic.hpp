// Deterministic background workload generator (DESIGN.md §12).
//
// Fleet-scale runs need the controller busy with realistic chatter while
// an attack executes, because every defense and race window in the paper
// behaves differently on a loaded control plane. Three independently
// gated processes drive traffic through the real pipeline:
//
//   flows     — seeded Poisson arrivals of short unicast flows between
//               random population hosts: each first packet is a table
//               miss (Packet-In -> routing -> Flow-Mods), the rest ride
//               the installed rules.
//   ARP churn — rate-limited gratuitous ARP announcements: broadcast
//               floods plus HTS last-seen refreshes.
//   mobility  — hosts migrate to spare access ports (Port-Down, rejoin
//               announcement, Moved host event, route repair).
//
// All scheduling is drawn from one forked Rng against the sim clock, so
// the full event sequence is a pure function of (rng, config, endpoint
// order) — byte-identical across repetitions and --jobs counts.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/testbed.hpp"

namespace tmg::scenario {

struct BackgroundTrafficConfig {
  /// Mean inter-arrival of new flows (exponential). Zero disables flows.
  sim::Duration mean_flow_interarrival = sim::Duration::millis(20);

  /// Gratuitous-ARP announcement cadence (one random host per tick,
  /// jittered ±25%). Zero disables churn. Broadcasts are the expensive
  /// event class at fleet scale, so this is a period, not a rate per
  /// host.
  sim::Duration arp_churn_period = sim::Duration::seconds(1);

  /// Host mobility cadence (one migration per tick, jittered ±25%).
  /// Zero — or an empty spare-link pool — disables mobility.
  sim::Duration mobility_period = sim::Duration::seconds(10);
};

/// Drives the configured workload over a population of testbed hosts.
/// Borrow-only: the testbed, hosts, and links must outlive this object,
/// and the event loop must not run past its destruction while started
/// (stop() disarms all pending callbacks' work).
class BackgroundTraffic {
 public:
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t packets_offered = 0;
    std::uint64_t arp_announcements = 0;
    std::uint64_t migrations = 0;
  };

  BackgroundTraffic(Testbed& tb, sim::Rng rng, BackgroundTrafficConfig config);

  /// Register a traffic endpoint. `link` is the host's access link and
  /// is required for the host to participate in mobility; pass nullptr
  /// to pin the host (role hosts — victim/attacker — stay put so the
  /// experiment's geometry is stable).
  void add_endpoint(attack::Host& host, of::DataLink* link = nullptr);

  /// Donate a vacant access link to the mobility pool.
  void add_spare_link(of::DataLink& link);

  /// Arm the generators (idempotent). Requires at least two endpoints.
  void start();

  /// Disarm: pending callbacks become no-ops and nothing reschedules.
  void stop() { running_ = false; }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Endpoint {
    attack::Host* host = nullptr;
    of::DataLink* link = nullptr;  // null = pinned (never migrates)
  };

  void schedule_flow();
  void schedule_arp();
  void schedule_mobility();
  [[nodiscard]] sim::Duration jittered(sim::Duration period);

  Testbed& tb_;
  sim::EventLoop& loop_;
  sim::Rng rng_;
  BackgroundTrafficConfig config_;
  std::vector<Endpoint> endpoints_;
  std::vector<of::DataLink*> spare_links_;
  Stats stats_;
  bool running_ = false;
};

}  // namespace tmg::scenario
