// Fleet-scale testbed + attack drivers (DESIGN.md §12).
//
// make_fleet_testbed instantiates a generated fabric (topo::generate)
// as a live simulated network: every switch, every fabric link, and one
// access link + host per attachment (capped by max_hosts), identities
// assigned by topo::fleet_mac / fleet_ip in attachment order. Four
// population slots double as experiment roles — victim and peer on the
// first edge switch, two colluding attackers on distinct edge switches
// further out — and the tail attachments stay vacant access links for
// background mobility plus the victim's migration target.
//
// run_fleet_hijack / run_fleet_link_attack run the paper drivers' own
// timelines (timelines.hpp) on the generated fabric, under
// deterministic background load (scenario::BackgroundTraffic), and add
// the fleet observables (hosts tracked by the HTS, background stats) to
// the paper outcomes. Every defense suite and anomaly-IDS hook of the
// paper configs applies. Same (config, seed) -> byte-identical outcome,
// which bench_fleet pins across --jobs counts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/background_traffic.hpp"
#include "scenario/experiments.hpp"
#include "scenario/testbed.hpp"
#include "topo/generate.hpp"

namespace tmg::scenario {

struct FleetTestbedConfig {
  /// Fabric to instantiate (family, size, generator seed).
  topo::GeneratorConfig topology;
  /// Cap on instantiated hosts; 0 = one host per attachment. At least 4
  /// hosts are required for the role slots.
  std::size_t max_hosts = 0;
  /// Vacant access links (mobility pool + migration target), placed on
  /// fresh ports above the generator's per-switch budget, round-robin
  /// over the edge switches. At least 1 is required.
  std::size_t spare_access_links = 4;
  /// Base testbed options (latency profile, controller config, arena
  /// loop); usually suite_options(suite, seed) plus driver overrides.
  TestbedOptions options;
};

struct FleetTestbed {
  std::unique_ptr<Testbed> tb;
  topo::GeneratedTopology topo;

  /// Instantiated hosts in attachment order; population[i] carries
  /// fleet_mac(i)/fleet_ip(i) and auth token kTokenBase + i.
  std::vector<attack::Host*> population;
  /// population[i]'s access link (switch side A, host side B).
  std::vector<of::DataLink*> population_links;
  /// Vacant access links on ports above the generated attachments.
  /// spare_links[0] is reserved as the victim's migration target; the
  /// rest feed background mobility.
  std::vector<of::DataLink*> spare_links;

  // Role aliases into the population (never migrated by background
  // traffic; the drivers own their movement).
  attack::Host* victim = nullptr;      // population[0]
  attack::Host* peer = nullptr;        // population[1]
  attack::Host* attacker = nullptr;    // population[n/2]
  attack::Host* attacker_b = nullptr;  // population[n-1]
  of::Location victim_loc;
  of::Location peer_loc;
  of::Location attacker_loc;
  of::Location attacker_b_loc;
  of::DataLink* migration_target = nullptr;
  attack::OutOfBandChannel* oob = nullptr;

  /// 802.1x token of population[i] (SecureBinding enrollment).
  static constexpr std::uint64_t kTokenBase = 0x5EED'0000;
  [[nodiscard]] static std::uint64_t token_of(std::size_t index) {
    return kTokenBase + index;
  }

  [[nodiscard]] topo::Link fabricated_link() const {
    return topo::Link{attacker_loc, attacker_b_loc};
  }
  [[nodiscard]] bool fabricated_link_present() const {
    return tb->controller().topology().has_link(attacker_loc, attacker_b_loc);
  }
};

/// Build (but do not start) the fleet testbed.
FleetTestbed make_fleet_testbed(const FleetTestbedConfig& config);

/// Enrollment registry covering the whole population (SecureBinding).
[[nodiscard]] defense::SecureBindingConfig fleet_enrollment(
    const FleetTestbed& f);

/// Register every host with the HTS (call after start()): the victim
/// announces itself, then the rest unicast a join packet toward it,
/// staggered so the Packet-In stream is spread over `stagger` per host.
void fleet_warm_hosts(FleetTestbed& f,
                      sim::Duration stagger = sim::Duration::micros(500));

/// Attach background traffic to the whole population: every host is a
/// flow endpoint; every non-role host may migrate; spare links beyond
/// the reserved migration target feed the mobility pool.
void fleet_attach_background(FleetTestbed& f, BackgroundTraffic& bg);

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// The fields a fleet driver adds to a paper config.
struct FleetFabricConfig {
  topo::GeneratorConfig topology;
  std::size_t max_hosts = 0;
  std::size_t spare_access_links = 4;
  /// Background load; background_on=false runs the identical timeline
  /// on an idle fabric (the control cell benches compare against).
  bool background_on = true;
  BackgroundTrafficConfig background;
};

// The fleet's defaults, the one place they differ from the paper's.
// No defenses, seed 1, and short windows: every fleet second is
// expensive. The probe cadence follows the paper (Figs. 5-8) but the
// timeout is re-derived for fleet geometry: an inter-pod fat-tree round
// trip crosses up to 8 fabric hops at 5 ms each (~41 ms RTT, plus
// micro-burst tail), so the paper's 35 ms two-switch timeout would
// declare a *live* victim down on every probe. The link attack's window
// still covers the ~32 s two-LLDP-round registration horizon.
struct FleetHijackConfig : HijackConfig, FleetFabricConfig {
  FleetHijackConfig() {
    suite = DefenseSuite::None;
    seed = 1;
    probe_period = sim::Duration::millis(100);
    probe_timeout = sim::Duration::millis(80);
    settle_window = sim::Duration::seconds(4);
  }
};

struct FleetLinkAttackConfig : LinkAttackConfig, FleetFabricConfig {
  FleetLinkAttackConfig() {
    kind = LinkAttackKind::ClassicRelay;
    suite = DefenseSuite::None;
    seed = 1;
    benign_window = sim::Duration::seconds(8);
    attack_window = sim::Duration::seconds(40);
  }
};

/// What a fleet run adds to a paper outcome.
struct FleetObservables {
  /// HTS population at the end of the run (the fleet-scale observable:
  /// the race must be won against a full host table, not three hosts).
  std::size_t hosts_tracked = 0;
  BackgroundTraffic::Stats background;
};

struct FleetHijackOutcome : HijackOutcome, FleetObservables {};
struct FleetLinkAttackOutcome : LinkAttackOutcome, FleetObservables {};

FleetHijackOutcome run_fleet_hijack(const FleetHijackConfig& config);
FleetLinkAttackOutcome run_fleet_link_attack(
    const FleetLinkAttackConfig& config);

}  // namespace tmg::scenario
