// The one hijack timeline and the one link-attack timeline, shared by
// the paper drivers (experiments.cpp: Fig. 2 and Fig. 9 testbeds) and
// the fleet drivers (fleet.cpp: generated fabrics). Each timeline reads
// only a TestbedRoles struct that its driver fills from its testbed
// (DESIGN.md §12). Internal to src/scenario.
#pragma once

#include <functional>
#include <utility>

#include "attack/flow_rule_relay.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fleet.hpp"

namespace tmg::scenario {

/// Testbed options for one driver run: `base` (the testbed's latency
/// profile) with the suite's options and the config's controller
/// profile, audit switch and arena applied.
template <class Config>
TestbedOptions driver_options(const Config& config, TestbedOptions base = {}) {
  TestbedOptions o =
      suite_options(config.suite, config.seed, std::move(base));
  if (config.profile) o.controller.profile = *config.profile;
  // Also keeps start() from auto-attaching the audit battery when the
  // caller opted out (benches); the timelines enable it explicitly.
  o.check_invariants = config.check_invariants;
  if (config.arena != nullptr) o.loop = &config.arena->acquire();
  return o;
}

/// A generated fabric's background load, as the timelines run it: built
/// after the host warm-up, started when `on`, and stopped at the end
/// with its final stats written to `stats`.
struct FabricLoad {
  FleetTestbed& fleet;
  const BackgroundTrafficConfig& config;
  bool on;
  BackgroundTraffic::Stats& stats;
};

/// Who plays which part on one testbed, and where.
struct TestbedRoles {
  Testbed* tb = nullptr;
  attack::Host* victim = nullptr;
  attack::Host* peer = nullptr;        // keeps a session toward the victim
  attack::Host* attacker = nullptr;    // the prober; first relay end
  attack::Host* attacker_b = nullptr;  // second relay end
  of::Location attacker_loc;
  of::DataLink* migration_target = nullptr;
  attack::OutOfBandChannel* oob = nullptr;
  /// The link the host relays fabricate (attacker to attacker_b).
  topo::Link relay_link;
  /// The switch the flow-rule relay splices, its ports, and the link it
  /// fabricates between the spliced neighbors.
  of::Dpid flow_relay_switch = 0;
  attack::FlowRuleRelay::Config flow_relay;
  topo::Link flow_relay_link;
  /// SecureBinding credentials (nullptr: an empty registry).
  const defense::SecureBindingConfig* enrollment = nullptr;
  /// Registers the hosts with the HTS; runs right after start().
  std::function<void()> warm_hosts;
  /// Background load over the population (generated fabrics only).
  FabricLoad* background = nullptr;
  /// Pause benign traffic 10 s before the attack so its flow rules idle
  /// out and post-attack traffic re-routes (Fig. 9 only).
  bool pause_benign = false;
};

/// Probing settles, the victim moves at a random phase of the probe
/// cycle, and the attacker races its return (Figs. 5-8). `roles.tb` is
/// built, not started.
void run_hijack_timeline(const HijackConfig& config, const TestbedRoles& roles,
                         HijackOutcome& out);

/// Benign phase, attack launch, registration window, attack phase. The
/// attack window must cover two LLDP rounds (32 s). `roles.tb` is built,
/// not started.
void run_link_attack_timeline(const LinkAttackConfig& config,
                              const TestbedRoles& roles,
                              LinkAttackOutcome& out);

}  // namespace tmg::scenario
