// Testbed builder: wires switches, links, hosts, control channels and a
// controller into one simulated network. The canned paper topologies
// (Figs. 1, 2, 9) are built on top of this.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "attack/host.hpp"
#include "attack/oob_channel.hpp"
#include "check/invariants.hpp"
#include "ctrl/controller.hpp"
#include "of/control_channel.hpp"
#include "of/data_link.hpp"
#include "of/switch.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"

namespace tmg::scenario {

struct TestbedOptions {
  std::uint64_t seed = 42;
  ctrl::ControllerConfig controller;
  /// Attach the runtime invariant checker (src/check) to the controller.
  /// Integration tests turn this on; benches leave it off to keep the
  /// measured hot path untouched.
  bool check_invariants = false;
  /// Periodic check cadence when the checker is attached (events).
  std::uint64_t check_every_events = 256;
  /// External event loop to build on (borrowed; must outlive the
  /// Testbed and be freshly constructed or reset). Null = the testbed
  /// owns a private loop. Per-worker TrialArenas pass their warm loop
  /// here so repeated trials reuse its allocation slabs (DESIGN.md §7).
  sim::EventLoop* loop = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] ctrl::Controller& controller() { return *controller_; }
  sim::Rng fork_rng() { return rng_.fork(); }

  /// Attach the observability layer (borrowed; nullptr detaches): wires
  /// the controller (pipeline spans, collectors, echo RTT histogram) and
  /// the event loop's profiling probe. A null pointer restores the
  /// zero-cost unobserved configuration.
  void set_observability(obs::Observability* obs);
  [[nodiscard]] obs::Observability* observability() {
    return controller_->observability();
  }

  of::Switch& add_switch(of::Dpid dpid);
  [[nodiscard]] of::Switch& get_switch(of::Dpid dpid);

  /// The switch's control channel. Attack models with Flow-Mod reach
  /// (compromised app / southbound MITM, e.g. attack::FlowRuleRelay)
  /// inject rules here; the switch cannot tell them from controller
  /// traffic.
  [[nodiscard]] of::ControlChannel& control_channel(of::Dpid dpid);

  /// Inter-switch wire using the dataplane (micro-burst) latency model.
  of::DataLink& connect_switches(of::Dpid a, of::PortNo pa, of::Dpid b,
                                 of::PortNo pb);

  /// Access link on (dpid, port) with no host yet (migration target).
  /// The switch is side A; a host attaches on side B.
  of::DataLink& add_access_link(of::Dpid dpid, of::PortNo port);

  /// Create a host and cable it to (dpid, port).
  attack::Host& add_host(of::Dpid dpid, of::PortNo port,
                         attack::HostConfig config);

  /// Create a host on an existing access link (side B).
  attack::Host& add_host_on(of::DataLink& link, attack::HostConfig config);

  attack::OutOfBandChannel& add_oob_channel(
      attack::OobChannelConfig config = {});

  /// Register all switches with the controller, start its services, and
  /// run the given warm-up (default: long enough for link discovery and
  /// the first control-RTT echoes).
  void start(sim::Duration warmup = sim::Duration::seconds(1));

  void run_for(sim::Duration d);
  void run_until(sim::SimTime t);

  [[nodiscard]] bool started() const { return started_; }

  /// Attach the invariant checker now (idempotent). Called automatically
  /// by start() when options.check_invariants is set; callers that add a
  /// TopoGuard should pass it so profile transitions are validated too.
  check::InvariantChecker& enable_invariant_checker(
      const defense::TopoGuard* topoguard = nullptr);

  /// The attached checker, or nullptr when disabled.
  [[nodiscard]] check::InvariantChecker* invariant_checker() {
    return checker_.get();
  }

 private:
  struct SwitchEntry {
    std::unique_ptr<of::ControlChannel> channel;
    std::unique_ptr<of::Switch> sw;
    std::vector<of::PortNo> ports;
  };

  TestbedOptions options_;
  /// Private loop when options.loop is null; loop_ aliases either this
  /// or the borrowed arena loop.
  std::unique_ptr<sim::EventLoop> owned_loop_;
  sim::EventLoop& loop_;
  sim::Rng rng_;
  std::unique_ptr<ctrl::Controller> controller_;
  std::map<of::Dpid, SwitchEntry> switches_;
  std::vector<std::unique_ptr<of::DataLink>> links_;
  std::vector<std::unique_ptr<attack::Host>> hosts_;
  std::vector<std::unique_ptr<attack::OutOfBandChannel>> oobs_;
  std::unique_ptr<check::InvariantChecker> checker_;
  bool started_ = false;
};

/// Unplug `host` from its link, and plug it into `target` (side B) after
/// `downtime`. Models maintenance reboots and VM live migration.
void migrate_host(Testbed& tb, attack::Host& host, of::DataLink& target,
                  sim::Duration downtime);

}  // namespace tmg::scenario
