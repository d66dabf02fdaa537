// Runtime invariant checker for the simulator's control-plane state.
//
// The event loop, topology graph, host tracker, and discovery ledger
// carry implicit invariants that every experiment (and every defense
// verdict built on top of them) silently assumes. This checker makes
// them explicit and machine-checked, in the spirit of sOFTDP's pairing
// of discovery with integrity verification:
//
//   1. Clock monotonicity — simulated time never moves backwards.
//   2. Topology link symmetry — every switch-to-switch link is indexed
//      in both orientations, with no dangling adjacency entries.
//   3. Discovery/topology coherence — the link-discovery ledger and the
//      topology graph describe the same link set.
//   4. Host binding sanity — one location per MAC (the paper's HTS
//      semantics), records keyed by their own MAC, and timestamps
//      ordered first_seen <= last_seen <= now.
//   5. Port-profile legality — TopoGuard profiles move HOST<->SWITCH or
//      back to ANY only across a Port-Down reset (the Port Amnesia
//      model); any other transition is a corrupted state machine.
//   6. LLDP conservation — every probe emitted is matched, expired, or
//      still outstanding exactly once, and every reception falls in
//      exactly one classification bucket.
//   7. Cache coherence — every fast-path structure must agree with the
//      naive recomputation it replaces: the routing service's path cache
//      against fresh BFS, link discovery's memoized LLDP authenticators
//      against a fresh HMAC, each defense module's internal caches (LLI's
//      incremental order statistics), and any externally registered
//      audits (the Testbed wires in each switch's flow-table priority
//      order).
//   8. Pipeline coherence — the message pipeline's listener chain is
//      priority-sorted with unique names and sane counters (delegated
//      to MessagePipeline::audit), and the chain matches the fixed
//      priority bands of ctrl/controller.hpp (fixed listeners at their
//      slots, the verdict gate exactly when the active profile
//      dispatches OrderedStop, defense adapters in the band progression
//      with the defense subscription mask).
//
// Violations are raised on the controller's AlertBus as
// AlertType::InvariantViolation (mirrored into an attached trace) —
// a violation means the *simulator* is broken, never the network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ctrl/controller.hpp"
#include "defense/topoguard.hpp"

namespace tmg::check {

struct InvariantOptions {
  /// Run the full check battery after every N executed events (via the
  /// EventLoop post-event hook). 0 disables periodic checking; manual
  /// run_checks() / final_check() still work.
  std::uint64_t check_every_events = 256;
  /// Also fail hard through TMG_ASSERT on the first violation. Off by
  /// default so tests can observe violations as alerts.
  bool assert_on_violation = false;
};

class InvariantChecker {
 public:
  /// Attaches to `ctrl`'s event loop (unless check_every_events == 0).
  /// The checker must not outlive the controller.
  explicit InvariantChecker(ctrl::Controller& ctrl,
                            InvariantOptions options = {});
  ~InvariantChecker();
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Validate TopoGuard port-profile transitions (invariant 5).
  void watch_topoguard(const defense::TopoGuard& tg);

  /// Generic profile source for invariant 5; lets tests inject arbitrary
  /// (including deliberately illegal) transition sequences.
  using ProfileSnapshot = std::map<of::Location, defense::TopoGuard::PortType>;
  using SnapshotFn = std::function<ProfileSnapshot()>;
  using ResetTimeFn =
      std::function<std::optional<sim::SimTime>(of::Location)>;
  void watch_port_profiles(SnapshotFn snapshot, ResetTimeFn last_reset);

  /// Register an external coherence audit (invariant 7) run on every
  /// check round; `fn` returns violation descriptions, empty = healthy.
  /// `name` prefixes each violation for attribution.
  using AuditFn = std::function<std::vector<std::string>()>;
  void add_audit(std::string name, AuditFn fn);

  /// Run every invariant now. Returns the violations found this round
  /// (also raised as alerts). Deterministic order.
  std::vector<std::string> run_checks();

  /// Teardown validation; called by Testbed on destruction and by tests.
  void final_check() { run_checks(); }

  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t violation_count() const { return violations_; }

 private:
  void report(std::vector<std::string>& out, std::string what,
              std::optional<of::Location> loc = std::nullopt);

  void check_clock(std::vector<std::string>& out);
  void check_topology(std::vector<std::string>& out);
  void check_discovery_coherence(std::vector<std::string>& out);
  void check_hosts(std::vector<std::string>& out);
  void check_profiles(std::vector<std::string>& out);
  void check_lldp_conservation(std::vector<std::string>& out);
  void check_caches(std::vector<std::string>& out);
  void check_pipeline(std::vector<std::string>& out);

  ctrl::Controller& ctrl_;
  InvariantOptions options_;
  sim::SimTime last_seen_now_ = sim::SimTime::zero();
  SnapshotFn profile_snapshot_;
  ResetTimeFn profile_reset_;
  ProfileSnapshot last_profiles_;
  sim::SimTime last_profile_check_ = sim::SimTime::zero();
  bool have_profile_baseline_ = false;
  std::vector<std::pair<std::string, AuditFn>> audits_;
  std::uint64_t checks_run_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace tmg::check
