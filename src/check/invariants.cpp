#include "check/invariants.hpp"

#include <algorithm>

#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"
#include "ctrl/link_discovery.hpp"
#include "ctrl/routing.hpp"

namespace tmg::check {

InvariantChecker::InvariantChecker(ctrl::Controller& ctrl,
                                   InvariantOptions options)
    : ctrl_{ctrl}, options_{options} {
  last_seen_now_ = ctrl_.loop().now();
  if (options_.check_every_events > 0) {
    ctrl_.loop().set_post_event_hook(options_.check_every_events,
                                     [this] { run_checks(); });
  }
}

InvariantChecker::~InvariantChecker() {
  if (options_.check_every_events > 0) {
    ctrl_.loop().set_post_event_hook(0, nullptr);
  }
}

void InvariantChecker::watch_topoguard(const defense::TopoGuard& tg) {
  // Reconstruct the profile map from every (dpid, port) the controller
  // manages; ports never observed stay ANY and need no entry.
  watch_port_profiles(
      [this, &tg] {
        ProfileSnapshot snap;
        for (const of::Dpid dpid : ctrl_.switch_dpids()) {
          for (const of::PortNo port : ctrl_.switch_ports(dpid)) {
            const of::Location loc{dpid, port};
            const auto type = tg.port_type(loc);
            if (type != defense::TopoGuard::PortType::Any) snap[loc] = type;
          }
        }
        return snap;
      },
      [&tg](of::Location loc) { return tg.last_reset(loc); });
}

void InvariantChecker::watch_port_profiles(SnapshotFn snapshot,
                                           ResetTimeFn last_reset) {
  profile_snapshot_ = std::move(snapshot);
  profile_reset_ = std::move(last_reset);
  have_profile_baseline_ = false;
}

void InvariantChecker::add_audit(std::string name, AuditFn fn) {
  audits_.emplace_back(std::move(name), std::move(fn));
}

void InvariantChecker::report(std::vector<std::string>& out, std::string what,
                              std::optional<of::Location> loc) {
  ++violations_;
  ctrl_.alerts().raise(ctrl::Alert{ctrl_.loop().now(), "InvariantChecker",
                                   ctrl::AlertType::InvariantViolation, what,
                                   loc});
  if (options_.assert_on_violation) {
    TMG_ASSERT(false, what);
  }
  out.push_back(std::move(what));
}

void InvariantChecker::check_clock(std::vector<std::string>& out) {
  const sim::SimTime now = ctrl_.loop().now();
  if (now < last_seen_now_) {
    report(out, "clock moved backwards: " + sim::to_string(now) +
                    " after " + sim::to_string(last_seen_now_));
  }
  last_seen_now_ = now;
}

void InvariantChecker::check_topology(std::vector<std::string>& out) {
  for (std::string& issue : ctrl_.topology().audit()) {
    report(out, "topology: " + issue);
  }
}

void InvariantChecker::check_discovery_coherence(
    std::vector<std::string>& out) {
  const auto states = ctrl_.link_discovery().link_states();
  for (const auto& state : states) {
    if (!ctrl_.topology().has_link(state.link.a, state.link.b)) {
      report(out,
             "discovery ledger holds " + state.link.to_string() +
                 " but the topology graph does not",
             state.link.a);
    }
  }
  const std::size_t graph_links = ctrl_.topology().link_count();
  if (graph_links != states.size()) {
    report(out, "topology graph has " + std::to_string(graph_links) +
                    " links but the discovery ledger has " +
                    std::to_string(states.size()));
  }
}

void InvariantChecker::check_hosts(std::vector<std::string>& out) {
  const sim::SimTime now = ctrl_.loop().now();
  std::vector<std::pair<std::string, of::Location>> found;
  // hosts_sorted() is already MAC-ordered, so findings come out sorted
  // without depending on the table's physical layout.
  for (const auto& rec : ctrl_.host_tracker().hosts_sorted()) {
    if (rec.first_seen > rec.last_seen) {
      found.emplace_back("host " + rec.mac.to_string() + " first_seen " +
                             sim::to_string(rec.first_seen) +
                             " after last_seen " +
                             sim::to_string(rec.last_seen),
                         rec.loc);
    }
    if (rec.last_seen > now) {
      found.emplace_back("host " + rec.mac.to_string() + " last_seen " +
                             sim::to_string(rec.last_seen) +
                             " is in the future (now " + sim::to_string(now) +
                             ")",
                         rec.loc);
    }
  }
  // Structural audit of the open-addressed store itself (probe
  // reachability, load bound, size count).
  for (const std::string& what : ctrl_.host_tracker().audit_table()) {
    found.emplace_back("host table: " + what, of::Location{});
  }
  std::sort(found.begin(), found.end());
  for (auto& [what, loc] : found) report(out, std::move(what), loc);
}

void InvariantChecker::check_profiles(std::vector<std::string>& out) {
  if (!profile_snapshot_) return;
  const sim::SimTime now = ctrl_.loop().now();
  ProfileSnapshot current = profile_snapshot_();
  if (!have_profile_baseline_) {
    last_profiles_ = std::move(current);
    last_profile_check_ = now;
    have_profile_baseline_ = true;
    return;
  }

  using PortType = defense::TopoGuard::PortType;
  const auto type_of = [](const ProfileSnapshot& snap, of::Location loc) {
    const auto it = snap.find(loc);
    return it == snap.end() ? PortType::Any : it->second;
  };
  const auto reset_since_last = [&](of::Location loc) {
    if (!profile_reset_) return false;
    const auto reset = profile_reset_(loc);
    return reset && *reset >= last_profile_check_;
  };

  // Union of both ordered snapshots, walked in key order.
  std::vector<of::Location> locations;
  for (const auto& [loc, _] : last_profiles_) locations.push_back(loc);
  for (const auto& [loc, _] : current) locations.push_back(loc);
  std::sort(locations.begin(), locations.end());
  locations.erase(std::unique(locations.begin(), locations.end()),
                  locations.end());

  for (const of::Location loc : locations) {
    const PortType before = type_of(last_profiles_, loc);
    const PortType after = type_of(current, loc);
    if (before == after || before == PortType::Any) continue;
    // HOST->SWITCH, SWITCH->HOST, and X->ANY are only legal across a
    // Port-Down reset (the Port Amnesia model: ANY is re-entered via
    // the defined reset, then reclassified by first traffic).
    if (!reset_since_last(loc)) {
      report(out,
             std::string{"port profile "} + defense::to_string(before) +
                 "->" + defense::to_string(after) + " on " + loc.to_string() +
                 " without a Port-Down reset",
             loc);
    }
  }
  last_profiles_ = std::move(current);
  last_profile_check_ = now;
}

void InvariantChecker::check_lldp_conservation(
    std::vector<std::string>& out) {
  const auto acc = ctrl_.link_discovery().lldp_accounting();
  const std::uint64_t accounted =
      acc.matched + acc.expired + acc.outstanding_unmatched;
  if (acc.emitted != accounted) {
    report(out, "LLDP conservation: " + std::to_string(acc.emitted) +
                    " probes emitted but " + std::to_string(accounted) +
                    " accounted for (matched " + std::to_string(acc.matched) +
                    " + expired " + std::to_string(acc.expired) +
                    " + outstanding " +
                    std::to_string(acc.outstanding_unmatched) + ")");
  }
  const std::uint64_t receptions = ctrl_.link_discovery().receptions();
  const std::uint64_t classified = acc.matched + acc.duplicate +
                                   acc.unsolicited + acc.reflected +
                                   acc.invalid_signature;
  if (receptions != classified) {
    report(out, "LLDP conservation: " + std::to_string(receptions) +
                    " receptions but " + std::to_string(classified) +
                    " classified");
  }
}

void InvariantChecker::check_caches(std::vector<std::string>& out) {
  // Routing path cache: every memoized path must equal a fresh BFS.
  for (std::string& issue : ctrl_.routing().path_cache().audit()) {
    report(out, "cache: routing: " + issue);
  }
  // Link discovery's LLDP authenticators: every tag must equal a fresh
  // HMAC of its core.
  for (std::string& issue : ctrl_.link_discovery().audit()) {
    report(out, "cache: link-discovery: " + issue);
  }
  // Defense-module internal caches (e.g. LLI's incremental statistics).
  for (const auto& module : ctrl_.defense_modules()) {
    for (std::string& issue : module->audit()) {
      report(out, "cache: " + module->name() + ": " + issue);
    }
  }
  // Externally registered audits (switch flow-table order, etc.).
  for (const auto& [name, fn] : audits_) {
    for (std::string& issue : fn()) {
      report(out, "cache: " + name + ": " + issue);
    }
  }
}

void InvariantChecker::check_pipeline(std::vector<std::string>& out) {
  for (std::string& issue : ctrl_.pipeline().audit()) {
    report(out, "pipeline: " + issue);
  }

  // The chain must match the fixed priority bands (ctrl/controller.hpp):
  // every fixed listener at its slot, the verdict gate exactly when the
  // profile dispatches OrderedStop, every defense adapter in the band
  // progression with the defense subscription mask.
  const ctrl::ControllerProfile& profile = ctrl_.config().profile;
  const auto stats = ctrl_.pipeline().stats();
  const auto slot_of = [&](const std::string& name) -> const auto* {
    for (const auto& s : stats) {
      if (s.name == name) return &s;
    }
    return static_cast<const ctrl::MessagePipeline::ListenerStats*>(nullptr);
  };
  const auto expect_slot = [&](const char* name, int slot) {
    const auto* s = slot_of(name);
    if (s == nullptr) {
      report(out, std::string{"pipeline: profile "} + profile.name +
                      ": listener '" + name + "' missing from the chain");
    } else if (s->priority != slot) {
      report(out, std::string{"pipeline: profile "} + profile.name +
                      ": listener '" + name + "' at priority " +
                      std::to_string(s->priority) + ", slot is " +
                      std::to_string(slot));
    }
  };
  expect_slot("controller-core", ctrl::kCoreSlot);
  expect_slot("anomaly-ids", ctrl::kAnomalyIdsSlot);
  expect_slot(ctrl::kLinkDiscoveryServiceName, ctrl::kLinkDiscoverySlot);
  expect_slot(ctrl::kHostTrackingServiceName, ctrl::kHostTrackingSlot);
  expect_slot(ctrl::kRoutingServiceName, ctrl::kRoutingSlot);
  if (profile.discipline == ctrl::DispatchDiscipline::OrderedStop) {
    expect_slot("verdict-gate", ctrl::kVerdictGateSlot);
  } else if (slot_of("verdict-gate") != nullptr) {
    report(out, std::string{"pipeline: profile "} + profile.name +
                    ": verdict gate installed in a broadcast-observe chain");
  }
  const auto& modules = ctrl_.defense_modules();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const auto* s = slot_of(modules[i]->name());
    const int slot =
        ctrl::kDefenseBase + ctrl::kDefenseStep * static_cast<int>(i);
    if (s == nullptr) {
      report(out, std::string{"pipeline: profile "} + profile.name +
                      ": defense '" + modules[i]->name() +
                      "' missing from the chain");
      continue;
    }
    if (s->priority != slot) {
      report(out, std::string{"pipeline: profile "} + profile.name +
                      ": defense '" + modules[i]->name() + "' at priority " +
                      std::to_string(s->priority) + ", band slot is " +
                      std::to_string(slot));
    }
    if (s->subscriptions != ctrl::kDefenseSubscriptions) {
      report(out, std::string{"pipeline: profile "} + profile.name +
                      ": defense '" + modules[i]->name() +
                      "' subscription mask diverges from the defense mask");
    }
  }
}

std::vector<std::string> InvariantChecker::run_checks() {
  ++checks_run_;
  std::vector<std::string> out;
  check_clock(out);
  check_topology(out);
  check_discovery_coherence(out);
  check_hosts(out);
  check_profiles(out);
  check_lldp_conservation(out);
  check_caches(out);
  check_pipeline(out);
  return out;
}

}  // namespace tmg::check
