// Trace-profile anomaly IDS (DESIGN.md §14).
//
// ProfileAnomalyService is the learned complement to the hand-written
// defenses: instead of encoding TopoGuard-style invariants, it
// featurizes the live pipeline dispatch stream — the IDS's only
// featurizer, feeding a ProfileTrainer in Train mode — and in Detect
// mode scores deviations from a BehaviorProfile: an unseen per-port
// message transition, a rate-envelope breach, an LLDP source the port
// never saw in training, a span duration beyond the trained envelope.
// It hangs off the controller's always-present "anomaly-ids" chain slot
// (Controller::set_anomaly_detector), after the defense band and before
// the verdict gate. It only observes: deviations raise alerts, and every
// hook returns Allow.
//
// Everything is simulated-time derived (the obs wall-clock ban
// applies): with the same profile and seed, a run's deviation stream,
// metrics, and alerts are byte-identical across repetitions and
// --jobs counts.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "ctrl/alert_bus.hpp"
#include "ctrl/defense_module.hpp"
#include "ids/behavior_profile.hpp"
#include "obs/observability.hpp"
#include "sim/event_loop.hpp"

namespace tmg::ids {

/// Deviation + bookkeeping totals (mirrored into ids.anomaly.* when
/// observability is attached; harvested into bench/scenario outcomes).
struct AnomalyCounters {
  std::uint64_t scored = 0;  // events featurized in Detect mode
  std::uint64_t unseen_port = 0;
  std::uint64_t unseen_transition = 0;
  std::uint64_t unseen_trigram = 0;
  std::uint64_t lldp_src_violation = 0;
  std::uint64_t rate_breach = 0;
  std::uint64_t duration_outlier = 0;
  std::uint64_t alerts = 0;  // AlertBus raises (per-port/reason deduped)
  /// Always 0: the detector never blocks. Kept only because the
  /// benchmark's outcome digest reads it (perfbench/src/workloads.cpp).
  std::uint64_t vetoes = 0;
  [[nodiscard]] std::uint64_t deviations() const {
    return unseen_port + unseen_transition + unseen_trigram +
           lldp_src_violation + rate_breach + duration_outlier;
  }
};

class ProfileAnomalyService final : public ctrl::DefenseModule {
 public:
  explicit ProfileAnomalyService(sim::EventLoop& loop) : loop_{loop} {}

  /// Detect mode: score against `profile` (borrowed; nullptr disables).
  void set_profile(const BehaviorProfile* profile) { profile_ = profile; }
  /// Train mode: forward the live featurization into `trainer`
  /// (borrowed; takes precedence over Detect when both are set).
  void set_trainer(ProfileTrainer* trainer) { trainer_ = trainer; }
  /// Alert sink (borrowed). Alerts are deduplicated per (port, reason)
  /// so a sustained attack cannot flood the bus (paper Sec. IV-B).
  void set_alert_bus(ctrl::AlertBus* alerts) { alerts_ = alerts; }
  /// Metrics + ANOMALY_* trace instants (borrowed; nullptr detaches).
  /// Scoring behavior is identical with or without observability.
  void set_observability(obs::Observability* obs);

  [[nodiscard]] const AnomalyCounters& counters() const { return counters_; }

  /// Drop per-run state (sequences, buckets, dedup, counters); the
  /// profile, trainer, and sinks stay attached.
  void reset();

  // --- ctrl::DefenseModule ---
  [[nodiscard]] std::string name() const override { return "AnomalyIDS"; }
  ctrl::Verdict on_packet_in(const of::PacketIn& pi) override;
  void on_port_status(const of::PortStatus& ps) override;
  ctrl::Verdict on_lldp_observation(
      const ctrl::LldpObservation& obs) override;
  void on_link_removed(const topo::Link& link) override;
  ctrl::Verdict on_host_event(const ctrl::HostEvent& ev) override;

 private:
  enum class Deviation {
    UnseenPort,
    UnseenTransition,
    UnseenTrigram,  // counter-only: the sparser table would alert-flood
    LldpSrc,
    RateBreach,
    DurationOutlier,
  };
  struct PortState {
    Symbol s1 = Symbol::Start;
    Symbol s2 = Symbol::Start;
    std::int64_t bucket = -1;
    std::uint64_t in_bucket = 0;
  };

  /// Feed one symbol at one port.
  void score(PortKey port, Symbol sym);
  /// Record a deviation (counters, trace instant, deduped alert).
  /// `message()` builds the deviation's text; it is called only when a
  /// trace instant or the first alert for (port, kind) will carry it.
  template <typename MessageFn>
  void deviate(Deviation kind, PortKey port, MessageFn&& message);
  [[nodiscard]] const PortProfile* baseline(PortKey port) const;
  void bump(obs::Counter* counter) {
    if (counter != nullptr) counter->add(1);
  }

  sim::EventLoop& loop_;
  const BehaviorProfile* profile_ = nullptr;
  ProfileTrainer* trainer_ = nullptr;
  ctrl::AlertBus* alerts_ = nullptr;
  obs::Observability* obs_ = nullptr;

  std::map<PortKey, PortState> state_;
  std::set<std::pair<PortKey, int>> alerted_;  // (port, Deviation) dedup
  AnomalyCounters counters_;

  // Cached metric handles (registry-owned; valid until obs reset).
  obs::Counter* c_scored_ = nullptr;
  obs::Counter* c_unseen_port_ = nullptr;
  obs::Counter* c_unseen_transition_ = nullptr;
  obs::Counter* c_unseen_trigram_ = nullptr;
  obs::Counter* c_lldp_src_ = nullptr;
  obs::Counter* c_rate_breach_ = nullptr;
  obs::Counter* c_duration_outlier_ = nullptr;
  obs::Counter* c_alerts_ = nullptr;
  obs::Gauge* g_score_ = nullptr;
  obs::Gauge* g_ports_ = nullptr;
};

}  // namespace tmg::ids
