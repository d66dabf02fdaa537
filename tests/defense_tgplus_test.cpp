// Tests for the TOPOGUARD+ modules: Control Message Monitor and Link
// Latency Inspector.
#include <gtest/gtest.h>

#include <utility>

#include "defense/topoguard_plus.hpp"
#include "scenario/testbed.hpp"

namespace tmg::defense {
namespace {

using namespace tmg::sim::literals;
using ctrl::AlertType;
using ctrl::LldpObservation;
using ctrl::Verdict;
using scenario::Testbed;
using scenario::TestbedOptions;
using sim::SimTime;

struct Harness {
  Testbed tb{TestbedOptions{}};
  Harness() { tb.add_switch(0x1); }

  static LldpObservation obs(SimTime emitted, SimTime received,
                             double latency_ms = 5.0) {
    LldpObservation o;
    o.src = of::Location{0x1, 1};
    o.dst = of::Location{0x2, 1};
    o.emitted_at = emitted;
    o.received_at = received;
    o.timestamp_present = true;
    o.link_latency = sim::Duration::from_millis_f(latency_ms);
    return o;
  }

  static of::PortStatus down(of::Dpid dpid, of::PortNo port) {
    return of::PortStatus{dpid, port, of::PortStatus::Reason::Down};
  }
  static of::PortStatus up(of::Dpid dpid, of::PortNo port) {
    return of::PortStatus{dpid, port, of::PortStatus::Reason::Up};
  }

  static SimTime t(std::int64_t ms) {
    return SimTime::from_nanos(ms * 1'000'000);
  }
};

// ---------------- CMM ----------------

TEST(Cmm, CleanPropagationAllowed) {
  Harness h;
  Cmm cmm{h.tb.controller()};
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Allow);
  EXPECT_EQ(cmm.detections(), 0u);
}

TEST(Cmm, PortDownOnReceiverInWindowBlocks) {
  Harness h;
  Cmm cmm{h.tb.controller()};
  cmm.on_port_status(Harness::down(0x2, 1));  // at t=0
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Block);
  EXPECT_EQ(cmm.detections(), 1u);
  EXPECT_TRUE(h.tb.controller().alerts().any(AlertType::CmmControlMessage));
}

TEST(Cmm, PortUpOnSenderInWindowBlocks) {
  Harness h;
  Cmm cmm{h.tb.controller()};
  cmm.on_port_status(Harness::up(0x1, 1));
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Block);
}

TEST(Cmm, EventOnUninvolvedPortIgnored) {
  Harness h;
  Cmm cmm{h.tb.controller()};
  cmm.on_port_status(Harness::down(0x3, 7));
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Allow);
}

TEST(Cmm, EventBeforeWindowIgnored) {
  // The CMM-evasive out-of-band variant: the flap is prepositioned
  // *between* LLDP rounds, outside every propagation window.
  Harness h;
  Cmm cmm{h.tb.controller()};
  cmm.on_port_status(Harness::down(0x2, 1));
  cmm.on_port_status(Harness::up(0x2, 1));
  // Both events are at t=0; the probe window starts later.
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(100), h.t(140))),
            Verdict::Allow);
  EXPECT_EQ(cmm.detections(), 0u);
}

TEST(Cmm, RetroactiveCheckCoversWholeWindow) {
  // Event strictly inside (not at the edges of) the window.
  Harness h;
  Cmm cmm{h.tb.controller()};
  h.tb.run_for(10_ms);  // controller clock at 10 ms
  cmm.on_port_status(Harness::down(0x2, 1));  // logged at t=10ms
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(5), h.t(25))),
            Verdict::Block);
}

TEST(Cmm, WindowEdgesBehindLongHistory) {
  // 1,000 events on both involved ports, well before any window, so the
  // lookup has a long history to skip. Then one event per endpoint and
  // three windows around it: the window is closed at both ends, and
  // 1 ns outside either end does not count.
  Harness h;
  Cmm cmm{h.tb.controller()};
  const auto advance_to = [&](SimTime t) {
    h.tb.run_for(t - h.tb.loop().now());
    ASSERT_EQ(h.tb.loop().now(), t);
  };
  for (int i = 0; i < 1000; ++i) {
    advance_to(SimTime::from_nanos(i * 1'000));  // t = 0 .. 0.999 ms
    cmm.on_port_status(i % 2 == 0 ? Harness::down(0x1, 1)
                                  : Harness::up(0x2, 1));
  }
  const auto ns = sim::Duration::nanos(1);
  const std::pair<of::Dpid, std::int64_t> endpoints[] = {{0x2, 20},
                                                         {0x1, 40}};
  for (const auto& [dpid, at_ms] : endpoints) {
    SCOPED_TRACE(at_ms);
    const SimTime at = h.t(at_ms);
    advance_to(at);
    cmm.on_port_status(Harness::down(dpid, 1));
    const SimTime before = at - 10_ms;  // after the history, before `at`
    // 1 ns before emitted_at.
    EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(at + ns, at + 5_ms)),
              Verdict::Allow);
    // 1 ns after received_at.
    EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(before, at - ns)),
              Verdict::Allow);
    // Exactly at received_at.
    EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(before, at)),
              Verdict::Block);
  }
  EXPECT_EQ(cmm.detections(), 2u);
}

TEST(Cmm, NonBlockingModeAlertsOnly) {
  Harness h;
  CmmConfig cfg;
  cfg.block = false;
  Cmm cmm{h.tb.controller(), cfg};
  cmm.on_port_status(Harness::down(0x2, 1));
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Allow);
  EXPECT_EQ(cmm.detections(), 1u);
}

TEST(Cmm, HistoryPruned) {
  Harness h;
  CmmConfig cfg;
  cfg.history = 1_s;
  Cmm cmm{h.tb.controller(), cfg};
  cmm.on_port_status(Harness::down(0x2, 1));  // at t=0
  h.tb.run_for(5_s);
  cmm.on_port_status(Harness::down(0x9, 9));  // triggers pruning
  // The old event is gone; a window that would have covered it at t=0
  // finds nothing. (Windows are never this stale in practice; this
  // guards unbounded memory.)
  EXPECT_EQ(cmm.on_lldp_observation(Harness::obs(h.t(0), h.t(20))),
            Verdict::Allow);
}

// ---------------- LLI ----------------

LliConfig quick_lli() {
  LliConfig cfg;
  cfg.min_samples = 5;
  return cfg;
}

TEST(Lli, WarmupAcceptsEverything) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0)),
              Verdict::Allow);
  }
  EXPECT_FALSE(lli.threshold_ms().has_value());
}

TEST(Lli, OutlierBlockedAfterWarmup) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  for (int i = 0; i < 20; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0 + 0.01 * i));
  }
  ASSERT_TRUE(lli.threshold_ms().has_value());
  // A relayed link: ~5ms wire + ~11ms wireless hop.
  EXPECT_EQ(lli.on_lldp_observation(Harness::obs(h.t(99), h.t(120), 16.0)),
            Verdict::Block);
  EXPECT_EQ(lli.detections(), 1u);
  EXPECT_TRUE(h.tb.controller().alerts().any(AlertType::LliAbnormalLatency));
}

TEST(Lli, OutlierNotAddedToCalibration) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  for (int i = 0; i < 20; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0 + 0.01 * i));
  }
  const double threshold_before = *lli.threshold_ms();
  lli.on_lldp_observation(Harness::obs(h.t(99), h.t(120), 16.0));
  EXPECT_DOUBLE_EQ(*lli.threshold_ms(), threshold_before);
}

TEST(Lli, NormalSampleAccepted) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  for (int i = 0; i < 20; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0 + 0.01 * i));
  }
  EXPECT_EQ(lli.on_lldp_observation(Harness::obs(h.t(99), h.t(104), 5.1)),
            Verdict::Allow);
  EXPECT_EQ(lli.detections(), 0u);
}

TEST(Lli, MissingTimestampBlocked) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  LldpObservation o = Harness::obs(h.t(0), h.t(5));
  o.timestamp_present = false;
  o.link_latency.reset();
  EXPECT_EQ(lli.on_lldp_observation(o), Verdict::Block);
  EXPECT_TRUE(h.tb.controller().alerts().any(AlertType::LliMissingTimestamp));
}

TEST(Lli, MissingTimestampToleratedWhenConfigured) {
  Harness h;
  LliConfig cfg = quick_lli();
  cfg.require_timestamp = false;
  Lli lli{h.tb.controller(), cfg};
  LldpObservation o = Harness::obs(h.t(0), h.t(5));
  o.timestamp_present = false;
  o.link_latency.reset();
  EXPECT_EQ(lli.on_lldp_observation(o), Verdict::Allow);
}

TEST(Lli, MeasurementLogRecordsEverything) {
  Harness h;
  Lli lli{h.tb.controller(), quick_lli()};
  for (int i = 0; i < 10; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0));
  }
  lli.on_lldp_observation(Harness::obs(h.t(99), h.t(120), 20.0));
  ASSERT_EQ(lli.measurements().size(), 11u);
  EXPECT_FALSE(lli.measurements()[0].flagged);
  EXPECT_TRUE(lli.measurements()[10].flagged);
  EXPECT_DOUBLE_EQ(lli.measurements()[10].latency_ms, 20.0);
  EXPECT_TRUE(lli.measurements()[10].threshold_ms.has_value());
}

TEST(Lli, ThresholdConvergesDespiteEarlyBursts) {
  // Fig. 11's bootstrap shape: startup bursts inflate the threshold,
  // then it converges as the window fills with steady-state samples.
  Harness h;
  LliConfig cfg = quick_lli();
  cfg.window_capacity = 50;
  Lli lli{h.tb.controller(), cfg};
  // Bootstrap: a handful of inflated measurements.
  for (int i = 0; i < 8; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 30), 25.0 + i));
  }
  const double burst_threshold = lli.threshold_ms().value();
  // Steady state: many 5ms samples displace the bursts.
  for (int i = 0; i < 60; ++i) {
    lli.on_lldp_observation(
        Harness::obs(h.t(100 + i), h.t(105 + i), 5.0 + 0.02 * (i % 7)));
  }
  const double converged = lli.threshold_ms().value();
  EXPECT_LT(converged, burst_threshold);
  EXPECT_LT(converged, 10.0);
}

TEST(Lli, NonBlockingModeAlertsOnly) {
  Harness h;
  LliConfig cfg = quick_lli();
  cfg.block = false;
  Lli lli{h.tb.controller(), cfg};
  for (int i = 0; i < 10; ++i) {
    lli.on_lldp_observation(Harness::obs(h.t(i), h.t(i + 1), 5.0));
  }
  EXPECT_EQ(lli.on_lldp_observation(Harness::obs(h.t(99), h.t(120), 20.0)),
            Verdict::Allow);
  EXPECT_EQ(lli.detections(), 1u);
}

// ---------------- Installer ----------------

TEST(TopoGuardPlusInstaller, WiresAllThreeModules) {
  Testbed tb{[] {
    TestbedOptions o;
    o.controller.authenticate_lldp = true;
    o.controller.lldp_timestamps = true;
    return o;
  }()};
  tb.add_switch(0x1);
  const TopoGuardPlus plus = install_topoguard_plus(tb.controller());
  EXPECT_NE(plus.topoguard, nullptr);
  EXPECT_NE(plus.cmm, nullptr);
  EXPECT_NE(plus.lli, nullptr);
  EXPECT_EQ(plus.topoguard->name(), "TopoGuard");
  EXPECT_EQ(plus.cmm->name(), "CMM");
  EXPECT_EQ(plus.lli->name(), "LLI");
}

}  // namespace
}  // namespace tmg::defense
