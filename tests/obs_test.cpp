// Observability layer tests (DESIGN.md §10).
//
// Three contracts under test:
//   1. The metrics registry and trace log are deterministic: exports
//      are byte-stable, handles survive reset(), names are validated.
//   2. The span log reconstructs causal trees (hijack race windows), and
//      its record cap drops and counts what overflows.
//   3. Determinism end to end: attaching the observability layer to a
//      full hijack experiment yields byte-identical metrics JSON and
//      trace JSONL across repeated runs and across --jobs 1 vs --jobs 8
//      (the same discipline as the pipeline.equivalence CI leg) — and
//      per-trial pipeline counters start from zero on every trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/assert.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/message_pipeline.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace_log.hpp"
#include "of/control_channel.hpp"
#include "scenario/experiments.hpp"
#include "scenario/fig1_testbed.hpp"
#include "scenario/trial_runner.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"
#include "sim/time.hpp"

namespace tmg {
namespace {

using namespace tmg::sim::literals;

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, NameValidation) {
  using obs::MetricsRegistry;
  EXPECT_TRUE(MetricsRegistry::valid_name("pipeline.dispatches"));
  EXPECT_TRUE(MetricsRegistry::valid_name("ctrl.echo_rtt_ms"));
  EXPECT_TRUE(MetricsRegistry::valid_name(
      "pipeline.listener_dispatches{listener=host-tracking}"));
  EXPECT_FALSE(MetricsRegistry::valid_name("nodot"));
  EXPECT_FALSE(MetricsRegistry::valid_name("Upper.case"));
  EXPECT_FALSE(MetricsRegistry::valid_name("trailing.dot."));
  EXPECT_FALSE(MetricsRegistry::valid_name("a.b{unclosed"));
  EXPECT_FALSE(MetricsRegistry::valid_name(""));
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("sim.events");
  c.add(3);
  EXPECT_EQ(&c, &reg.counter("sim.events"));
  EXPECT_EQ(reg.counter("sim.events").value(), 3u);

  stats::Histogram& h = reg.histogram("sim.queue_depth", 0.0, 100.0, 10);
  h.add(42.0);
  EXPECT_EQ(&h, &reg.histogram("sim.queue_depth", 0.0, 100.0, 10));
}

TEST(MetricsRegistry, ResetIsInPlaceSoHandlesStayValid) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("a.count");
  obs::Gauge& g = reg.gauge("a.gauge");
  stats::Histogram& h = reg.histogram("a.hist", 0.0, 10.0, 5);
  c.add(7);
  g.set(1.5);
  h.add(3.0);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.total(), 0u);

  // The pre-reset handles must still feed the registry (hot paths cache
  // them once at attach).
  c.inc();
  EXPECT_EQ(reg.counter("a.count").value(), 1u);
}

TEST(MetricsRegistry, ExportsAreByteStable) {
  const auto build = [] {
    obs::MetricsRegistry reg;
    reg.counter("b.second").add(2);
    reg.counter("a.first").inc();
    reg.gauge("z.gauge").set(0.25);
    reg.histogram("m.hist", 0.0, 4.0, 2).add(1.0);
    return std::make_pair(reg.to_json(sim::SimTime::zero() + 5_ms),
                          reg.to_csv(sim::SimTime::zero() + 5_ms));
  };
  const auto [json1, csv1] = build();
  const auto [json2, csv2] = build();
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(csv1, csv2);
  // Keys export in sorted order regardless of registration order.
  EXPECT_LT(json1.find("a.first"), json1.find("b.second"));
  EXPECT_NE(json1.find("\"at_ns\": 5000000"), std::string::npos);
}

TEST(MetricsRegistry, EmptySnapshotIsWellFormed) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  const std::string json = reg.to_json(sim::SimTime::zero());
  // All three sections present (empty), stable across calls.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json, reg.to_json(sim::SimTime::zero()));
  const std::string csv = reg.to_csv(sim::SimTime::zero());
  EXPECT_NE(csv.find("# at_ns=0"), std::string::npos);
  EXPECT_EQ(csv, reg.to_csv(sim::SimTime::zero()));
}

TEST(MetricsRegistry, EmptyHistogramExportsZeroTotal) {
  obs::MetricsRegistry reg;
  (void)reg.histogram("h.empty", 0.0, 10.0, 4);
  const std::string json = reg.to_json(sim::SimTime::zero());
  EXPECT_NE(json.find("h.empty"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 0"), std::string::npos);
  const std::string csv = reg.to_csv(sim::SimTime::zero());
  EXPECT_NE(csv.find("histogram,h.empty,total,0"), std::string::npos);
}

TEST(MetricsRegistry, DuplicateHistogramRegistration) {
  obs::MetricsRegistry reg;
  stats::Histogram& h = reg.histogram("d.hist", 0.0, 8.0, 4);
  // Same buckets: find-or-create returns the same instance, and the
  // registry does not grow.
  EXPECT_EQ(&h, &reg.histogram("d.hist", 0.0, 8.0, 4));
  EXPECT_EQ(reg.size(), 1u);

  // Different buckets under the same name: contract violation, reported
  // through the assertion handler (the original layout survives).
  int failures = 0;
  check::FailureHandler previous = check::set_failure_handler(
      [&](const char*, int, const char*, const std::string&) { ++failures; });
  (void)reg.histogram("d.hist", 0.0, 99.0, 7);
  check::set_failure_handler(std::move(previous));
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, ExportOrderIndependentOfRegistrationOrder) {
  const auto build = [](bool reversed) {
    obs::MetricsRegistry reg;
    const auto fill = [&reg](int step) {
      switch (step) {
        case 0:
          reg.counter("c.one").add(1);
          break;
        case 1:
          reg.counter("c.two").add(2);
          break;
        case 2:
          reg.gauge("g.one").set(0.5);
          break;
        case 3:
          reg.histogram("h.one", 0.0, 4.0, 2).add(1.0);
          break;
        default:
          break;
      }
    };
    for (int i = 0; i < 4; ++i) fill(reversed ? 3 - i : i);
    return std::make_pair(reg.to_json(sim::SimTime::zero()),
                          reg.to_csv(sim::SimTime::zero()));
  };
  const auto [json_fwd, csv_fwd] = build(false);
  const auto [json_rev, csv_rev] = build(true);
  EXPECT_EQ(json_fwd, json_rev);
  EXPECT_EQ(csv_fwd, csv_rev);
}

// ---------------------------------------------------------------------
// Trace log
// ---------------------------------------------------------------------

TEST(TraceLog, SpanTreeAndExports) {
  obs::TraceLog log;
  const obs::SpanId root = log.begin_span(sim::SimTime::zero(), "attack",
                                          "hijack");
  log.annotate(root, "victim_ip", "10.0.0.1");
  const obs::SpanId probe =
      log.begin_span(sim::SimTime::zero() + 1_ms, "attack", "probe", root);
  log.end_span(probe, sim::SimTime::zero() + 2_ms);
  log.instant(sim::SimTime::zero() + 3_ms, "scenario", "victim.down");
  log.end_span(root, sim::SimTime::zero() + 4_ms);

  const std::string jsonl = log.to_jsonl();
  EXPECT_NE(jsonl.find("\"ph\":\"span\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"victim_ip\":\"10.0.0.1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ph\":\"instant\""), std::string::npos);

  const std::string chrome = log.to_chrome_trace();
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);

  const auto& recs = log.records();
  EXPECT_EQ(std::count_if(recs.begin(), recs.end(),
                          [](const obs::TraceLog::Record& r) {
                            return r.category == "attack" && r.name == "probe";
                          }),
            1);
  EXPECT_EQ(std::count_if(recs.begin(), recs.end(),
                          [](const obs::TraceLog::Record& r) {
                            return r.category == "attack";
                          }),
            2);
}

TEST(TraceLog, NullIdIsNoOpEverywhere) {
  obs::TraceLog log;
  log.end_span(0, sim::SimTime::zero());
  log.annotate(0, "k", "v");
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLog, CapDropsRecordsAndClearEmptiesTheLog) {
  obs::TraceLog log{2};  // tiny cap
  log.instant(sim::SimTime::zero(), "c", "n");
  log.instant(sim::SimTime::zero(), "c", "n");
  const obs::SpanId dropped = log.instant(sim::SimTime::zero(), "c", "n");
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.instant_total("c"), 2u);  // stored instants only

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.instant_total("c"), 0u);
}

// ---------------------------------------------------------------------
// MessagePipeline counters: reset + zeroed-per-trial regression
// ---------------------------------------------------------------------

class CountingListener final : public ctrl::MessageListener {
 public:
  explicit CountingListener(std::string name) : name_{std::move(name)} {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint32_t subscriptions() const override {
    return mask_of(ctrl::MessageType::PacketIn);
  }
  ctrl::Disposition on_message(const ctrl::PipelineMessage&,
                               ctrl::DispatchContext&) override {
    return ctrl::Disposition::Continue;
  }

 private:
  std::string name_;
};

TEST(MessagePipeline, ResetStatsZeroesCountersButKeepsChain) {
  ctrl::MessagePipeline p;
  p.add_owned(100, std::make_unique<CountingListener>("alpha"));
  p.add_owned(200, std::make_unique<CountingListener>("beta"));
  p.set_enabled("beta", false);

  of::PacketIn pi;
  for (int i = 0; i < 5; ++i) {
    (void)p.dispatch(ctrl::PipelineMessage::from(0, pi));
  }
  auto stats = p.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].dispatches, 5u);
  EXPECT_EQ(stats[1].dispatches, 0u);  // disabled

  p.reset_stats();
  stats = p.stats();
  EXPECT_EQ(stats[0].dispatches, 0u);
  EXPECT_EQ(stats[0].stops, 0u);
  // Chain membership and the enabled flags are untouched.
  EXPECT_TRUE(p.is_enabled("alpha"));
  EXPECT_FALSE(p.is_enabled("beta"));
  EXPECT_TRUE(p.audit().empty());

  // Counters restart cleanly.
  (void)p.dispatch(ctrl::PipelineMessage::from(0, pi));
  EXPECT_EQ(p.stats()[0].dispatches, 1u);
}

std::string serialize_stats(
    const std::vector<ctrl::MessagePipeline::ListenerStats>& stats) {
  std::string s;
  for (const auto& ls : stats) {
    s += ls.name + ":" + std::to_string(ls.dispatches) + ":" +
         std::to_string(ls.stops) + ";";
  }
  return s;
}

// Regression (--jobs 8): every trial's per-listener counters must start
// from zero — a worker thread that already ran a trial must not leak
// dispatch counts into the next one it picks up.
TEST(MessagePipeline, TrialsStartFromZeroedCountersAtJobs8) {
  const auto run_trials = [](std::size_t jobs) {
    scenario::TrialRunner runner{{jobs}};
    return runner.map(8, [](std::size_t i) {
      scenario::HijackConfig cfg;
      cfg.seed = 7;  // same seed: identical trials expose any leakage
      cfg.suite = scenario::DefenseSuite::TopoGuard;
      cfg.collect_pipeline_stats = true;
      (void)i;
      return serialize_stats(scenario::run_hijack(cfg).pipeline_stats);
    });
  };
  const auto serial = run_trials(1);
  const auto parallel = run_trials(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
    // Identical configs => identical counters; trial 0 is the baseline.
    EXPECT_EQ(serial[i], serial[0]) << "trial " << i;
  }
}

// ---------------------------------------------------------------------
// End-to-end determinism of the exports
// ---------------------------------------------------------------------

/// One observed hijack run, exporting both artifacts.
std::pair<std::string, std::string> observed_hijack_export() {
  obs::Observability obs;
  scenario::HijackConfig cfg;
  cfg.seed = 7;
  cfg.suite = scenario::DefenseSuite::TopoGuardAndSphinx;
  cfg.obs = &obs;
  (void)scenario::run_hijack(cfg);
  return {obs.metrics_json(obs.final_time()), obs.trace().to_jsonl()};
}

TEST(Observability, ExportsAreByteIdenticalAcrossRuns) {
  const auto [metrics1, trace1] = observed_hijack_export();
  const auto [metrics2, trace2] = observed_hijack_export();
  EXPECT_EQ(metrics1, metrics2);
  EXPECT_EQ(trace1, trace2);
  // The exports carry real content, not vacuous equality.
  EXPECT_NE(metrics1.find("pipeline.dispatches"), std::string::npos);
  EXPECT_NE(trace1.find("\"cat\":\"attack\",\"name\":\"race\""),
            std::string::npos);
}

TEST(Observability, ExportsAreByteIdenticalAcrossJobs1And8) {
  const auto run_trials = [](std::size_t jobs) {
    scenario::TrialRunner runner{{jobs}};
    return runner.map(8, [](std::size_t i) {
      obs::Observability obs;
      scenario::HijackConfig cfg;
      cfg.seed = scenario::TrialRunner::trial_seed(7, i);
      cfg.suite = scenario::DefenseSuite::TopoGuard;
      cfg.obs = &obs;
      (void)scenario::run_hijack(cfg);
      return obs.metrics_json(obs.final_time()) + "\x1e" +
             obs.trace().to_jsonl();
    });
  };
  const auto serial = run_trials(1);
  const auto parallel = run_trials(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

TEST(Observability, ResetClearsStateAndDropsCollectors) {
  obs::Observability obs;
  int calls = 0;
  obs.add_collector([&](obs::MetricsRegistry& m, sim::SimTime) {
    ++calls;
    m.gauge("x.y").set(1.0);
  });
  obs.metrics().counter("a.b").inc();
  obs.trace().instant(sim::SimTime::zero(), "c", "n");
  obs.collect(sim::SimTime::zero());
  EXPECT_EQ(calls, 1);

  obs.reset();
  EXPECT_EQ(obs.metrics().counter("a.b").value(), 0u);
  EXPECT_EQ(obs.trace().size(), 0u);
  obs.collect(sim::SimTime::zero());
  EXPECT_EQ(calls, 1);  // collector was dropped
}

// The five flow.* gauges, read by value through the export. The
// benchmark's Packet-In count reads flow.packets by name, and a gauge
// looked up under a name nothing sets reads 0 instead of failing.
TEST(Observability, FlowGaugesCountPacketInsBySwitchAndPort) {
  sim::EventLoop loop;
  obs::Observability obs;
  of::ControlChannel ch1{loop, sim::Rng{2}, sim::make_fixed(1_ms)};
  of::ControlChannel ch2{loop, sim::Rng{3}, sim::make_fixed(1_ms)};
  ch1.attach_switch([](const of::CtrlToSwitch&) {});
  ch2.attach_switch([](const of::CtrlToSwitch&) {});
  ctrl::Controller ctrl{loop, sim::Rng{1}, ctrl::ControllerConfig{}};
  ctrl.connect_switch(0x1, ch1, {1, 2});
  ctrl.connect_switch(0x2, ch2, {1});
  ctrl.set_observability(&obs);
  // A raw UDP frame of `wire` bytes: 14 Ethernet + 20 IP + payload.
  const auto packet_in = [](of::Dpid dpid, of::PortNo port,
                            std::size_t wire, std::uint32_t host) {
    of::PacketIn pi;
    pi.dpid = dpid;
    pi.in_port = port;
    pi.packet = std::make_shared<const net::Packet>(net::make_raw(
        net::MacAddress::host(host), net::Ipv4Address::host(host),
        net::MacAddress::host(99), net::Ipv4Address::host(99), "flow",
        wire - 34));
    return pi;
  };
  // Two switches, three ports: 0x1:1 twice.
  ch1.to_controller(packet_in(0x1, 1, 100, 1));
  ch1.to_controller(packet_in(0x1, 2, 200, 2));
  ch1.to_controller(packet_in(0x1, 1, 300, 3));
  ch2.to_controller(packet_in(0x2, 1, 400, 4));
  loop.run();  // start() was never called, so the queue drains

  obs.finalize(loop.now());
  const std::string json = obs.metrics_json(obs.final_time());
  EXPECT_NE(json.find("\"flow.packets\": 4.000000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"flow.bytes\": 1000.000000"), std::string::npos);
  EXPECT_NE(json.find("\"flow.mean_packet_bytes\": 250.000000"),
            std::string::npos);
  EXPECT_NE(json.find("\"flow.switch_cells\": 2.000000"), std::string::npos);
  EXPECT_NE(json.find("\"flow.port_cells\": 3.000000"), std::string::npos);
}

TEST(Observability, FinalizeRunsCollectorsOnceThenDetaches) {
  obs::Observability obs;
  int calls = 0;
  obs.add_collector([&](obs::MetricsRegistry& m, sim::SimTime) {
    ++calls;
    m.gauge("x.y").set(2.0);
  });
  obs.finalize(sim::SimTime::zero() + 9_ms);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(obs.final_time().count_nanos(), 9000000);
  // Post-finalize exports reuse the mirrored values; the (possibly
  // dangling in real use) collector must not run again.
  const std::string json = obs.metrics_json(obs.final_time());
  EXPECT_EQ(calls, 1);
  EXPECT_NE(json.find("\"x.y\": 2.000000"), std::string::npos);
}

}  // namespace
}  // namespace tmg
