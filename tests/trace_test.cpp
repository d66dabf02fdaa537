// Tests for controller event tracing: Controller::trace_event's
// "ctrl/<KIND>" instants in the observability trace, and the
// TraceLog console export that renders them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "ctrl/controller.hpp"
#include "obs/observability.hpp"
#include "scenario/testbed.hpp"

namespace tmg::ctrl {
namespace {

using namespace tmg::sim::literals;
using scenario::Testbed;
using scenario::TestbedOptions;

/// The `key` arg of the first "ctrl/<name>" instant ("" when absent).
std::string first_arg(const obs::TraceLog& log, const char* name,
                      const char* key) {
  const auto& recs = log.records();
  const auto rec = std::find_if(recs.begin(), recs.end(), [&](const auto& r) {
    return !r.is_span && r.category == "ctrl" && r.name == name;
  });
  if (rec == recs.end()) return "";
  for (const auto& [k, v] : rec->args) {
    if (k == key) return v;
  }
  return "";
}

/// Stored "ctrl/<name>" records.
std::size_t ctrl_records(const obs::TraceLog& log, const char* name) {
  const auto& recs = log.records();
  return static_cast<std::size_t>(
      std::count_if(recs.begin(), recs.end(), [&](const auto& r) {
        return r.category == "ctrl" && r.name == name;
      }));
}

TEST(Tracer, RecordsAndCounts) {
  obs::Observability obs;
  Testbed tb{TestbedOptions{}};
  Controller& c = tb.controller();
  c.trace_event(EventKind::PortDown, "unobserved");  // no sink: dropped
  tb.set_observability(&obs);
  c.trace_event(EventKind::PortDown, "x", of::Location{0x1, 2});
  c.trace_event(EventKind::PortUp, "y", of::Location{0x1, 2});
  c.trace_event(EventKind::PortDown, "z");
  const obs::TraceLog& log = obs.trace();
  EXPECT_EQ(log.instant_total("ctrl"), 3u);
  EXPECT_EQ(ctrl_records(log, "PORT_DOWN"), 2u);
  EXPECT_EQ(ctrl_records(log, "ALERT"), 0u);
  EXPECT_EQ(first_arg(log, "PORT_DOWN", "detail"), "x");
  EXPECT_EQ(first_arg(log, "PORT_DOWN", "loc"), "0x1:2");
}

// One LINK_ADDED instant through both exports: the console line carries
// sim time, kind and loc; the flat per-record export (JSONL, which
// superseded the CSV one) carries the same three fields.
TEST(Tracer, RenderAndCsv) {
  obs::TraceLog log;
  const obs::SpanId link =
      log.instant(sim::SimTime::from_nanos(1'500'000'000), "ctrl",
                  "LINK_ADDED", "0x1:10<->0x2:10");
  log.annotate(link, "loc", "0x2:10");
  const std::string rendered = log.to_console("ctrl");
  EXPECT_NE(rendered.find("LINK_ADDED"), std::string::npos);
  EXPECT_NE(rendered.find("1.500s"), std::string::npos);
  EXPECT_NE(rendered.find("0x2:10"), std::string::npos);
  EXPECT_EQ(log.to_jsonl(),
            "{\"ph\":\"instant\",\"id\":1,\"parent\":0,\"cat\":\"ctrl\","
            "\"name\":\"LINK_ADDED\",\"t_ns\":1500000000,\"args\":"
            "{\"detail\":\"0x1:10<->0x2:10\",\"loc\":\"0x2:10\"}}\n");
}

// The console export: the last-N cut counts only the category's
// instants (spans and other categories are skipped), and the loc column
// shows "-" for an instant without one.
TEST(Tracer, RenderLimitsToLastN) {
  obs::TraceLog log;
  for (int i = 0; i < 20; ++i) {
    log.instant(sim::SimTime::zero(), "ctrl", "PACKET_IN",
                "evt" + std::to_string(i));
  }
  const obs::SpanId link =
      log.instant(sim::SimTime::from_nanos(1'500'000'000), "ctrl",
                  "LINK_ADDED", "0x1:10<->0x2:10");
  log.annotate(link, "loc", "0x2:10");
  log.instant(sim::SimTime::zero(), "attack", "mac-acquired", "other");
  const obs::SpanId probe =
      log.begin_span(sim::SimTime::zero(), "ctrl", "probe.reachability");
  log.end_span(probe, sim::SimTime::from_nanos(2'000'000'000));

  EXPECT_EQ(log.to_console("ctrl", 3),
            "[     0.000s] PACKET_IN    -          evt18\n"
            "[     0.000s] PACKET_IN    -          evt19\n"
            "[     1.500s] LINK_ADDED   0x2:10     0x1:10<->0x2:10\n");
  EXPECT_EQ(log.to_console("scenario", 3), "");
}

TEST(Tracer, KindNames) {
  EXPECT_STREQ(to_string(EventKind::PacketIn), "PACKET_IN");
  EXPECT_STREQ(to_string(EventKind::HostBlocked), "HOST_BLOCKED");
  EXPECT_STREQ(to_string(EventKind::EchoRtt), "ECHO_RTT");
}

// ---------------- Live controller integration ----------------

struct TracedNet {
  obs::Observability obs;  // outlives the testbed that borrows it
  Testbed tb{TestbedOptions{}};
  attack::Host* h1;
  attack::Host* h2;

  TracedNet() {
    tb.add_switch(0x1);
    tb.add_switch(0x2);
    tb.connect_switches(0x1, 10, 0x2, 10);
    attack::HostConfig c1;
    c1.mac = net::MacAddress::host(1);
    c1.ip = net::Ipv4Address::host(1);
    h1 = &tb.add_host(0x1, 1, c1);
    attack::HostConfig c2;
    c2.mac = net::MacAddress::host(2);
    c2.ip = net::Ipv4Address::host(2);
    h2 = &tb.add_host(0x2, 1, c2);
    tb.set_observability(&obs);
  }

  [[nodiscard]] std::size_t count(EventKind kind) const {
    return ctrl_records(obs.trace(), to_string(kind));
  }
};

TEST(TracerIntegration, DiscoveryAndLearningAreTraced) {
  TracedNet net;
  net.tb.start(3_s);
  net.h1->send_arp_request(net.h2->ip());
  net.h2->send_arp_request(net.h1->ip());
  net.tb.run_for(500_ms);
  EXPECT_EQ(net.count(EventKind::LinkAdded), 1u);
  EXPECT_EQ(net.count(EventKind::HostNew), 2u);
  EXPECT_GE(net.count(EventKind::PacketIn), 3u);  // LLDP + ARP
  EXPECT_GE(net.count(EventKind::EchoRtt), 2u);
  EXPECT_GE(net.count(EventKind::FlowMod), 1u);
}

TEST(TracerIntegration, PortFlapAndLinkRemovalTraced) {
  TracedNet net;
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  net.h1->flap_interface(30_ms);
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.count(EventKind::PortDown), 1u);
  EXPECT_EQ(net.count(EventKind::PortUp), 1u);
}

TEST(TracerIntegration, MovesAndBlocksTraced) {
  TracedNet net;
  of::DataLink& target = net.tb.add_access_link(0x2, 4);
  net.tb.start(1_s);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  scenario::migrate_host(net.tb, *net.h1, target, 200_ms);
  net.tb.run_for(400_ms);
  net.h1->send_arp_request(net.h2->ip());
  net.tb.run_for(200_ms);
  EXPECT_EQ(net.count(EventKind::HostMoved), 1u);
  EXPECT_NE(first_arg(net.obs.trace(), "HOST_MOVED", "detail")
                .find("0x1:1 -> 0x2:4"),
            std::string::npos);
}

TEST(TracerIntegration, AlertsMirroredIntoTrace) {
  TracedNet net;
  net.tb.start(1_s);
  net.tb.controller().alerts().raise(ctrl::Alert{
      net.tb.loop().now(), "test", ctrl::AlertType::LldpFromHostPort,
      "synthetic", std::nullopt});
  EXPECT_EQ(net.count(EventKind::Alert), 1u);
  EXPECT_NE(first_arg(net.obs.trace(), "ALERT", "detail").find("synthetic"),
            std::string::npos);
}

// ---------------- Reproducibility contract ----------------

/// One full traced run: discovery, ARP exchange, a port flap, and a
/// migration — every source of simulated randomness gets exercised.
std::string traced_run_jsonl(std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.check_invariants = true;  // the checker must not perturb runs
  obs::Observability obs;
  Testbed tb{opts};
  tb.add_switch(0x1);
  tb.add_switch(0x2);
  tb.connect_switches(0x1, 10, 0x2, 10);
  attack::HostConfig c1;
  c1.mac = net::MacAddress::host(1);
  c1.ip = net::Ipv4Address::host(1);
  attack::Host& h1 = tb.add_host(0x1, 1, c1);
  attack::HostConfig c2;
  c2.mac = net::MacAddress::host(2);
  c2.ip = net::Ipv4Address::host(2);
  attack::Host& h2 = tb.add_host(0x2, 1, c2);
  of::DataLink& target = tb.add_access_link(0x2, 4);
  tb.set_observability(&obs);

  tb.start(1_s);
  h1.send_arp_request(h2.ip());
  h2.send_arp_request(h1.ip());
  tb.run_for(200_ms);
  h2.flap_interface(30_ms);
  tb.run_for(200_ms);
  scenario::migrate_host(tb, h1, target, 100_ms);
  tb.run_for(500_ms);
  return obs.trace().to_jsonl();
}

TEST(TracerDeterminism, SameSeedProducesIdenticalTrace) {
  const std::string first = traced_run_jsonl(7);
  const std::string second = traced_run_jsonl(7);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "bit-reproducibility broken: two same-seed runs diverged";
}

TEST(TracerDeterminism, DifferentSeedsProduceDifferentTraces) {
  // Latency jitter and micro-bursts are seeded, so RTT samples (and
  // usually event interleavings) must differ across seeds.
  EXPECT_NE(traced_run_jsonl(7), traced_run_jsonl(8));
}

}  // namespace
}  // namespace tmg::ctrl
