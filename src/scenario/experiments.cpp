#include "scenario/experiments.hpp"

#include <memory>

#include "attack/alert_flood.hpp"
#include "attack/flow_rule_relay.hpp"
#include "attack/link_fabrication.hpp"
#include "attack/port_amnesia.hpp"
#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"
#include "ids/ids.hpp"
#include "obs/observability.hpp"
#include "scenario/timelines.hpp"

namespace tmg::scenario {

using sim::Duration;
using sim::SimTime;

const char* to_string(DefenseSuite s) {
  switch (s) {
    case DefenseSuite::None: return "none";
    case DefenseSuite::TopoGuard: return "TopoGuard";
    case DefenseSuite::Sphinx: return "SPHINX";
    case DefenseSuite::TopoGuardAndSphinx: return "TopoGuard+SPHINX";
    case DefenseSuite::TopoGuardPlus: return "TOPOGUARD+";
    case DefenseSuite::SecureBinding: return "TopoGuard+SecureBinding";
    case DefenseSuite::Stacked: return "TopoGuard+SPHINX+TOPOGUARD+";
  }
  return "?";
}

const char* to_string(LinkAttackKind k) {
  switch (k) {
    case LinkAttackKind::ClassicRelay: return "classic-relay";
    case LinkAttackKind::OobAmnesia: return "oob-port-amnesia";
    case LinkAttackKind::OobAmnesiaNaive: return "oob-port-amnesia-naive";
    case LinkAttackKind::InBandAmnesia: return "inband-port-amnesia";
    case LinkAttackKind::FlowRuleRelay: return "flowrule-relay";
  }
  return "?";
}

TestbedOptions suite_options(DefenseSuite suite, std::uint64_t seed,
                             TestbedOptions opts) {
  opts.seed = seed;
  opts.check_invariants = true;  // runtime invariant checker (src/check)
  bool authenticate = false;
  bool timestamps = false;
  switch (suite) {
    case DefenseSuite::None:
    case DefenseSuite::Sphinx:
      break;
    case DefenseSuite::TopoGuard:
    case DefenseSuite::TopoGuardAndSphinx:
    case DefenseSuite::SecureBinding:
      authenticate = true;
      break;
    case DefenseSuite::TopoGuardPlus:
    case DefenseSuite::Stacked:
      authenticate = true;
      timestamps = true;
      break;
  }
  opts.controller.authenticate_lldp = authenticate;
  opts.controller.lldp_timestamps = timestamps;
  return opts;
}

DefenseHandles install_suite(ctrl::Controller& ctrl, DefenseSuite suite,
                             const defense::SecureBindingConfig* enrollment) {
  DefenseHandles handles;
  switch (suite) {
    case DefenseSuite::None:
      break;
    case DefenseSuite::SecureBinding:
      handles.topoguard = &defense::install_topoguard(ctrl);
      handles.secure_binding = &defense::install_secure_binding(
          ctrl, enrollment ? *enrollment : defense::SecureBindingConfig{});
      break;
    case DefenseSuite::TopoGuard:
      handles.topoguard = &defense::install_topoguard(ctrl);
      break;
    case DefenseSuite::Sphinx:
      handles.sphinx = &defense::install_sphinx(ctrl);
      break;
    case DefenseSuite::TopoGuardAndSphinx:
      handles.topoguard = &defense::install_topoguard(ctrl);
      handles.sphinx = &defense::install_sphinx(ctrl);
      break;
    case DefenseSuite::TopoGuardPlus: {
      const defense::TopoGuardPlus plus =
          defense::install_topoguard_plus(ctrl);
      handles.topoguard = plus.topoguard;
      handles.cmm = plus.cmm;
      handles.lli = plus.lli;
      break;
    }
    case DefenseSuite::Stacked: {
      // Union of TopoGuardAndSphinx and TopoGuardPlus, installed once
      // each; pipeline priorities preserve this add order.
      handles.topoguard = &defense::install_topoguard(ctrl);
      handles.sphinx = &defense::install_sphinx(ctrl);
      const defense::TopoGuardPlusConfig plus_cfg;
      auto cmm = std::make_unique<defense::Cmm>(ctrl, plus_cfg.cmm);
      handles.cmm = cmm.get();
      ctrl.add_defense(std::move(cmm));
      auto lli = std::make_unique<defense::Lli>(ctrl, plus_cfg.lli);
      handles.lli = lli.get();
      ctrl.add_defense(std::move(lli));
      break;
    }
  }
  return handles;
}

// ---------------------------------------------------------------------
// Shared timeline steps
// ---------------------------------------------------------------------

namespace {

/// Install the suite, the audit battery, observability, and the anomaly
/// IDS (Train mode when a trainer is set, Detect mode when a profile
/// is). Returns the IDS, or nullptr when the config asked for none;
/// finish() detaches it before it is destroyed.
template <class Config>
std::unique_ptr<ids::ProfileAnomalyService> arm(
    Testbed& tb, const Config& config,
    const defense::SecureBindingConfig* enrollment) {
  const DefenseHandles handles =
      install_suite(tb.controller(), config.suite, enrollment);
  // Machine-checked self-consistency for every experiment run: attacks
  // may poison the controller's *view*, but never the simulator's state.
  // Benches opt out — the audits are read-only, so every simulated
  // number is identical either way; only wall-clock changes.
  if (config.check_invariants) tb.enable_invariant_checker(handles.topoguard);
  if (config.obs != nullptr) tb.set_observability(config.obs);
  if (config.anomaly_profile == nullptr && config.anomaly_trainer == nullptr) {
    return nullptr;
  }
  ids::AnomalyConfig cfg;
  cfg.veto = config.anomaly_veto;
  auto svc = std::make_unique<ids::ProfileAnomalyService>(tb.loop(), cfg);
  if (config.anomaly_trainer != nullptr) {
    svc->set_trainer(config.anomaly_trainer);
    config.anomaly_trainer->begin_trial();
  } else {
    svc->set_profile(config.anomaly_profile);
  }
  svc->set_alert_bus(&tb.controller().alerts());
  svc->set_observability(config.obs);
  tb.controller().set_anomaly_detector(svc.get());
  return svc;
}

/// Harvest what every timeline reports, then detach the IDS and the
/// observability collectors before the testbed (which they borrow) is
/// destroyed.
template <class Config, class Outcome>
void finish(Testbed& tb, const Config& config,
            ids::ProfileAnomalyService* anomaly, Outcome& out) {
  ctrl::Controller& ctrl = tb.controller();
  out.alerts_total = ctrl.alerts().count();
  out.alerts_anomaly = ctrl.alerts().count_from("AnomalyIDS");
  if (anomaly != nullptr) {
    out.anomaly = anomaly->counters();
    ctrl.set_anomaly_detector(nullptr);
  }
  if (check::InvariantChecker* checker = tb.invariant_checker()) {
    checker->final_check();
    out.invariant_sweeps = checker->checks_run();
    out.invariant_violations = checker->violation_count();
  }
  out.events_executed = tb.loop().events_executed();
  if (config.collect_pipeline_stats) {
    out.pipeline_stats = ctrl.pipeline().stats();
  }
  if (config.obs != nullptr) config.obs->finalize(tb.loop().now());
}

/// A generated fabric's background load for one timeline: built (one Rng
/// fork) and started once the hosts are warm, stopped at the end with
/// its stats written back. A no-op on the paper testbeds.
class Background {
 public:
  explicit Background(const TestbedRoles& roles) : load_{roles.background} {
    if (load_ == nullptr) return;
    traffic_.emplace(*roles.tb, roles.tb->fork_rng(), load_->config);
    fleet_attach_background(load_->fleet, *traffic_);
    if (load_->on) traffic_->start();
  }
  // The started traffic's callbacks hold its address.
  Background(const Background&) = delete;
  Background& operator=(const Background&) = delete;

  void stop() {
    if (!traffic_) return;
    traffic_->stop();
    load_->stats = traffic_->stats();
  }

 private:
  FabricLoad* load_;
  std::optional<BackgroundTraffic> traffic_;
};

}  // namespace

// ---------------------------------------------------------------------
// Link fabrication / port amnesia
// ---------------------------------------------------------------------

void run_link_attack_timeline(const LinkAttackConfig& config,
                              const TestbedRoles& roles,
                              LinkAttackOutcome& out) {
  // The fabricated link needs two LLDP rounds to register.
  const Duration registration = Duration::seconds(32);
  TMG_ASSERT(config.attack_window >= registration,
             "link attack: window must cover two LLDP rounds");
  Testbed& tb = *roles.tb;
  ctrl::Controller& ctrl = tb.controller();
  sim::EventLoop& loop = tb.loop();
  const std::unique_ptr<ids::ProfileAnomalyService> anomaly =
      arm(tb, config, roles.enrollment);

  // Poll the fabricated link while the sim runs: the flow-rule relay
  // fabricates one between its spliced neighbors, the host relays one
  // between the two attackers.
  const topo::Link fabricated = config.kind == LinkAttackKind::FlowRuleRelay
                                    ? roles.flow_relay_link
                                    : roles.relay_link;
  const auto fabricated_present = [&] {
    return ctrl.topology().has_link(fabricated.a, fabricated.b);
  };
  const std::function<void()> poll = [&]() {
    if (fabricated_present()) out.link_registered = true;
    loop.post_after(Duration::millis(500), [&poll] { poll(); });
  };

  tb.start(Duration::seconds(2));
  roles.warm_hosts();
  loop.post_after(Duration::zero(), [&poll] { poll(); });
  Background background{roles};

  // A long-lived benign peer -> victim session whose traffic the
  // fabricated link could attract (the MITM observable). The bulk
  // payload gives flow-counter checks (SPHINX) real volume to tell
  // blackholing from jitter.
  const net::MacAddress victim_mac = roles.victim->mac();
  const net::Ipv4Address victim_ip = roles.victim->ip();
  bool benign_traffic = true;
  const std::function<void()> ping_loop = [&]() {
    if (benign_traffic) {
      const auto seq = static_cast<std::uint16_t>(loop.now().count_nanos());
      roles.peer->send_ping(victim_mac, victim_ip, 0x1111, seq);
      roles.peer->send_raw(victim_mac, victim_ip, "bulk", 1400);
    }
    loop.post_after(Duration::millis(500), [&ping_loop] { ping_loop(); });
  };
  loop.post_after(Duration::zero(), [&ping_loop] { ping_loop(); });

  if (roles.pause_benign) {
    tb.run_for(config.benign_window - Duration::seconds(10));
    benign_traffic = false;
    tb.run_for(Duration::seconds(10));
  } else {
    tb.run_for(config.benign_window);
  }
  out.alerts_before_attack = ctrl.alerts().count();
  if (config.obs != nullptr) {
    config.obs->trace().instant(loop.now(), "scenario", "attack-start",
                                to_string(config.kind));
  }

  // Launch the attack (skipped entirely on clean-baseline runs).
  std::unique_ptr<attack::ClassicLinkFabrication> classic;
  std::unique_ptr<attack::PortAmnesiaAttack> amnesia;
  std::unique_ptr<attack::FlowRuleRelay> flowrule;
  if (config.attack_enabled) {
    switch (config.kind) {
      case LinkAttackKind::ClassicRelay:
        classic = std::make_unique<attack::ClassicLinkFabrication>(
            loop, *roles.attacker, *roles.attacker_b, *roles.oob,
            attack::ClassicLinkFabrication::Config{});
        classic->start();
        break;
      case LinkAttackKind::OobAmnesia:
      case LinkAttackKind::OobAmnesiaNaive:
      case LinkAttackKind::InBandAmnesia: {
        attack::PortAmnesiaAttack::Config ac;
        ac.mode = config.kind == LinkAttackKind::InBandAmnesia
                      ? attack::PortAmnesiaAttack::Mode::InBand
                      : attack::PortAmnesiaAttack::Mode::OutOfBand;
        ac.preposition_flap = config.kind == LinkAttackKind::OobAmnesia;
        ac.blackhole_transit = config.blackhole;
        ac.bridge_transit = !config.blackhole;
        amnesia = std::make_unique<attack::PortAmnesiaAttack>(
            loop, *roles.attacker, *roles.attacker_b,
            ac.mode == attack::PortAmnesiaAttack::Mode::OutOfBand ? roles.oob
                                                                  : nullptr,
            ac);
        amnesia->set_observability(config.obs);
        amnesia->start();
        break;
      }
      case LinkAttackKind::FlowRuleRelay:
        flowrule = std::make_unique<attack::FlowRuleRelay>(
            tb.control_channel(roles.flow_relay_switch), roles.flow_relay);
        flowrule->start();
        break;
    }
  }

  // Give the fabricated link time to register, then resume fresh flows
  // (which will cross it if it exists).
  tb.run_for(registration);
  benign_traffic = true;
  tb.run_for(config.attack_window - registration);
  background.stop();

  out.link_present_at_end = fabricated_present();
  if (classic) {
    out.lldp_relayed = classic->lldp_relayed();
    out.transit_bridged = classic->transit_bridged();
  }
  if (amnesia) {
    out.lldp_relayed = amnesia->lldp_relayed();
    out.transit_bridged = amnesia->transit_bridged();
    out.flaps = amnesia->flaps();
  }
  if (flowrule) {
    // The injected rules' own counters say how many LLDP frames the
    // switch spliced past the controller.
    for (const auto& e :
         tb.get_switch(roles.flow_relay_switch).flow_table().entries()) {
      if (e.cookie == roles.flow_relay.cookie) {
        out.lldp_relayed += e.packet_count;
      }
    }
  }
  out.mitm_traffic = out.transit_bridged > 0;
  out.alerts_topoguard = ctrl.alerts().count_from("TopoGuard");
  out.alerts_sphinx = ctrl.alerts().count_from("SPHINX");
  out.alerts_cmm = ctrl.alerts().count_from("CMM");
  out.alerts_lli = ctrl.alerts().count_from("LLI");
  finish(tb, config, anomaly.get(), out);
}

LinkAttackOutcome run_link_attack(const LinkAttackConfig& config) {
  // The Fig. 9 testbed is the paper's evaluation network for all link
  // attacks; keep its latency profile regardless of suite.
  Fig9Testbed f =
      make_fig9_testbed(driver_options(config, fig9_options(config.seed)));
  TestbedRoles roles;
  roles.tb = f.tb.get();
  roles.victim = f.h2;
  roles.peer = f.h1;
  roles.attacker = f.attacker_a;
  roles.attacker_b = f.attacker_b;
  roles.oob = f.oob;
  roles.relay_link = f.fabricated_link();
  // The flow-rule relay's default ports on 0x3: port 11 faces 0x2 (port
  // 10), port 10 faces 0x4 (port 11).
  roles.flow_relay_switch = 0x3;
  roles.flow_relay_link = topo::Link{{0x2, 10}, {0x4, 11}};
  roles.warm_hosts = [&f] { fig9_warm_hosts(f); };
  roles.pause_benign = true;
  LinkAttackOutcome out;
  run_link_attack_timeline(config, roles, out);
  return out;
}

// ---------------------------------------------------------------------
// Port probing / hijack
// ---------------------------------------------------------------------

namespace {

/// Passive observer that confirms the hijack the moment the HTS re-binds
/// the victim's MAC to the attacker's location.
class HijackObserver final : public ctrl::DefenseModule {
 public:
  HijackObserver(net::MacAddress victim_mac, of::Location attacker_loc,
                 std::function<void()> on_confirm)
      : victim_mac_{victim_mac},
        attacker_loc_{attacker_loc},
        on_confirm_{std::move(on_confirm)} {}

  [[nodiscard]] std::string name() const override { return "observer"; }

  ctrl::Verdict on_host_event(const ctrl::HostEvent& ev) override {
    if (ev.mac == victim_mac_ && ev.new_loc == attacker_loc_ && !confirmed_) {
      confirmed_ = true;
      if (on_confirm_) on_confirm_();
    }
    return ctrl::Verdict::Allow;
  }

 private:
  net::MacAddress victim_mac_;
  of::Location attacker_loc_;
  std::function<void()> on_confirm_;
  bool confirmed_ = false;
};

}  // namespace

void run_hijack_timeline(const HijackConfig& config, const TestbedRoles& roles,
                         HijackOutcome& out) {
  Testbed& tb = *roles.tb;
  ctrl::Controller& ctrl = tb.controller();
  sim::EventLoop& loop = tb.loop();
  const std::unique_ptr<ids::ProfileAnomalyService> anomaly =
      arm(tb, config, roles.enrollment);

  const net::MacAddress victim_mac = roles.victim->mac();
  const net::Ipv4Address victim_ip = roles.victim->ip();
  attack::PortProbingConfig pc;
  pc.victim_ip = victim_ip;
  pc.probe_type = config.probe_type;
  pc.probe_period = config.probe_period;
  pc.probe_timeout = config.probe_timeout;
  pc.confirm_failures = config.confirm_failures;
  pc.nmap_overhead = config.nmap_overhead;
  attack::PortProbingAttack attack{loop, tb.fork_rng(), *roles.attacker, pc};
  attack.set_observability(config.obs);

  // Observer: confirm when the HTS re-binds the victim to the attacker.
  // The event fires before the HTS commits (and a defense may veto it),
  // so verify the actual binding one tick later.
  ctrl.add_defense(std::make_unique<HijackObserver>(
      victim_mac, roles.attacker_loc, [&]() {
        loop.post_after(Duration::zero(), [&] {
          const auto rec = ctrl.host_tracker().find(victim_mac);
          if (rec && rec->loc == roles.attacker_loc) {
            attack.mark_hijack_confirmed(loop.now());
            out.hijack_succeeded = true;
          }
        });
      }));

  // Redirection check: count victim-bound pings landing on the attacker.
  roles.attacker->add_listener([&](const net::Packet& pkt) {
    const auto* icmp = pkt.icmp();
    if (icmp && icmp->type == net::IcmpPayload::Type::EchoRequest &&
        pkt.ip && pkt.ip->dst == victim_ip && attack.identity_claimed()) {
      out.traffic_redirected = true;
    }
  });

  tb.start(Duration::seconds(2));
  roles.warm_hosts();
  Background background{roles};

  // The peer keeps a session toward the victim alive.
  std::uint16_t seq = 0;
  const std::function<void()> peer_ping = [&]() {
    roles.peer->send_ping(victim_mac, victim_ip, 0x2222, seq++);
    loop.post_after(Duration::millis(200), [&peer_ping] { peer_ping(); });
  };
  loop.post_after(Duration::zero(), [&peer_ping] { peer_ping(); });

  if (config.attack_enabled) attack.start();
  tb.run_for(config.settle_window);

  // The victim begins a legitimate move at a random phase of the probe
  // cycle (this is what Figs. 5-8 average over).
  sim::Rng phase_rng = tb.fork_rng();
  const Duration phase = Duration::nanos(phase_rng.uniform_int(
      0, config.probe_period.count_nanos()));
  tb.run_for(phase);

  const SimTime victim_down = loop.now();
  if (config.obs != nullptr && config.attack_enabled) {
    // The reference instant every Fig. 5-8 race window is measured from.
    config.obs->trace().instant(victim_down, "scenario", "victim.down");
  }
  if (!config.attack_enabled) {
    // Clean baseline: the victim never migrates; keep the timeline's
    // total duration identical so training covers the same sim span.
  } else if (config.victim_rejoins) {
    migrate_host(tb, *roles.victim, *roles.migration_target,
                 config.victim_downtime);
    // On rejoin the victim announces itself (DHCP/ARP chatter).
    loop.post_after(config.victim_downtime + Duration::millis(50),
                    [&roles, &config, &loop] {
                      roles.victim->send_arp_request(roles.victim->ip());
                      if (config.obs != nullptr) {
                        config.obs->trace().instant(loop.now(), "scenario",
                                                    "victim.rejoin");
                      }
                    });
  } else {
    roles.victim->detach_link();
  }

  // Sample the alert count just before the victim re-attaches (its
  // 802.1x supplicant announces the rejoin within milliseconds).
  tb.run_for(config.victim_downtime - Duration::millis(10));
  out.alerts_before_rejoin = ctrl.alerts().count();
  tb.run_for(Duration::seconds(3) + Duration::millis(10));
  out.alerts_after_rejoin = ctrl.alerts().count() - out.alerts_before_rejoin;
  background.stop();

  const auto& tl = attack.timeline();
  const auto rel = [&](const std::optional<SimTime>& t) {
    return t ? std::optional<double>((*t - victim_down).to_millis_f())
             : std::nullopt;
  };
  out.down_to_final_probe_start_ms = rel(tl.final_probe_start);
  out.down_to_declared_down_ms = rel(tl.victim_declared_down);
  out.down_to_iface_up_ms = rel(tl.interface_up_as_victim);
  out.down_to_confirmed_ms = rel(tl.hijack_confirmed);
  if (tl.interface_up_as_victim && tl.victim_declared_down) {
    out.ident_change_ms =
        (*tl.interface_up_as_victim - *tl.victim_declared_down).to_millis_f();
  }
  out.alerts = ctrl.alerts().alerts();
  finish(tb, config, anomaly.get(), out);
}

HijackOutcome run_hijack(const HijackConfig& config) {
  Fig2Testbed f = make_fig2_testbed(driver_options(config));
  defense::SecureBindingConfig enrollment;
  enrollment.registry[Fig2Testbed::kVictimToken] =
      defense::Enrollment{"victim", f.victim->mac(), f.victim->ip()};
  enrollment.registry[Fig2Testbed::kAttackerToken] =
      defense::Enrollment{"attacker-device", f.attacker->mac(),
                          f.attacker->ip()};
  enrollment.registry[Fig2Testbed::kPeerToken] =
      defense::Enrollment{"peer", f.peer->mac(), f.peer->ip()};
  TestbedRoles roles;
  roles.tb = f.tb.get();
  roles.victim = f.victim;
  roles.peer = f.peer;
  roles.attacker = f.attacker;
  roles.attacker_loc = f.attacker_loc;
  roles.migration_target = f.migration_target;
  roles.enrollment = &enrollment;
  roles.warm_hosts = [&f] { fig2_warm_hosts(f); };
  HijackOutcome out;
  run_hijack_timeline(config, roles, out);
  return out;
}

// ---------------------------------------------------------------------
// LLI series
// ---------------------------------------------------------------------

LliSeries run_lli_experiment(const LliExperimentConfig& config) {
  Fig9Testbed f = make_fig9_testbed(fig9_options(config.seed));
  const DefenseHandles handles =
      install_suite(f.tb->controller(), DefenseSuite::TopoGuardPlus);
  f.tb->enable_invariant_checker(handles.topoguard);
  if (config.obs != nullptr) f.tb->set_observability(config.obs);

  f.tb->start(Duration::seconds(2));
  fig9_warm_hosts(f);
  f.tb->run_for(config.benign_window);

  std::unique_ptr<attack::PortAmnesiaAttack> amnesia;
  attack::OutOfBandChannel& channel = f.tb->add_oob_channel(config.channel);
  if (config.launch_attack) {
    attack::PortAmnesiaAttack::Config ac;
    ac.mode = attack::PortAmnesiaAttack::Mode::OutOfBand;
    ac.preposition_flap = true;  // CMM-evasive: only the LLI can catch it
    amnesia = std::make_unique<attack::PortAmnesiaAttack>(
        f.tb->loop(), *f.attacker_a, *f.attacker_b, &channel, ac);
    amnesia->set_observability(config.obs);
    amnesia->start();
  }
  f.tb->run_for(config.attack_window);

  LliSeries series;
  series.fake_link_ever_registered = f.fabricated_link_present();
  const topo::Link fake = f.fabricated_link();
  std::map<std::string, std::vector<double>> per_link_samples;
  for (const auto& m : handles.lli->measurements()) {
    LliSeries::Point p;
    p.t_s = m.at.to_seconds_f();
    p.link = m.link.to_string();
    p.latency_ms = m.latency_ms;
    p.threshold_ms = m.threshold_ms;
    p.flagged = m.flagged;
    p.fake = m.link == fake;
    if (p.fake) {
      ++series.fake_attempts;
      if (p.flagged) ++series.fake_detections;
    } else {
      per_link_samples[p.link].push_back(p.latency_ms);
    }
    series.points.push_back(std::move(p));
  }
  for (const auto& [link, samples] : per_link_samples) {
    series.per_link.emplace_back(link, stats::summarize(samples));
  }
  series.events_executed = f.tb->loop().events_executed();
  if (config.obs != nullptr) config.obs->finalize(f.tb->loop().now());
  return series;
}

// ---------------------------------------------------------------------
// Probe timing & scan detection
// ---------------------------------------------------------------------

namespace {

struct ProbeLab {
  Testbed tb;
  attack::Host* attacker = nullptr;
  attack::Host* victim = nullptr;
  attack::Host* zombie = nullptr;
  of::DataLink* victim_link = nullptr;  // IDS tap point

  explicit ProbeLab(std::uint64_t seed) : tb{[&] {
    TestbedOptions o;
    o.seed = seed;
    return o;
  }()} {
    tb.add_switch(0x1);
    attack::HostConfig att;
    att.mac = net::MacAddress::host(0xA);
    att.ip = net::Ipv4Address::host(10);
    attacker = &tb.add_host(0x1, 1, att);

    attack::HostConfig vic;
    vic.mac = net::MacAddress::host(1);
    vic.ip = net::Ipv4Address::host(1);
    vic.open_tcp_ports = {80};
    victim_link = &tb.add_access_link(0x1, 2);
    victim = &tb.add_host_on(*victim_link, vic);

    attack::HostConfig zom;
    zom.mac = net::MacAddress::host(2);
    zom.ip = net::Ipv4Address::host(2);
    zom.idle_scan_zombie = true;
    zombie = &tb.add_host(0x1, 3, zom);
    tb.enable_invariant_checker();
  }
};

const char* requirements_of(attack::ProbeType t) {
  switch (t) {
    case attack::ProbeType::IcmpPing: return "None";
    case attack::ProbeType::TcpSyn: return "Port Known";
    case attack::ProbeType::ArpPing: return "Same subnet";
    case attack::ProbeType::TcpIdleScan: return "Suitable zombie";
  }
  return "";
}

}  // namespace

ProbeTimingRow measure_probe_timing(attack::ProbeType type, std::size_t n,
                                    std::uint64_t seed) {
  ProbeLab lab{seed};
  lab.tb.start(Duration::seconds(1));
  lab.attacker->send_arp_request(lab.victim->ip());
  lab.tb.run_for(Duration::millis(100));

  attack::LivenessProber::Config pc;
  pc.type = type;
  pc.timeout = Duration::millis(200);
  pc.tool_overhead = false;  // end-to-end exchange time, RTT included
  if (type == attack::ProbeType::TcpIdleScan) {
    pc.zombie = attack::ZombieRef{lab.zombie->ip(), lab.zombie->mac()};
  }
  attack::LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(),
                                *lab.attacker, pc};

  attack::ProbeTarget target;
  target.ip = lab.victim->ip();
  target.mac = lab.victim->mac();
  target.tcp_port = 80;

  ProbeTimingRow row;
  row.type = type;
  row.stealth = attack::stealth_of(type);
  row.requirements = requirements_of(type);

  std::vector<double> end_to_end;
  end_to_end.reserve(n);
  std::size_t alive = 0;
  std::size_t remaining = n;
  std::function<void()> next = [&]() {
    if (remaining == 0) return;
    --remaining;
    prober.probe(target, [&](const attack::ProbeOutcome& outcome) {
      end_to_end.push_back(outcome.duration().to_millis_f());
      if (outcome.alive) ++alive;
      lab.tb.loop().post_after(Duration::millis(1), [&next] { next(); });
    });
  };
  next();
  lab.tb.run_for(Duration::seconds(
      static_cast<std::int64_t>(n) + 60));  // generous; loop drains early

  row.end_to_end_ms = stats::summarize(end_to_end);
  row.alive_detected = alive;

  // Table I "Timing" column: the nmap engine overhead model.
  sim::Rng rng{seed ^ 0x7ab1e1};
  std::vector<double> overhead;
  overhead.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    overhead.push_back(attack::sample_tool_overhead(type, rng).to_millis_f());
  }
  row.tool_overhead_ms = stats::summarize(overhead);
  row.events_executed = lab.tb.loop().events_executed();
  return row;
}

ScanDetectionResult run_scan_detection(attack::ProbeType type,
                                       double rate_per_s,
                                       sim::Duration window,
                                       std::uint64_t seed,
                                       obs::Observability* obs) {
  ProbeLab lab{seed};
  if (obs != nullptr) lab.tb.set_observability(obs);
  ids::Ids ids{lab.tb.loop()};
  ids.install_default_rules();
  // Monitor the victim's access link (the paper ran Snort on the
  // scanned network link).
  ids.monitor(*lab.victim_link);
  lab.tb.start(Duration::seconds(1));
  lab.attacker->send_arp_request(lab.victim->ip());
  lab.tb.run_for(Duration::millis(100));

  attack::LivenessProber::Config pc;
  pc.type = type;
  pc.timeout = Duration::millis(35);
  if (type == attack::ProbeType::TcpIdleScan) {
    pc.zombie = attack::ZombieRef{lab.zombie->ip(), lab.zombie->mac()};
  }
  attack::LivenessProber prober{lab.tb.loop(), lab.tb.fork_rng(),
                                *lab.attacker, pc};

  attack::ProbeTarget target;
  target.ip = lab.victim->ip();
  target.mac = lab.victim->mac();
  target.tcp_port = 80;

  const auto period = Duration::from_seconds_f(1.0 / rate_per_s);
  const std::function<void()> tick = [&]() {
    if (!prober.busy()) {
      prober.probe(target, [](const attack::ProbeOutcome&) {});
    }
    lab.tb.loop().post_after(period, [&tick] { tick(); });
  };
  lab.tb.loop().post_after(Duration::zero(), [&tick] { tick(); });
  lab.tb.run_for(window);

  ScanDetectionResult result;
  result.type = type;
  result.rate_per_s = rate_per_s;
  result.probes_sent = prober.probes_sent();
  result.ids_alerts = ids.alert_count();
  if (check::InvariantChecker* checker = lab.tb.invariant_checker()) {
    checker->final_check();
    result.invariant_sweeps = checker->checks_run();
    result.invariant_violations = checker->violation_count();
  }
  result.events_executed = lab.tb.loop().events_executed();
  result.pipeline_stats = lab.tb.controller().pipeline().stats();
  if (obs != nullptr) obs->finalize(lab.tb.loop().now());
  return result;
}

}  // namespace tmg::scenario
