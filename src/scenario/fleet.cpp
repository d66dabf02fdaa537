#include "scenario/fleet.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "check/assert.hpp"
#include "ctrl/host_tracker.hpp"
#include "scenario/timelines.hpp"

namespace tmg::scenario {

using sim::Duration;

FleetTestbed make_fleet_testbed(const FleetTestbedConfig& config) {
  FleetTestbed f;
  f.topo = topo::generate(config.topology);
  f.tb = std::make_unique<Testbed>(config.options);
  Testbed& tb = *f.tb;

  for (const auto& tier : f.topo.tiers) {
    for (topo::Dpid dpid : tier) tb.add_switch(dpid);
  }
  // links() is canonical-sorted, so the wiring order (and with it
  // every latency-model draw) is a pure function of the topology.
  for (const topo::Link& l : f.topo.graph.links()) {
    tb.connect_switches(l.a.dpid, l.a.port, l.b.dpid, l.b.port);
  }

  const std::size_t n_attach = f.topo.hosts.size();
  const std::size_t n_hosts =
      config.max_hosts == 0 ? n_attach : std::min(config.max_hosts, n_attach);
  TMG_ASSERT(n_hosts >= 4, "fleet: need at least 4 hosts for the role slots");
  TMG_ASSERT(config.spare_access_links >= 1,
             "fleet: need a spare access link for migration");

  f.population.reserve(n_hosts);
  f.population_links.reserve(n_hosts);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const topo::HostAttachment& att = f.topo.hosts[i];
    of::DataLink& link = tb.add_access_link(att.dpid, att.port);
    attack::HostConfig hc;
    hc.mac = topo::fleet_mac(static_cast<std::uint32_t>(i));
    hc.ip = topo::fleet_ip(static_cast<std::uint32_t>(i));
    hc.auth_token = FleetTestbed::token_of(i);
    f.population.push_back(&tb.add_host_on(link, hc));
    f.population_links.push_back(&link);
  }
  // Spare (vacant) access links go on fresh ports *above* the
  // generator's per-switch budget — host ports are the generator's
  // highest, so max attachment port + 1 onward is free — round-robin
  // over the edge switches in first-attachment order. This keeps every
  // generated attachment available for a tracked host (a k=16 fat-tree
  // really does track all 1,024).
  std::vector<std::pair<topo::Dpid, of::PortNo>> edge_top;  // dpid, max port
  for (const topo::HostAttachment& att : f.topo.hosts) {
    bool found = false;
    for (auto& e : edge_top) {
      if (e.first == att.dpid) {
        e.second = std::max(e.second, att.port);
        found = true;
        break;
      }
    }
    if (!found) edge_top.emplace_back(att.dpid, att.port);
  }
  for (std::size_t i = 0; i < config.spare_access_links; ++i) {
    auto& e = edge_top[i % edge_top.size()];
    f.spare_links.push_back(&tb.add_access_link(e.first, ++e.second));
  }

  const auto loc_of = [&](std::size_t i) {
    return of::Location{f.topo.hosts[i].dpid, f.topo.hosts[i].port};
  };
  f.victim = f.population[0];
  f.peer = f.population[1];
  f.attacker = f.population[n_hosts / 2];
  f.attacker_b = f.population[n_hosts - 1];
  f.victim_loc = loc_of(0);
  f.peer_loc = loc_of(1);
  f.attacker_loc = loc_of(n_hosts / 2);
  f.attacker_b_loc = loc_of(n_hosts - 1);
  TMG_ASSERT(f.victim_loc.dpid != f.attacker_loc.dpid &&
                 f.attacker_loc.dpid != f.attacker_b_loc.dpid,
             "fleet: role hosts must land on distinct edge switches "
             "(topology too small for max_hosts)");
  f.migration_target = f.spare_links[0];
  f.oob = &tb.add_oob_channel();  // 10 ms wireless hop for colluders
  return f;
}

defense::SecureBindingConfig fleet_enrollment(const FleetTestbed& f) {
  defense::SecureBindingConfig enrollment;
  for (std::size_t i = 0; i < f.population.size(); ++i) {
    const attack::Host* h = f.population[i];
    enrollment.registry[FleetTestbed::token_of(i)] = defense::Enrollment{
        "host-" + std::to_string(i), h->mac(), h->ip()};
  }
  return enrollment;
}

void fleet_warm_hosts(FleetTestbed& f, Duration stagger) {
  sim::EventLoop& loop = f.tb->loop();
  // The victim announces first (one broadcast flood); everyone else then
  // unicasts a join packet to its *predecessor*. Each join has a unique
  // destination MAC, so no previously installed (dst-matched) flow rule
  // can swallow the table miss — every host is guaranteed a Packet-In
  // and therefore an HTS record, at ~20 events per host instead of a
  // fleet-wide flood per host.
  f.victim->send_arp_request(f.victim->ip());
  f.tb->run_for(Duration::millis(50));
  for (std::size_t i = 1; i < f.population.size(); ++i) {
    attack::Host* h = f.population[i];
    const attack::Host* prev = f.population[i - 1];
    const net::MacAddress dst_mac = prev->mac();
    const net::Ipv4Address dst_ip = prev->ip();
    loop.post_after(stagger * static_cast<std::int64_t>(i - 1),
                    [h, dst_mac, dst_ip] {
                      h->send_raw(dst_mac, dst_ip, "join", 64);
                    });
  }
  f.tb->run_for(stagger * static_cast<std::int64_t>(f.population.size()) +
                Duration::millis(100));
}

void fleet_attach_background(FleetTestbed& f, BackgroundTraffic& bg) {
  for (std::size_t i = 0; i < f.population.size(); ++i) {
    attack::Host* h = f.population[i];
    const bool role = h == f.victim || h == f.peer || h == f.attacker ||
                      h == f.attacker_b;
    bg.add_endpoint(*h, role ? nullptr : f.population_links[i]);
  }
  // spare_links[0] stays reserved as the victim's migration target.
  for (std::size_t i = 1; i < f.spare_links.size(); ++i) {
    bg.add_spare_link(*f.spare_links[i]);
  }
}

namespace {

FleetTestbed make_fabric(const FleetFabricConfig& fabric,
                         TestbedOptions options) {
  FleetTestbedConfig ftc;
  ftc.topology = fabric.topology;
  ftc.max_hosts = fabric.max_hosts;
  ftc.spare_access_links = fabric.spare_access_links;
  ftc.options = std::move(options);
  return make_fleet_testbed(ftc);
}

TestbedRoles fleet_roles(FleetTestbed& f,
                         const defense::SecureBindingConfig& enrollment,
                         FabricLoad& load) {
  TestbedRoles roles;
  roles.tb = f.tb.get();
  roles.victim = f.victim;
  roles.peer = f.peer;
  roles.attacker = f.attacker;
  roles.attacker_b = f.attacker_b;
  roles.attacker_loc = f.attacker_loc;
  roles.migration_target = f.migration_target;
  roles.oob = f.oob;
  roles.relay_link = f.fabricated_link();
  roles.enrollment = &enrollment;
  roles.warm_hosts = [&f] { fleet_warm_hosts(f); };
  roles.background = &load;
  return roles;
}

/// Flow-rule relay target: the attacker's edge switch when it has two
/// fabric links, else the lowest-dpid switch that does (links() is
/// sorted, so the choice is deterministic). Splicing the relay's first
/// two inter-switch ports makes discovery fabricate a direct link
/// between their far ends.
void place_flow_relay(const FleetTestbed& f, TestbedRoles& roles) {
  std::map<of::Dpid, std::vector<topo::Link>> incident;
  for (const topo::Link& l : f.topo.graph.links()) {
    incident[l.a.dpid].push_back(l);
    incident[l.b.dpid].push_back(l);
  }
  of::Dpid relay = 0;
  if (incident[f.attacker_loc.dpid].size() >= 2) {
    relay = f.attacker_loc.dpid;
  } else {
    for (const auto& [dpid, links] : incident) {
      if (links.size() >= 2) {
        relay = dpid;
        break;
      }
    }
  }
  TMG_ASSERT(relay != 0,
             "fleet flow-rule relay: no switch with two fabric links");
  const topo::Link& left = incident[relay][0];
  const topo::Link& right = incident[relay][1];
  roles.flow_relay_switch = relay;
  roles.flow_relay.left_port =
      left.a.dpid == relay ? left.a.port : left.b.port;
  roles.flow_relay.right_port =
      right.a.dpid == relay ? right.a.port : right.b.port;
  roles.flow_relay_link =
      topo::Link{left.a.dpid == relay ? left.b : left.a,
                 right.a.dpid == relay ? right.b : right.a};
}

}  // namespace

FleetHijackOutcome run_fleet_hijack(const FleetHijackConfig& config) {
  FleetTestbed f = make_fabric(config, driver_options(config));
  const defense::SecureBindingConfig enrollment = fleet_enrollment(f);
  FleetHijackOutcome out;
  FabricLoad load{f, config.background, config.background_on, out.background};
  run_hijack_timeline(config, fleet_roles(f, enrollment, load), out);
  out.hosts_tracked = f.tb->controller().host_tracker().host_count();
  return out;
}

FleetLinkAttackOutcome run_fleet_link_attack(
    const FleetLinkAttackConfig& config) {
  FleetTestbed f = make_fabric(config, driver_options(config));
  const defense::SecureBindingConfig enrollment = fleet_enrollment(f);
  FleetLinkAttackOutcome out;
  FabricLoad load{f, config.background, config.background_on, out.background};
  TestbedRoles roles = fleet_roles(f, enrollment, load);
  if (config.kind == LinkAttackKind::FlowRuleRelay) place_flow_relay(f, roles);
  run_link_attack_timeline(config, roles, out);
  out.hosts_tracked = f.tb->controller().host_tracker().host_count();
  return out;
}

}  // namespace tmg::scenario
