// Sec. IV-B ("Alert Floods") — burying the real alert.
//
// One real hijack plus N spoofed identities cycled from the attacker's
// port. Passive defenses only alert; the operator-facing stream is
// dominated by spurious migration alerts while network state is freely
// corrupted.
#include <cstdio>

#include "attack/alert_flood.hpp"
#include "bench_util.hpp"
#include "ctrl/host_tracker.hpp"
#include "scenario/cli.hpp"
#include "scenario/experiments.hpp"

using namespace tmg;
using namespace tmg::bench;
using namespace tmg::sim::literals;

namespace {

struct FloodResult {
  std::size_t spoofed_identities = 0;
  std::uint64_t spoof_packets = 0;
  std::size_t precondition_alerts = 0;
  std::size_t total_alerts = 0;
  std::size_t identities_corrupted = 0;
};

FloodResult run_flood(std::size_t identities, sim::Duration window) {
  using namespace tmg::scenario;
  Fig2Testbed f =
      make_fig2_testbed(suite_options(DefenseSuite::TopoGuardAndSphinx, 42));
  install_suite(f.tb->controller(), DefenseSuite::TopoGuardAndSphinx);
  f.tb->start(2_s);
  fig2_warm_hosts(f);

  attack::AlertFloodAttack::Config fc;
  for (std::uint32_t i = 0; i < identities; ++i) {
    fc.identities.push_back(attack::SpoofedIdentity{
        net::MacAddress::host(500 + i), net::Ipv4Address::host(500 + i)});
  }
  fc.period = 20_ms;
  // Seed each identity as a legitimate host first (from the peer port).
  for (const auto& id : fc.identities) {
    f.peer->send(net::make_arp_request(id.mac, id.ip, id.ip));
  }
  f.tb->run_for(1_s);

  attack::AlertFloodAttack flood{f.tb->loop(), f.tb->fork_rng(), *f.attacker,
                                 fc};
  flood.start();
  // The real owners keep talking from their own port, so every spoof
  // cycle re-triggers a migration alert: the binding oscillates between
  // the legitimate port and the attacker's (paper Sec. IV-B).
  bool owners_talking = true;
  std::size_t next_owner = 0;
  const std::function<void()> owner_chatter = [&]() {
    if (!owners_talking) return;
    const auto& id = fc.identities[next_owner];
    next_owner = (next_owner + 1) % fc.identities.size();
    f.peer->send(net::make_arp_request(id.mac, id.ip, id.ip));
    f.tb->loop().schedule_after(20_ms, [&owner_chatter] { owner_chatter(); });
  };
  f.tb->loop().schedule_after(10_ms, [&owner_chatter] { owner_chatter(); });
  f.tb->run_for(window - 1_s);
  owners_talking = false;  // owners pause; the flood gets the last word
  f.tb->run_for(1_s);
  flood.stop();

  FloodResult r;
  r.spoofed_identities = identities;
  r.spoof_packets = flood.packets_sent();
  r.precondition_alerts = f.tb->controller().alerts().count(
      ctrl::AlertType::HostMigrationPrecondition);
  r.total_alerts = f.tb->controller().alerts().count();
  for (const auto& id : fc.identities) {
    const auto rec = f.tb->controller().host_tracker().find(id.mac);
    if (rec && rec->loc == f.attacker_loc) ++r.identities_corrupted;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::parse_cli(argc, argv, {});
  banner("Sec. IV-B", "Alert floods: drowning the operator");

  Table table({"Spoofed IDs", "Spoof packets", "Migration alerts",
               "Total alerts", "Bindings corrupted"});
  for (std::size_t n : {1, 5, 10, 20, 50}) {
    const auto r = run_flood(n, 20_s);
    table.add_row({fmt_u(r.spoofed_identities), fmt_u(r.spoof_packets),
                   fmt_u(r.precondition_alerts), fmt_u(r.total_alerts),
                   fmt_u(r.identities_corrupted) + "/" +
                       fmt_u(r.spoofed_identities)});
  }
  table.print();

  std::printf(
      "\nEvery spoofed identity raises its own alert storm, yet no alert\n"
      "alters network state: all bindings end up pointing at the\n"
      "attacker. An operator hunting the one real victim must triage the\n"
      "entire flood (paper Sec. IV-B).\n");
  return 0;
}
