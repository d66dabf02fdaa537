#include "scenario/testbed.hpp"

#include <stdexcept>

#include "defense/topoguard.hpp"
#include "obs/observability.hpp"

namespace tmg::scenario {

namespace {

/// Dataplane link latency model (paper Fig. 9: 5 ms links with
/// occasional micro-bursts to ~12 ms, Fig. 10).
std::unique_ptr<sim::LatencyModel> dataplane_model() {
  return sim::make_microburst(sim::Duration::millis(5),
                              sim::Duration::micros(300), 0.03,
                              sim::Duration::from_millis_f(2.5));
}

/// Host access links are short patch cables.
std::unique_ptr<sim::LatencyModel> access_model() {
  return sim::make_normal(sim::Duration::micros(200),
                          sim::Duration::micros(20));
}

/// Control channel (switch <-> controller).
std::unique_ptr<sim::LatencyModel> control_model() {
  return sim::make_normal(sim::Duration::millis(1),
                          sim::Duration::micros(100));
}

}  // namespace

Testbed::Testbed(TestbedOptions options)
    : options_{std::move(options)},
      owned_loop_{options_.loop == nullptr
                      ? std::make_unique<sim::EventLoop>()
                      : nullptr},
      loop_{options_.loop == nullptr ? *owned_loop_ : *options_.loop},
      rng_{options_.seed} {
  controller_ = std::make_unique<ctrl::Controller>(loop_, rng_.fork(),
                                                   options_.controller);
}

Testbed::~Testbed() {
  // Teardown validation: whatever state the experiment left behind must
  // still satisfy every invariant.
  if (checker_) checker_->final_check();
}

void Testbed::set_observability(obs::Observability* obs) {
  controller_->set_observability(obs);
  loop_.set_probe(obs == nullptr ? nullptr : &obs->loop_probe());
}

check::InvariantChecker& Testbed::enable_invariant_checker(
    const defense::TopoGuard* topoguard) {
  if (!checker_) {
    check::InvariantOptions opts;
    opts.check_every_events = options_.check_every_events;
    // Fail fast: a violation in a testbed run means the simulator is
    // broken, and every downstream number is garbage. Tests that study
    // violations on purpose construct their own InvariantChecker.
    opts.assert_on_violation = true;
    checker_ =
        std::make_unique<check::InvariantChecker>(*controller_, opts);
    // Each switch's flow table must stay priority-sorted, the order
    // every first-hit scan relies on.
    for (auto& [dpid, entry] : switches_) {
      of::Switch* sw = entry.sw.get();
      checker_->add_audit("flow table dpid " + std::to_string(dpid),
                          [sw] { return sw->flow_table().audit(); });
    }
  }
  // No explicit handle: watch the first installed TopoGuard.
  for (const auto& module : controller_->defense_modules()) {
    if (topoguard) break;
    topoguard = dynamic_cast<const defense::TopoGuard*>(module.get());
  }
  if (topoguard) checker_->watch_topoguard(*topoguard);
  return *checker_;
}

of::Switch& Testbed::add_switch(of::Dpid dpid) {
  if (started_) throw std::logic_error("testbed already started");
  auto [it, inserted] = switches_.try_emplace(dpid);
  if (!inserted) throw std::logic_error("duplicate dpid");
  SwitchEntry& entry = it->second;
  entry.channel = std::make_unique<of::ControlChannel>(loop_, rng_.fork(),
                                                       control_model());
  entry.sw =
      std::make_unique<of::Switch>(loop_, rng_.fork(), dpid, *entry.channel);
  return *entry.sw;
}

of::Switch& Testbed::get_switch(of::Dpid dpid) {
  return *switches_.at(dpid).sw;
}

of::ControlChannel& Testbed::control_channel(of::Dpid dpid) {
  return *switches_.at(dpid).channel;
}

of::DataLink& Testbed::connect_switches(of::Dpid a, of::PortNo pa, of::Dpid b,
                                        of::PortNo pb) {
  auto link =
      std::make_unique<of::DataLink>(loop_, rng_.fork(), dataplane_model());
  switches_.at(a).sw->attach_link(pa, *link, of::Side::A);
  switches_.at(a).ports.push_back(pa);
  switches_.at(b).sw->attach_link(pb, *link, of::Side::B);
  switches_.at(b).ports.push_back(pb);
  links_.push_back(std::move(link));
  return *links_.back();
}

of::DataLink& Testbed::add_access_link(of::Dpid dpid, of::PortNo port) {
  auto link =
      std::make_unique<of::DataLink>(loop_, rng_.fork(), access_model());
  // No host yet: the far side has no carrier until someone plugs in.
  link->set_carrier(of::Side::B, false);
  switches_.at(dpid).sw->attach_link(port, *link, of::Side::A);
  switches_.at(dpid).ports.push_back(port);
  links_.push_back(std::move(link));
  return *links_.back();
}

attack::Host& Testbed::add_host(of::Dpid dpid, of::PortNo port,
                                attack::HostConfig config) {
  auto link =
      std::make_unique<of::DataLink>(loop_, rng_.fork(), access_model());
  switches_.at(dpid).sw->attach_link(port, *link, of::Side::A);
  switches_.at(dpid).ports.push_back(port);
  auto host =
      std::make_unique<attack::Host>(loop_, rng_.fork(), std::move(config));
  host->attach_link(*link, of::Side::B);
  links_.push_back(std::move(link));
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

attack::Host& Testbed::add_host_on(of::DataLink& link,
                                   attack::HostConfig config) {
  auto host =
      std::make_unique<attack::Host>(loop_, rng_.fork(), std::move(config));
  host->attach_link(link, of::Side::B);
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

attack::OutOfBandChannel& Testbed::add_oob_channel(
    attack::OobChannelConfig config) {
  oobs_.push_back(std::make_unique<attack::OutOfBandChannel>(
      loop_, rng_.fork(), config));
  return *oobs_.back();
}

void Testbed::start(sim::Duration warmup) {
  if (started_) return;
  started_ = true;
  for (auto& [dpid, entry] : switches_) {
    controller_->connect_switch(dpid, *entry.channel, entry.ports);
  }
  if (options_.check_invariants) enable_invariant_checker();
  controller_->start();
  run_for(warmup);
}

void Testbed::run_for(sim::Duration d) {
  loop_.run_until(loop_.now() + d);
}

void Testbed::run_until(sim::SimTime t) { loop_.run_until(t); }

void migrate_host(Testbed& tb, attack::Host& host, of::DataLink& target,
                  sim::Duration downtime) {
  host.detach_link();
  // tmglint: allow(callback-lifetime) fixture owns host+target all trial
  tb.loop().post_after(downtime, [&host, &target] {
    host.attach_link(target, of::Side::B);
  });
}

}  // namespace tmg::scenario
