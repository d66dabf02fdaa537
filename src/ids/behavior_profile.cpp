#include "ids/behavior_profile.hpp"

#include <algorithm>

#include "stats/flow_stats.hpp"

namespace tmg::ids {

const char* to_string(Symbol s) {
  switch (s) {
    case Symbol::Start: return "Start";
    case Symbol::PktArp: return "PktArp";
    case Symbol::PktIp: return "PktIp";
    case Symbol::PktLldp: return "PktLldp";
    case Symbol::PktOther: return "PktOther";
    case Symbol::PortUp: return "PortUp";
    case Symbol::PortDown: return "PortDown";
    case Symbol::HostNew: return "HostNew";
    case Symbol::HostMoved: return "HostMoved";
    case Symbol::LinkRemoved: return "LinkRemoved";
  }
  return "Unknown";
}

PortKey port_key(of::Location loc) {
  return stats::FlowStats::port_key(loc.dpid, loc.port);
}

of::Location port_key_location(PortKey key) {
  return of::Location{key >> 16, static_cast<of::PortNo>(key & 0xffff)};
}

std::string port_key_to_string(PortKey key) {
  return port_key_location(key).to_string();
}

// ---------------------------------------------------------------------
// ProfileTrainer
// ---------------------------------------------------------------------

void ProfileTrainer::begin_trial() {
  ++trials_;
  for (auto& [key, state] : ports_) {
    state.s1 = Symbol::Start;
    state.s2 = Symbol::Start;
    state.bucket = -1;
    state.in_bucket = 0;
  }
}

void ProfileTrainer::observe(PortKey port, Symbol s, sim::SimTime at) {
  PortState& state = ports_[port];
  state.acc.bigrams.insert(bigram_key(state.s1, s));
  state.acc.trigrams.insert(trigram_key(state.s2, state.s1, s));
  state.s2 = state.s1;
  state.s1 = s;
  ++events_;
  const std::int64_t bucket = at.count_nanos() / 1'000'000'000;
  if (bucket != state.bucket) {
    state.bucket = bucket;
    state.in_bucket = 0;
  }
  state.in_bucket += 1;
  state.peak = std::max(state.peak, state.in_bucket);
}

void ProfileTrainer::observe_lldp_src(PortKey dst_port, PortKey src_port) {
  ports_[dst_port].acc.lldp_srcs.insert(src_port);
}

void ProfileTrainer::observe_duration(const std::string& kind,
                                      std::uint64_t ns) {
  auto [it, inserted] = durations_.try_emplace(kind);
  DurationAcc& acc = it->second;
  const auto v = static_cast<double>(ns);
  acc.p99.add(v);
  acc.max_ns = std::max(acc.max_ns, v);
  acc.count += 1;
}

BehaviorProfile ProfileTrainer::finalize() const {
  BehaviorProfile profile;
  profile.trials = trials_;
  profile.events = events_;
  for (const auto& [key, state] : ports_) {
    PortProfile p = state.acc;
    p.peak_rate_per_s = state.peak;
    profile.ports[key] = std::move(p);
  }
  for (const auto& [kind, acc] : durations_) {
    DurationEnvelope d;
    d.count = acc.count;
    d.p99_ns = acc.p99.value();
    d.max_ns = acc.max_ns;
    profile.durations[kind] = d;
  }
  return profile;
}

}  // namespace tmg::ids
