#include "scenario/background_traffic.hpp"

#include <algorithm>

#include "check/assert.hpp"

namespace tmg::scenario {

using sim::Duration;

namespace {
/// Packets per flow and their on-wire spacing; first packet is the
/// table miss, the rest exercise the installed rules.
constexpr int kPacketsPerFlow = 4;
constexpr Duration kPacketGap = Duration::micros(200);
constexpr std::size_t kFlowBytes = 512;
/// How long a mobile host stays unplugged between its two ports.
constexpr Duration kMobilityDowntime = Duration::millis(200);
}  // namespace

BackgroundTraffic::BackgroundTraffic(Testbed& tb, sim::Rng rng,
                                     BackgroundTrafficConfig config)
    : tb_{tb}, loop_{tb.loop()}, rng_{rng}, config_{config} {}

void BackgroundTraffic::add_endpoint(attack::Host& host, of::DataLink* link) {
  TMG_ASSERT(!running_, "background traffic: population is fixed at start()");
  endpoints_.push_back(Endpoint{&host, link});
}

void BackgroundTraffic::add_spare_link(of::DataLink& link) {
  TMG_ASSERT(!running_, "background traffic: spare pool is fixed at start()");
  spare_links_.push_back(&link);
}

void BackgroundTraffic::start() {
  if (running_) return;
  TMG_ASSERT(endpoints_.size() >= 2,
             "background traffic: need at least two endpoints");
  running_ = true;
  if (config_.mean_flow_interarrival > Duration::zero()) schedule_flow();
  if (config_.arp_churn_period > Duration::zero()) schedule_arp();
  if (config_.mobility_period > Duration::zero() && !spare_links_.empty()) {
    bool anyone_mobile = false;
    for (const Endpoint& ep : endpoints_) anyone_mobile |= ep.link != nullptr;
    if (anyone_mobile) schedule_mobility();
  }
}

sim::Duration BackgroundTraffic::jittered(Duration period) {
  const double f = rng_.uniform(0.75, 1.25);
  return Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(period.count_nanos()) * f));
}

void BackgroundTraffic::schedule_flow() {
  const double mean_ns =
      static_cast<double>(config_.mean_flow_interarrival.count_nanos());
  // Clamp the exponential's near-zero tail so two flows never collapse
  // onto the same instant (keeps per-flow trace ordering obvious).
  const Duration gap = std::max(
      Duration::micros(1),
      Duration::nanos(static_cast<std::int64_t>(rng_.exponential(mean_ns))));
  loop_.post_after(gap, [this] {
    if (!running_) return;
    const std::int64_t n = static_cast<std::int64_t>(endpoints_.size());
    const std::int64_t src = rng_.uniform_int(0, n - 1);
    const std::int64_t dst =
        (src + 1 + rng_.uniform_int(0, n - 2)) % n;  // != src
    attack::Host* from = endpoints_[static_cast<std::size_t>(src)].host;
    const attack::Host* to = endpoints_[static_cast<std::size_t>(dst)].host;
    ++stats_.flows_started;
    const net::MacAddress dst_mac = to->mac();
    const net::Ipv4Address dst_ip = to->ip();
    for (int p = 0; p < kPacketsPerFlow; ++p) {
      loop_.post_after(kPacketGap * p, [this, from, dst_mac, dst_ip] {
        if (!running_) return;
        from->send_raw(dst_mac, dst_ip, "bg-flow", kFlowBytes);
        ++stats_.packets_offered;
      });
    }
    schedule_flow();
  });
}

void BackgroundTraffic::schedule_arp() {
  loop_.post_after(jittered(config_.arp_churn_period), [this] {
    if (!running_) return;
    const std::int64_t n = static_cast<std::int64_t>(endpoints_.size());
    attack::Host* h =
        endpoints_[static_cast<std::size_t>(rng_.uniform_int(0, n - 1))].host;
    // Gratuitous announcement: a broadcast flood plus an HTS refresh of
    // the sender's binding — the fleet's dominant broadcast load.
    h->send_arp_request(h->ip());
    ++stats_.arp_announcements;
    schedule_arp();
  });
}

void BackgroundTraffic::schedule_mobility() {
  loop_.post_after(jittered(config_.mobility_period), [this] {
    if (!running_) return;
    // Pick among the mobile endpoints only (deterministic: the k-th
    // mobile endpoint in registration order).
    std::int64_t mobile = 0;
    for (const Endpoint& ep : endpoints_) mobile += ep.link != nullptr;
    std::int64_t pick = rng_.uniform_int(0, mobile - 1);
    Endpoint* chosen = nullptr;
    for (Endpoint& ep : endpoints_) {
      if (ep.link == nullptr) continue;
      if (pick-- == 0) {
        chosen = &ep;
        break;
      }
    }
    const std::size_t spare_idx = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(spare_links_.size()) - 1));
    of::DataLink* target = spare_links_[spare_idx];
    migrate_host(tb_, *chosen->host, *target, kMobilityDowntime);
    // The vacated port becomes the new spare.
    spare_links_[spare_idx] = chosen->link;
    chosen->link = target;
    ++stats_.migrations;
    // On rejoin the host announces itself so the HTS observes the move.
    attack::Host* h = chosen->host;
    loop_.post_after(kMobilityDowntime + Duration::millis(10),
                     [this, h] {
                       if (!running_ || !h->attached()) return;
                       h->send_arp_request(h->ip());
                     });
    schedule_mobility();
  });
}

}  // namespace tmg::scenario
