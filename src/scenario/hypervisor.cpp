#include "scenario/hypervisor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tmg::scenario {

namespace {
/// Utilization fraction above which a server is saturated.
constexpr double kSaturationThreshold = 0.85;
/// Saturation must persist this long before the balancer acts
/// (hysteresis against transient spikes).
constexpr sim::Duration kSustain = sim::Duration::seconds(5);
/// Balancer evaluation period.
constexpr sim::Duration kTickPeriod = sim::Duration::seconds(1);
/// Live-migration downtime window: log-normal, seconds-scale
/// (Xen/VMware measurements cited in paper Sec. IV-B2).
constexpr double kDowntimeMuS = 0.7;  // exp(mu) ~ 2.0 s median
constexpr double kDowntimeSigma = 0.35;
}  // namespace

Hypervisor::Hypervisor(sim::EventLoop& loop, sim::Rng rng)
    : loop_{loop}, rng_{std::move(rng)} {}

void Hypervisor::add_server(ServerId id, double capacity,
                            std::vector<of::DataLink*> slots) {
  assert(capacity > 0.0);
  Server server;
  server.capacity = capacity;
  server.slot_used.assign(slots.size(), false);
  server.slots = std::move(slots);
  const auto [_, inserted] = servers_.emplace(id, std::move(server));
  if (!inserted) throw std::logic_error("duplicate server id");
}

std::size_t Hypervisor::free_slot(ServerId id) const {
  const Server& server = servers_.at(id);
  for (std::size_t i = 0; i < server.slot_used.size(); ++i) {
    if (!server.slot_used[i]) return i;
  }
  return server.slot_used.size();  // none
}

void Hypervisor::place_vm(std::string name, attack::Host& vm, ServerId server,
                          VmOptions options) {
  Server& srv = servers_.at(server);
  const std::size_t slot = free_slot(server);
  if (slot >= srv.slots.size()) throw std::logic_error("server full");
  srv.slot_used[slot] = true;
  vm.attach_link(*srv.slots[slot], of::Side::B);
  Vm record;
  record.name = name;
  record.host = &vm;
  record.server = server;
  record.slot = slot;
  record.load = options.load;
  record.migratable = options.migratable;
  const auto [_, inserted] = vms_.emplace(std::move(name), record);
  if (!inserted) throw std::logic_error("duplicate vm name");
}

void Hypervisor::set_load(const std::string& vm_name, double load) {
  vms_.at(vm_name).load = std::max(0.0, load);
}

double Hypervisor::load_of(ServerId id) const {
  double total = 0.0;
  for (const auto& [_, vm] : vms_) {
    if (vm.server == id) total += vm.load;
  }
  return total;
}

double Hypervisor::server_utilization(ServerId id) const {
  return load_of(id) / servers_.at(id).capacity;
}

ServerId Hypervisor::server_of(const std::string& vm_name) const {
  return vms_.at(vm_name).server;
}

void Hypervisor::start() {
  if (started_) return;
  started_ = true;
  tick();
}

void Hypervisor::tick() {
  const sim::SimTime now = loop_.now();
  if (!migrating_) {
    for (auto& [id, server] : servers_) {
      if (server_utilization(id) < kSaturationThreshold) {
        saturated_since_.erase(id);
        continue;
      }
      auto [it, fresh] = saturated_since_.try_emplace(id, now);
      if (now - it->second < kSustain) continue;

      // Persistent saturation: evict the most expensive migratable VM
      // to the least-utilized server with a free slot.
      Vm* candidate = nullptr;
      for (auto& [_, vm] : vms_) {
        if (vm.server != id || !vm.migratable) continue;
        if (!candidate || vm.load > candidate->load) candidate = &vm;
      }
      if (!candidate) continue;
      ServerId best = id;
      double best_util = std::numeric_limits<double>::max();
      for (const auto& [other_id, other] : servers_) {
        if (other_id == id || free_slot(other_id) >= other.slots.size()) {
          continue;
        }
        const double util = server_utilization(other_id);
        if (util < best_util) {
          best_util = util;
          best = other_id;
        }
      }
      if (best != id) {
        migrate(*candidate, best);
        saturated_since_.erase(id);
        break;  // one migration at a time
      }
    }
  }
  loop_.post_after(kTickPeriod, [this] { tick(); });
}

void Hypervisor::migrate(Vm& vm, ServerId to) {
  migrating_ = true;
  ++migrations_;
  Server& src = servers_.at(vm.server);
  Server& dst = servers_.at(to);
  const std::size_t dst_slot = free_slot(to);
  assert(dst_slot < dst.slots.size());

  const double downtime_s =
      std::exp(rng_.normal(kDowntimeMuS, kDowntimeSigma));
  const sim::Duration downtime = sim::Duration::from_seconds_f(downtime_s);
  if (listener_) listener_(vm.name, vm.server, to, downtime);

  // Stop-and-copy: the VM vanishes from its old port...
  vm.host->detach_link();
  src.slot_used[vm.slot] = false;
  dst.slot_used[dst_slot] = true;
  const ServerId from = vm.server;
  (void)from;
  vm.server = to;
  vm.slot = dst_slot;

  // ...and resumes at the destination after the downtime window, where
  // its network stack re-announces itself.
  attack::Host* host = vm.host;
  of::DataLink* link = dst.slots[dst_slot];
  loop_.post_after(downtime, [this, host, link] {
    host->attach_link(*link, of::Side::B);
    migrating_ = false;
    // Gratuitous ARP once the switch has detected the port up (the
    // resumed VM's stack re-announces itself).
    loop_.post_after(sim::Duration::millis(10),
                         [host] { host->send_arp_request(host->ip()); });
  });
}

}  // namespace tmg::scenario
