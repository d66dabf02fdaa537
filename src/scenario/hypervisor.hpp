// Hypervisor with automatic live migration.
//
// Paper Sec. IV-B: "Many hypervisors (e.g., VMware) offer services to
// automatically migrate VMs between servers when CPU or memory
// resources become saturated. An attacker could co-locate a host with
// the target VM and mount a denial-of-service attack against those
// resources until the victim was moved by the hypervisor."
//
// This models exactly that: VMs with load figures placed on servers
// with capacity; when a server stays saturated for a sustain period,
// the balancer live-migrates its most expensive *migratable* VM to the
// least-loaded server, unplugging it from its current access link and
// re-plugging it at the destination after a sampled downtime window
// (seconds-scale, per the live-migration literature the paper cites).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/host.hpp"
#include "of/data_link.hpp"
#include "sim/event_loop.hpp"
#include "sim/rng.hpp"

namespace tmg::scenario {

using ServerId = std::uint32_t;

class Hypervisor {
 public:
  Hypervisor(sim::EventLoop& loop, sim::Rng rng);

  /// Declare a physical server with the given resource capacity and the
  /// access links (one per VM slot) it offers.
  void add_server(ServerId id, double capacity,
                  std::vector<of::DataLink*> slots);

  struct VmOptions {
    double load = 0.1;
    /// Pinned VMs are never auto-migrated (e.g. the attacker's own VM).
    bool migratable = true;
  };

  /// Place `vm` on `server` (it is cabled into a free slot's link).
  void place_vm(std::string name, attack::Host& vm, ServerId server,
                VmOptions options);

  /// Change a VM's resource consumption (the attacker's lever: a cache-
  /// dirtying / disk-thrashing co-tenant drives this to ~capacity).
  void set_load(const std::string& vm_name, double load);

  /// Start the balancer.
  void start();

  [[nodiscard]] double server_utilization(ServerId id) const;
  [[nodiscard]] ServerId server_of(const std::string& vm_name) const;
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Observer invoked when a migration begins (vm name, from, to,
  /// downtime). The port-probing attacker doesn't get this callback —
  /// it must *detect* the downtime via liveness probes; tests use it.
  using MigrationListener = std::function<void(
      const std::string&, ServerId, ServerId, sim::Duration)>;
  void set_migration_listener(MigrationListener listener) {
    listener_ = std::move(listener);
  }

 private:
  struct Vm {
    std::string name;
    attack::Host* host = nullptr;
    ServerId server = 0;
    std::size_t slot = 0;
    double load = 0.0;
    bool migratable = true;
  };
  struct Server {
    double capacity = 1.0;
    std::vector<of::DataLink*> slots;
    std::vector<bool> slot_used;
  };

  void tick();
  void migrate(Vm& vm, ServerId to);
  [[nodiscard]] double load_of(ServerId id) const;
  [[nodiscard]] std::size_t free_slot(ServerId id) const;

  sim::EventLoop& loop_;
  sim::Rng rng_;
  std::map<ServerId, Server> servers_;
  std::map<std::string, Vm> vms_;
  std::map<ServerId, sim::SimTime> saturated_since_;
  MigrationListener listener_;
  std::uint64_t migrations_ = 0;
  bool migrating_ = false;
  bool started_ = false;
};

}  // namespace tmg::scenario
