// Active link verification — a prototype of the "active, dynamic
// defenses" the paper's conclusion argues topology tampering ultimately
// requires (Sec. I, X).
//
// Passive defenses watch what the dataplane volunteers; Port Amnesia
// exploits exactly that. This module instead *challenges* every newly
// advertised link before admitting it: the link is held out of the
// topology while the controller injects nonce-carrying probe frames at
// the claimed source port and times their arrival at the claimed
// destination. A genuine wire returns every probe at wire latency. A
// relay either drops the probes (fails closed) or forwards them and
// unavoidably adds its channel latency (fails the bound) — the same
// physical argument as the LLI, but on-demand, per-link, and without
// requiring calibration history or timestamp TLVs.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/defense_module.hpp"

namespace tmg::defense {

struct ActiveProbeConfig {
  /// Challenge probes per link verification.
  int probes = 3;
  /// The *minimum* of the K probe RTTs must be at or below this. Using
  /// the minimum is the verifier's edge over passive measurement:
  /// queueing micro-bursts are transient (one clean sample suffices),
  /// while a relay's channel latency is a hard floor no sample can
  /// dip under. Set to the deployment's nominal wire latency plus
  /// margin (Fig. 9 wires are 5 ms nominal).
  sim::Duration max_link_latency = sim::Duration::millis(8);
  /// Per-probe loss timeout.
  sim::Duration probe_timeout = sim::Duration::millis(200);
  /// Wait before re-challenging a failed link.
  sim::Duration retry_cooldown = sim::Duration::seconds(60);
};

class ActiveLinkVerifier : public ctrl::DefenseModule {
 public:
  ActiveLinkVerifier(ctrl::Controller& ctrl, ActiveProbeConfig config);

  [[nodiscard]] std::string name() const override { return "ActiveProbe"; }

  ctrl::Verdict on_lldp_observation(const ctrl::LldpObservation& obs) override;
  ctrl::Verdict on_packet_in(const of::PacketIn& pi) override;
  void on_port_status(const of::PortStatus& ps) override;

  enum class State { Probing, Verified, Failed };
  [[nodiscard]] std::optional<State> state_of(const topo::Link& link) const;
  [[nodiscard]] std::uint64_t verifications() const { return verified_; }
  [[nodiscard]] std::uint64_t failures() const { return failed_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }

 private:
  struct Verification {
    State state = State::Probing;
    of::Location src;
    of::Location dst;
    int sent = 0;
    std::vector<double> rtts_ms;
    std::map<std::uint64_t, sim::SimTime> outstanding;  // nonce -> sent at
    sim::SimTime last_transition;
  };

  void begin(const topo::Link& link, of::Location src, of::Location dst);
  void send_probe(const topo::Link& link);
  void conclude(const topo::Link& link, Verification& v, bool ok,
                const std::string& why);

  ctrl::Controller& ctrl_;
  ActiveProbeConfig config_;
  std::map<topo::Link, Verification> links_;
  std::uint64_t next_nonce_ = 1;
  std::uint64_t verified_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t probes_sent_ = 0;
};

ActiveLinkVerifier& install_active_probe(ctrl::Controller& ctrl,
                                         ActiveProbeConfig config = {});

}  // namespace tmg::defense
