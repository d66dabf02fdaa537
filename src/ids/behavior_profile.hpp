// Learned control-plane behavior profiles (DESIGN.md §14).
//
// A BehaviorProfile is the trained baseline the anomaly IDS scores
// against: per-(switch,port) message-symbol transition sets (the
// bigrams and trigrams seen in the pre-commit pipeline event stream),
// the set of LLDP source ports ever seen arriving at each port, each
// port's busiest sim-second, and per-span-kind duration envelopes.
// It holds what ProfileAnomalyService scores against, plus the
// training totals bench_anomaly reports.
// Profiles are deterministic — training the same trials in the same
// order yields an equal profile — and controller-profile specific
// (ONOS's event-triggered probing is normal for ONOS, anomalous for
// Floodlight).
//
// The one featurizer is ProfileAnomalyService: in Train mode it feeds
// its live featurization into a ProfileTrainer, whose finalize() hands
// the in-memory profile straight to a Detect-mode service.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "of/messages.hpp"
#include "sim/time.hpp"
#include "stats/streaming_quantile.hpp"

namespace tmg::ids {

/// Alphabet of the per-port message-sequence model. Start is the
/// virtual sequence anchor (a port's first event forms the bigram
/// Start -> first). Packet-Ins the controller core consumes before the
/// anomaly slot (probe replies, controller-identity ARP, bounced LLI
/// probes) are NOT part of the alphabet: the listener never sees them.
enum class Symbol : std::uint8_t {
  Start = 0,
  PktArp,      // ARP Packet-In
  PktIp,       // ICMP/TCP Packet-In
  PktLldp,     // LLDP Packet-In
  PktOther,    // raw/unclassified Packet-In
  PortUp,
  PortDown,
  HostNew,
  HostMoved,
  LinkRemoved,
};
inline constexpr std::size_t kSymbolCount = 10;

const char* to_string(Symbol s);

/// (dpid << 16) | port, packed by stats::FlowStats::port_key.
using PortKey = std::uint64_t;
[[nodiscard]] PortKey port_key(of::Location loc);
[[nodiscard]] of::Location port_key_location(PortKey key);
/// "0x<dpid hex>:<port>", matching of::Location::to_string().
[[nodiscard]] std::string port_key_to_string(PortKey key);

/// Transition-set keys: bigram prev->cur, trigram p2->p1->cur.
[[nodiscard]] constexpr std::uint32_t bigram_key(Symbol prev, Symbol cur) {
  return static_cast<std::uint32_t>(prev) * kSymbolCount +
         static_cast<std::uint32_t>(cur);
}
[[nodiscard]] constexpr std::uint32_t trigram_key(Symbol p2, Symbol p1,
                                                  Symbol cur) {
  return bigram_key(p2, p1) * kSymbolCount + static_cast<std::uint32_t>(cur);
}

/// Baseline for one (switch, port).
struct PortProfile {
  std::set<std::uint32_t> bigrams;
  std::set<std::uint32_t> trigrams;
  /// LLDP source (chassis, port) keys ever seen arriving here.
  std::set<PortKey> lldp_srcs;
  /// Busiest one-second sim-time bucket across all training trials.
  std::uint64_t peak_rate_per_s = 0;

  bool operator==(const PortProfile&) const = default;
};

/// Trained envelope for one span kind (e.g. "lldp.rtt").
struct DurationEnvelope {
  std::uint64_t count = 0;
  double p99_ns = 0.0;
  double max_ns = 0.0;

  bool operator==(const DurationEnvelope&) const = default;
};

struct BehaviorProfile {
  std::map<PortKey, PortProfile> ports;
  std::map<std::string, DurationEnvelope> durations;
  /// Training totals: trials begun and events observed.
  std::uint64_t trials = 0;
  std::uint64_t events = 0;

  bool operator==(const BehaviorProfile&) const = default;
};

/// Accumulates clean-run feature streams into a BehaviorProfile.
/// Deterministic: the finalized profile is a pure function of the
/// observe() call sequence (StreamingQuantile merge order never arises
/// — a trainer is fed serially).
class ProfileTrainer {
 public:
  /// Start a new clean trial: sequence anchors and rate buckets reset,
  /// accumulated sets persist.
  void begin_trial();

  void observe(PortKey port, Symbol s, sim::SimTime at);
  void observe_lldp_src(PortKey dst_port, PortKey src_port);
  void observe_duration(const std::string& kind, std::uint64_t ns);

  [[nodiscard]] BehaviorProfile finalize() const;

 private:
  struct PortState {
    Symbol s1 = Symbol::Start;  // previous symbol
    Symbol s2 = Symbol::Start;  // symbol before that
    std::int64_t bucket = -1;   // current one-second bucket index
    std::uint64_t in_bucket = 0;
    std::uint64_t peak = 0;     // largest in_bucket so far
    PortProfile acc;
  };
  struct DurationAcc {
    stats::StreamingQuantile p99{0.99};
    double max_ns = 0.0;
    std::uint64_t count = 0;
  };

  std::map<PortKey, PortState> ports_;
  std::map<std::string, DurationAcc> durations_;
  std::uint64_t trials_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace tmg::ids
