// The benchmark's three workloads, each a closed loop of serial trials
// through the simulator's public experiment drivers.
//
// Trial i of a run executes cell (i % cells()) at seed index
// (i / cells()), so cells alternate trial by trial and every cell of one
// round shares a seed: paired cell differences in the traced mode see
// the same simulated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/message_pipeline.hpp"
#include "scenario/fleet.hpp"

namespace tmg::obs {
class Observability;
}  // namespace tmg::obs

namespace perfbench {

/// FNV-1a over 64-bit words. Trial outcomes are folded field by field;
/// events_executed is never folded, so a change that merges simulator
/// events keeps every digest.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(bool b) { add(static_cast<std::uint64_t>(b)); }
  /// Race windows: presence, then the value at nanosecond resolution.
  void add(const std::optional<double>& ms);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v);

/// `s` as a metric-name component: lower case, other than [a-z0-9] -> '_'.
std::string metric_key(const std::string& s);

/// A trial run with one layer switched off, for paired on/off timing.
/// Each workload supports the variants its traced mode compares.
enum class Variant {
  Base,           // the workload as timed
  AttackOff,      // paper_race: same timeline, no probing attack
  IdsOff,         // defense_stack: Stacked without the anomaly IDS
  DefenseOff,     // defense_stack: suite None and no IDS
  BackgroundOff,  // fleet_k16: hijack half only, background off
  HijackOnly,     // fleet_k16: hijack half only, background on
};

struct TrialOptions {
  tmg::scenario::TrialArena* arena = nullptr;
  tmg::obs::Observability* obs = nullptr;
  bool collect_pipeline_stats = false;
  Variant variant = Variant::Base;
};

struct TrialResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t anomaly_scored = 0;
  std::vector<tmg::ctrl::MessagePipeline::ListenerStats> listeners;
  /// Non-empty when the outcome breaks an invariant of the workload
  /// (for example a fleet hijack that tracked fewer than 1,024 hosts).
  std::string problem;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual std::size_t cells() const = 0;
  /// Metric-safe cell label ([a-z0-9_.]).
  [[nodiscard]] virtual std::string cell_name(std::size_t cell) const = 0;
  /// Controller profile name of a cell (paired profile differences).
  [[nodiscard]] virtual std::string cell_profile(std::size_t cell) const = 0;

  /// Untimed warm-up rounds per set-up, sized so set-up lasts well over
  /// the 0.4 s below which set-up times were found not to repeat.
  [[nodiscard]] virtual std::size_t warmup_rounds() const = 0;
  /// Timed trials whose digests are committed per seed.
  [[nodiscard]] virtual std::size_t digest_trials() const = 0;

  /// Build the trial inputs that do not change between trials (the
  /// anomaly baselines of defense_stack). Runs once per set-up.
  virtual void build_inputs(std::uint64_t seed,
                            tmg::scenario::TrialArena& arena) = 0;

  /// Run trial `index` of a run seeded with `seed`. Warm-up trials use
  /// indices far above any timed trial, so they never repeat one.
  [[nodiscard]] virtual TrialResult run(std::uint64_t seed, std::size_t index,
                                        const TrialOptions& options) = 0;
};

/// Workload names accepted by make_workload, in documentation order.
const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The hijack half of fleet_k16 trial `index` (before the trial's
/// arena, observability and variant are applied).
tmg::scenario::FleetHijackConfig fleet_hijack_config(std::uint64_t seed,
                                                     std::size_t index);

/// First warm-up trial index; timed runs stay far below it.
constexpr std::size_t kWarmupIndexBase = std::size_t{1} << 40;

}  // namespace perfbench
