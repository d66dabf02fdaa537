// Observability façade: one object bundling the metrics registry, the
// span trace log, and the EventLoop profiling probe.
//
// Consumers (Controller, the services, both attacks, the testbeds) hold
// a borrowed `obs::Observability*` that is null by default — the null
// check is the zero-cost-when-disabled guard the attack-matrix goldens
// rely on. Everything recorded here is sim-time derived, so a
// run's exports are byte-identical across repetitions and `--jobs`
// counts (tests/obs_test.cpp).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "sim/event_loop.hpp"
#include "stats/flow_stats.hpp"

namespace tmg::obs {

/// The trace keeps TraceLog's default record cap.
struct ObsConfig {
  /// Open a span tree around every MessagePipeline dispatch (per-listener
  /// child spans). Turn off for long runs that only need metrics.
  bool trace_dispatch = true;
};

class Observability {
 public:
  explicit Observability(ObsConfig config = {});
  ~Observability();
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceLog& trace() { return trace_; }
  [[nodiscard]] const TraceLog& trace() const { return trace_; }

  /// Streaming Packet-In traffic totals, fed by the controller's
  /// Packet-In dispatch when observability is attached (null obs
  /// pointer = nothing recorded, preserving the zero-cost guard). A
  /// controller collector mirrors them into the five flow.* gauges.
  [[nodiscard]] stats::FlowStats& flow_stats() { return flow_stats_; }
  [[nodiscard]] bool trace_dispatch() const { return config_.trace_dispatch; }

  /// Export-time metric mirroring: collectors run right before a
  /// snapshot, copying module counters (pipeline stats, LLDP accounting,
  /// alert totals) into the registry without touching any hot path.
  /// Collectors borrow whatever they capture — unregister by reset(), or
  /// keep the captured objects alive until the last export.
  using Collector = std::function<void(MetricsRegistry&, sim::SimTime)>;
  void add_collector(Collector fn);
  void collect(sim::SimTime at);

  /// collect() + byte-stable export (see MetricsRegistry).
  [[nodiscard]] std::string metrics_json(sim::SimTime at);
  [[nodiscard]] std::string metrics_csv(sim::SimTime at);

  /// Run the collectors one final time and drop them. The experiment
  /// drivers call this before tearing down the testbed: the mirrored
  /// gauges survive in the registry, and later metrics_json()/collect()
  /// calls cannot chase references into destroyed objects. Also
  /// remembers `at` so a caller with no live loop can export the final
  /// snapshot (final_time()).
  void finalize(sim::SimTime at);
  [[nodiscard]] sim::SimTime final_time() const { return final_time_; }

  /// The EventLoop profiling probe: records `sim.queue_depth` and
  /// `sim.advance_ms` histograms plus a `sim.events` counter. Attach
  /// with loop.set_probe(&obs.loop_probe()).
  [[nodiscard]] sim::LoopProbe& loop_probe();

  /// Trial-reset path: zero metrics and flow totals, drop trace
  /// records, forget collectors. A shared Observability reused across
  /// trials must go through here so no trial starts with a
  /// predecessor's totals.
  void reset();

 private:
  class LoopObserver final : public sim::LoopProbe {
   public:
    explicit LoopObserver(MetricsRegistry& metrics);
    void on_event_executed(sim::SimTime now, sim::Duration advanced,
                           std::size_t live_after) override;

   private:
    Counter& events_;
    stats::Histogram& queue_depth_;
    stats::Histogram& advance_ms_;
  };

  ObsConfig config_;
  MetricsRegistry metrics_;
  TraceLog trace_;
  stats::FlowStats flow_stats_;
  LoopObserver loop_observer_;
  std::vector<Collector> collectors_;
  sim::SimTime final_time_;
};

/// Write `content` to `path` (truncating). Returns false (with a stderr
/// note) when the file cannot be opened; shared by --obs-out/--trace-out.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace tmg::obs
