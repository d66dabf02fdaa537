#include "obs/observability.hpp"

#include <cstdio>

namespace tmg::obs {

Observability::LoopObserver::LoopObserver(MetricsRegistry& metrics)
    : events_{metrics.counter("sim.events")},
      queue_depth_{metrics.histogram("sim.queue_depth", 0.0, 4096.0, 64)},
      advance_ms_{metrics.histogram("sim.advance_ms", 0.0, 100.0, 50)} {}

void Observability::LoopObserver::on_event_executed(sim::SimTime /*now*/,
                                                    sim::Duration advanced,
                                                    std::size_t live_after) {
  events_.inc();
  queue_depth_.add(static_cast<double>(live_after));
  advance_ms_.add(advanced.to_millis_f());
}

Observability::Observability(ObsConfig config)
    : config_{config}, loop_observer_{metrics_} {}

Observability::~Observability() = default;

void Observability::add_collector(Collector fn) {
  collectors_.push_back(std::move(fn));
}

void Observability::collect(sim::SimTime at) {
  for (const Collector& c : collectors_) c(metrics_, at);
}

std::string Observability::metrics_json(sim::SimTime at) {
  collect(at);
  return metrics_.to_json(at);
}

std::string Observability::metrics_csv(sim::SimTime at) {
  collect(at);
  return metrics_.to_csv(at);
}

void Observability::finalize(sim::SimTime at) {
  collect(at);
  collectors_.clear();
  final_time_ = at;
}

sim::LoopProbe& Observability::loop_probe() { return loop_observer_; }

void Observability::reset() {
  collectors_.clear();
  metrics_.reset();
  trace_.clear();
  flow_stats_.reset();
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

}  // namespace tmg::obs
