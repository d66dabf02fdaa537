#include "obs/metrics.hpp"

#include <cstdarg>
#include <cstdio>

#include "check/assert.hpp"
#include "obs/trace_log.hpp"

namespace tmg::obs {

namespace {

void append_f(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

bool MetricsRegistry::valid_name(const std::string& name) {
  const std::size_t brace = name.find('{');
  const std::string base =
      brace == std::string::npos ? name : name.substr(0, brace);
  if (base.empty() || base.front() == '.' || base.back() == '.') return false;
  bool has_dot = false;
  for (const char c : base) {
    if (c == '.') {
      has_dot = true;
    } else if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') {
      return false;
    }
  }
  if (!has_dot) return false;
  if (brace == std::string::npos) return true;
  // `{label=value,...}`: labels lowercase, values free-form minus the
  // structural characters.
  if (name.back() != '}') return false;
  const std::string labels = name.substr(brace + 1, name.size() - brace - 2);
  if (labels.empty()) return false;
  for (const char c : labels) {
    if (c == '{' || c == '}' || c == '"') return false;
  }
  return labels.find('=') != std::string::npos;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  TMG_ASSERT(valid_name(name), "metric name must be module.metric{label}");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  TMG_ASSERT(valid_name(name), "metric name must be module.metric{label}");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

stats::Histogram& MetricsRegistry::histogram(const std::string& name,
                                             double lo, double hi,
                                             std::size_t bins) {
  TMG_ASSERT(valid_name(name), "metric name must be module.metric{label}");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistEntry entry;
    entry.lo = lo;
    entry.hi = hi;
    entry.bins = bins;
    entry.hist = std::make_unique<stats::Histogram>(lo, hi, bins);
    it = histograms_.emplace(name, std::move(entry)).first;
  } else {
    TMG_ASSERT(it->second.lo == lo && it->second.hi == hi &&
                   it->second.bins == bins,
               "histogram re-registered with different buckets");
  }
  return *it->second.hist;
}

std::string MetricsRegistry::to_json(sim::SimTime at) const {
  std::string out;
  append_f(out, "{\n  \"at_ns\": %lld,\n",
           static_cast<long long>(at.count_nanos()));
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    append_f(out, "%s\n    \"%s\": %llu", first ? "" : ",",
             json_escape(name).c_str(),
             static_cast<unsigned long long>(c->value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    append_f(out, "%s\n    \"%s\": %.6f", first ? "" : ",",
             json_escape(name).c_str(), g->value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    append_f(out, "%s\n    \"%s\": {\"lo\": %.6f, \"hi\": %.6f, \"total\": %llu, \"bins\": [",
             first ? "" : ",", json_escape(name).c_str(), h.lo, h.hi,
             static_cast<unsigned long long>(h.hist->total()));
    for (std::size_t b = 0; b < h.hist->bin_count(); ++b) {
      append_f(out, "%s%llu", b == 0 ? "" : ",",
               static_cast<unsigned long long>(h.hist->count(b)));
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsRegistry::to_csv(sim::SimTime at) const {
  std::string out;
  append_f(out, "# at_ns=%lld\ntype,name,field,value\n",
           static_cast<long long>(at.count_nanos()));
  for (const auto& [name, c] : counters_) {
    append_f(out, "counter,%s,value,%llu\n", name.c_str(),
             static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    append_f(out, "gauge,%s,value,%.6f\n", name.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    append_f(out, "histogram,%s,total,%llu\n", name.c_str(),
             static_cast<unsigned long long>(h.hist->total()));
    for (std::size_t b = 0; b < h.hist->bin_count(); ++b) {
      append_f(out, "histogram,%s,bin[%.6f:%.6f],%llu\n", name.c_str(),
               h.hist->bin_lo(b), h.hist->bin_hi(b),
               static_cast<unsigned long long>(h.hist->count(b)));
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  // In-place resets: handles held by hot paths (the loop probe, the
  // pipeline) stay valid across a trial reset.
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h.hist->reset();
}

}  // namespace tmg::obs
