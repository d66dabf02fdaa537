#include "obs/trace_log.hpp"

#include <cstdio>

namespace tmg::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_args(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + json_escape(args[i].first) + "\":\"" +
           json_escape(args[i].second) + "\"";
  }
  out += "}";
}

/// The value of `key` in `r.args`, or `fallback` when absent.
const char* arg_or(const TraceLog::Record& r, const char* key,
                   const char* fallback) {
  for (const auto& [k, v] : r.args) {
    if (k == key) return v.c_str();
  }
  return fallback;
}

}  // namespace

TraceLog::TraceLog(std::size_t max_records) : max_records_{max_records} {}

TraceLog::Record* TraceLog::find(SpanId id) {
  if (id == 0 || id > records_.size()) return nullptr;
  return &records_[id - 1];
}

SpanId TraceLog::begin_span(sim::SimTime at, std::string category,
                            std::string name, SpanId parent) {
  ++name_counts_[category + '\x1f' + name];
  ++category_counts_[category].records;
  if (records_.size() >= max_records_) {
    ++dropped_;
    return 0;
  }
  Record r;
  r.id = records_.size() + 1;
  r.parent = parent;
  r.is_span = true;
  r.begin = at;
  r.end = at;
  r.category = std::move(category);
  r.name = std::move(name);
  records_.push_back(std::move(r));
  return records_.back().id;
}

void TraceLog::end_span(SpanId id, sim::SimTime at) {
  Record* r = find(id);
  if (r == nullptr || !r->is_span || r->closed) return;
  r->end = at;
  r->closed = true;
}

void TraceLog::annotate(SpanId id, std::string key, std::string value) {
  Record* r = find(id);
  if (r == nullptr) return;
  r->args.emplace_back(std::move(key), std::move(value));
}

SpanId TraceLog::instant(sim::SimTime at, std::string category,
                         std::string name, std::string detail, SpanId parent) {
  ++name_counts_[category + '\x1f' + name];
  CategoryCounts& counts = category_counts_[category];
  ++counts.records;
  ++counts.instants;
  if (records_.size() >= max_records_) {
    ++dropped_;
    return 0;
  }
  Record r;
  r.id = records_.size() + 1;
  r.parent = parent;
  r.is_span = false;
  r.closed = true;
  r.begin = at;
  r.end = at;
  r.category = std::move(category);
  r.name = std::move(name);
  if (!detail.empty()) r.args.emplace_back("detail", std::move(detail));
  records_.push_back(std::move(r));
  return records_.back().id;
}

std::uint64_t TraceLog::count(const std::string& category,
                              const std::string& name) const {
  const auto it = name_counts_.find(category + '\x1f' + name);
  return it == name_counts_.end() ? 0 : it->second;
}

std::uint64_t TraceLog::category_total(const std::string& category) const {
  const auto it = category_counts_.find(category);
  return it == category_counts_.end() ? 0 : it->second.records;
}

std::uint64_t TraceLog::instant_total(const std::string& category) const {
  const auto it = category_counts_.find(category);
  return it == category_counts_.end() ? 0 : it->second.instants;
}

std::string TraceLog::to_jsonl() const {
  std::string out;
  char buf[256];
  for (const Record& r : records_) {
    if (r.is_span) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"span\",\"id\":%llu,\"parent\":%llu,",
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent));
      out += buf;
      out += "\"cat\":\"" + json_escape(r.category) + "\",\"name\":\"" +
             json_escape(r.name) + "\",";
      if (r.closed) {
        std::snprintf(buf, sizeof buf, "\"t0_ns\":%lld,\"t1_ns\":%lld,",
                      static_cast<long long>(r.begin.count_nanos()),
                      static_cast<long long>(r.end.count_nanos()));
      } else {
        std::snprintf(buf, sizeof buf, "\"t0_ns\":%lld,\"t1_ns\":null,",
                      static_cast<long long>(r.begin.count_nanos()));
      }
      out += buf;
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"instant\",\"id\":%llu,\"parent\":%llu,",
                    static_cast<unsigned long long>(r.id),
                    static_cast<unsigned long long>(r.parent));
      out += buf;
      out += "\"cat\":\"" + json_escape(r.category) + "\",\"name\":\"" +
             json_escape(r.name) + "\",";
      std::snprintf(buf, sizeof buf, "\"t_ns\":%lld,",
                    static_cast<long long>(r.begin.count_nanos()));
      out += buf;
    }
    append_args(out, r.args);
    out += "}\n";
  }
  return out;
}

std::string TraceLog::to_chrome_trace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out += "{\"pid\":1,\"tid\":1,\"cat\":\"" + json_escape(r.category) +
           "\",\"name\":\"" + json_escape(r.name) + "\",";
    if (r.is_span) {
      const double dur_us =
          r.closed ? (r.end - r.begin).to_micros_f() : 0.0;
      std::snprintf(buf, sizeof buf, "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,",
                    static_cast<double>(r.begin.count_nanos()) / 1e3, dur_us);
    } else {
      std::snprintf(buf, sizeof buf, "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,",
                    static_cast<double>(r.begin.count_nanos()) / 1e3);
    }
    out += buf;
    std::snprintf(buf, sizeof buf, "\"id\":%llu,",
                  static_cast<unsigned long long>(r.id));
    out += buf;
    // Parent ids ride in args: the Chrome viewer has no span-tree field,
    // but render_timeline.py and humans can still reconstruct the tree.
    std::vector<std::pair<std::string, std::string>> args = r.args;
    if (r.parent != 0) {
      args.emplace_back("parent", std::to_string(r.parent));
    }
    if (r.is_span && !r.closed) args.emplace_back("open", "true");
    append_args(out, args);
    out += i + 1 == records_.size() ? "}\n" : "},\n";
  }
  out += "]}\n";
  return out;
}

std::string TraceLog::to_console(const std::string& category,
                                 std::size_t last_n) const {
  std::vector<const Record*> shown;  // newest first
  for (auto it = records_.rbegin();
       it != records_.rend() && shown.size() < last_n; ++it) {
    if (!it->is_span && it->category == category) shown.push_back(&*it);
  }
  std::string out;
  char line[512];
  for (auto it = shown.rbegin(); it != shown.rend(); ++it) {
    const Record& r = **it;
    std::snprintf(line, sizeof line, "[%10.3fs] %-12s %-10s %s\n",
                  r.begin.to_seconds_f(), r.name.c_str(), arg_or(r, "loc", "-"),
                  arg_or(r, "detail", ""));
    out += line;
  }
  return out;
}

void TraceLog::clear() { records_.clear(); }

}  // namespace tmg::obs
