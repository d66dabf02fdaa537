// Causal span tracing over simulated time.
//
// A TraceLog records two record shapes: *spans* (begin/end instants plus
// a parent id, so an LLDP probe round-trip or a hijack race window is
// reconstructable as a tree) and *instants* (point events — the
// controller's ctrl::EventKind events land here as "ctrl" instants).
// All timestamps are sim-time nanoseconds, never the host clock, so the
// JSONL, Chrome trace and console exports are deterministic and
// diffable across runs (tmglint has a hard wall-clock ban for src/).
//
// Span lifetimes routinely cross simulator events (a probe span opens
// when the probe is sent and closes when the reply arrives), so the API
// is explicit begin/end by id rather than RAII. Ids are sequential
// per-log; 0 means "no span" and every mutator accepts it as a no-op,
// which is what makes the zero-cost-when-disabled call sites trivial.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tmg::obs {

/// Trace record id; 0 is the null id (dropped record or "no parent").
using SpanId = std::uint64_t;

/// `s` escaped for the inside of a JSON string literal; the trace and
/// metrics exports both write through it.
[[nodiscard]] std::string json_escape(const std::string& s);

class TraceLog {
 public:
  /// Record cap: once reached, new records are dropped (counted in
  /// dropped()) but the cumulative per-name counters keep advancing, so
  /// count()/category_total() stay exact regardless of the cap.
  static constexpr std::size_t kDefaultMaxRecords = 1u << 20;

  explicit TraceLog(std::size_t max_records = kDefaultMaxRecords);

  struct Record {
    SpanId id = 0;
    SpanId parent = 0;
    bool is_span = false;
    bool closed = false;  // instants are born closed
    sim::SimTime begin;
    sim::SimTime end;
    std::string category;
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
  };

  /// Open a span at `at`. Returns 0 when the log is full (callers need
  /// no special casing: end_span/annotate on 0 are no-ops).
  SpanId begin_span(sim::SimTime at, std::string category, std::string name,
                    SpanId parent = 0);
  void end_span(SpanId id, sim::SimTime at);
  /// Attach a key/value argument to a span or instant.
  void annotate(SpanId id, std::string key, std::string value);

  /// Record a point event; `detail` becomes the "detail" argument when
  /// non-empty. Returns the record id (0 when dropped).
  SpanId instant(sim::SimTime at, std::string category, std::string name,
                 std::string detail = "", SpanId parent = 0);

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Cumulative records ever begun for (category, name) / for category /
  /// instants only for category — unaffected by the record cap or
  /// clear().
  [[nodiscard]] std::uint64_t count(const std::string& category,
                                    const std::string& name) const;
  [[nodiscard]] std::uint64_t category_total(const std::string& category) const;
  [[nodiscard]] std::uint64_t instant_total(const std::string& category) const;

  /// One JSON object per line, byte-stable. Spans:
  ///   {"ph":"span","id":N,"parent":P,"cat":"...","name":"...",
  ///    "t0_ns":T,"t1_ns":T|null,"args":{...}}
  /// Instants use "ph":"instant" with a single "t_ns".
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace-event format (chrome://tracing / Perfetto): complete
  /// ("X") events for spans, "i" events for instants, ts/dur in
  /// microseconds of sim time.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Controller-console view (the paper's Figs. 12-13): the last
  /// `last_n` stored instants of `category`, spans skipped, one
  /// `[%10.3fs] %-12s %-10s %s` line each — sim time, name, the "loc"
  /// arg ("-" when absent) and the "detail" arg.
  [[nodiscard]] std::string to_console(const std::string& category,
                                       std::size_t last_n = 50) const;

  /// Drop the stored records (cumulative counters survive).
  void clear();

 private:
  struct CategoryCounts {
    std::uint64_t records = 0;
    std::uint64_t instants = 0;
  };

  Record* find(SpanId id);

  std::size_t max_records_;
  std::vector<Record> records_;  // id == index + 1
  std::uint64_t dropped_ = 0;
  std::map<std::string, std::uint64_t> name_counts_;  // "cat\x1fname"
  std::map<std::string, CategoryCounts> category_counts_;
};

}  // namespace tmg::obs
