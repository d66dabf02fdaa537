#include "stats/flow_stats.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/rng.hpp"

namespace tmg::stats {

FlowStats::FlowStats() {
  switches_.slots.assign(kInitialSlots, kEmptySlot);
  ports_.slots.assign(kInitialSlots, kEmptySlot);
}

std::uint64_t FlowStats::mix(Key key) { return sim::splitmix64(key); }

const FlowStats::Cell* FlowStats::find(const Table& t, Key key) {
  std::size_t i = static_cast<std::size_t>(mix(key)) & t.mask();
  while (t.slots[i] != kEmptySlot) {
    const Cell& cell = t.cells[t.slots[i]];
    if (cell.key == key) return &cell;
    i = (i + 1) & t.mask();
  }
  return nullptr;
}

void FlowStats::grow(Table& t) {
  t.slots.assign(t.slots.size() * 2, kEmptySlot);
  for (std::uint32_t c = 0; c < t.cells.size(); ++c) {
    std::size_t i = static_cast<std::size_t>(mix(t.cells[c].key)) & t.mask();
    while (t.slots[i] != kEmptySlot) i = (i + 1) & t.mask();
    t.slots[i] = c;
  }
}

FlowStats::Cell& FlowStats::upsert(Table& t, Key key) {
  std::size_t i = static_cast<std::size_t>(mix(key)) & t.mask();
  while (t.slots[i] != kEmptySlot) {
    Cell& cell = t.cells[t.slots[i]];
    if (cell.key == key) return cell;
    i = (i + 1) & t.mask();
  }
  // First sighting: append a cell, growing the index at 7/8 load.
  if ((t.cells.size() + 1) * 8 > t.slots.size() * 7) {
    grow(t);
    i = static_cast<std::size_t>(mix(key)) & t.mask();
    while (t.slots[i] != kEmptySlot) i = (i + 1) & t.mask();
  }
  t.slots[i] = static_cast<std::uint32_t>(t.cells.size());
  t.cells.push_back(Cell{});
  t.cells.back().key = key;
  return t.cells.back();
}

void FlowStats::record(Key switch_key, Key port_key, std::uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  const auto bump = [&](Cell& cell) {
    ++cell.packets;
    cell.bytes += bytes;
    cell.size.add(b);
  };
  bump(upsert(switches_, switch_key));
  bump(upsert(ports_, port_key));
  bump(total_);
}

std::vector<FlowStats::Cell> FlowStats::sorted(const Table& t) {
  std::vector<Cell> out = t.cells;
  std::sort(out.begin(), out.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });
  return out;
}

std::vector<FlowStats::Cell> FlowStats::switches_sorted() const {
  return sorted(switches_);
}

std::vector<FlowStats::Cell> FlowStats::ports_sorted() const {
  return sorted(ports_);
}

namespace {

void append_cell(std::string& out, const FlowStats::Cell& cell,
                 bool with_key) {
  char buf[224];
  if (with_key) {
    std::snprintf(buf, sizeof buf,
                  "{\"key\":%llu,\"packets\":%llu,\"bytes\":%llu,"
                  "\"mean\":%.3f,\"variance\":%.3f,\"min\":%.0f,"
                  "\"max\":%.0f}",
                  static_cast<unsigned long long>(cell.key),
                  static_cast<unsigned long long>(cell.packets),
                  static_cast<unsigned long long>(cell.bytes),
                  cell.size.mean, cell.size.variance(),
                  cell.packets ? cell.size.min_v : 0.0,
                  cell.packets ? cell.size.max_v : 0.0);
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"packets\":%llu,\"bytes\":%llu,\"mean\":%.3f,"
                  "\"variance\":%.3f,\"min\":%.0f,\"max\":%.0f}",
                  static_cast<unsigned long long>(cell.packets),
                  static_cast<unsigned long long>(cell.bytes),
                  cell.size.mean, cell.size.variance(),
                  cell.packets ? cell.size.min_v : 0.0,
                  cell.packets ? cell.size.max_v : 0.0);
  }
  out += buf;
}

void append_cells(std::string& out, const std::vector<FlowStats::Cell>& cells,
                  std::size_t max_cells) {
  const std::size_t n =
      max_cells == 0 ? cells.size() : std::min(cells.size(), max_cells);
  out += "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out += ",";
    append_cell(out, cells[i], /*with_key=*/true);
  }
  out += "]";
}

}  // namespace

std::string FlowStats::to_json(std::size_t max_cells) const {
  std::string out = "{\"total\":";
  append_cell(out, total_, /*with_key=*/false);
  out += ",\"switch_cells\":" + std::to_string(switches_.cells.size());
  out += ",\"port_cells\":" + std::to_string(ports_.cells.size());
  out += ",\"switches\":";
  append_cells(out, switches_sorted(), max_cells);
  out += ",\"ports\":";
  append_cells(out, ports_sorted(), max_cells);
  out += "}";
  return out;
}

void FlowStats::reset() {
  switches_.cells.clear();
  switches_.slots.assign(kInitialSlots, kEmptySlot);
  ports_.cells.clear();
  ports_.slots.assign(kInitialSlots, kEmptySlot);
  total_ = Cell{};
}

std::vector<std::string> FlowStats::audit() const {
  std::vector<std::string> issues;
  const auto check_table = [&](const Table& t, const char* label) {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    for (const Cell& cell : t.cells) {
      packets += cell.packets;
      bytes += cell.bytes;
      if (cell.packets == 0) {
        issues.push_back(std::string(label) + " cell " +
                         std::to_string(cell.key) + " recorded no packets");
      }
      if (cell.size.count != cell.packets) {
        issues.push_back(std::string(label) + " cell " +
                         std::to_string(cell.key) +
                         " moment count diverges from packet count");
      }
      if (find(t, cell.key) != &cell) {
        issues.push_back(std::string(label) + " cell " +
                         std::to_string(cell.key) +
                         " not reachable through the index table");
      }
    }
    if (packets != total_.packets || bytes != total_.bytes) {
      issues.push_back(std::string(label) +
                       " totals diverge from the stream total");
    }
    std::size_t used = 0;
    for (const std::uint32_t s : t.slots) {
      if (s == kEmptySlot) continue;
      ++used;
      if (s >= t.cells.size()) {
        issues.push_back(std::string(label) +
                         " index table points past the cell store");
      }
    }
    if (used != t.cells.size()) {
      issues.push_back(std::string(label) +
                       " index table entry count diverges from cell count");
    }
  };
  check_table(switches_, "switch");
  check_table(ports_, "port");
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::stats
