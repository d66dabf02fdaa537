#include "ctrl/host_table.hpp"

#include <algorithm>

#include "sim/rng.hpp"

namespace tmg::ctrl {

HostTable::HostTable() : slots_(kInitialSlots), used_(kInitialSlots, 0) {}

std::uint64_t HostTable::mix(net::MacAddress mac) {
  return sim::splitmix64(mac.to_u64());
}

std::size_t HostTable::probe(net::MacAddress mac) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix(mac)) & mask;
  while (used_[i] != 0 && slots_[i].mac != mac) i = (i + 1) & mask;
  return i;
}

void HostTable::grow() {
  std::vector<HostRecord> old_slots(slots_.size() * 2);
  std::vector<std::uint8_t> old_used(used_.size() * 2, 0);
  old_slots.swap(slots_);
  old_used.swap(used_);
  for (std::size_t i = 0; i < old_slots.size(); ++i) {
    if (old_used[i] == 0) continue;
    const std::size_t j = probe(old_slots[i].mac);
    slots_[j] = old_slots[i];
    used_[j] = 1;
  }
}

HostRecord* HostTable::find(net::MacAddress mac) {
  const std::size_t i = probe(mac);
  return used_[i] != 0 ? &slots_[i] : nullptr;
}

const HostRecord* HostTable::find(net::MacAddress mac) const {
  return const_cast<HostTable*>(this)->find(mac);
}

HostRecord& HostTable::insert(const HostRecord& rec) {
  // Grow at 7/8 load so probe runs stay short; records are copied to
  // their new slots, so this is the only allocating path.
  if ((size_ + 1) * 8 > slots_.size() * 7) grow();
  const std::size_t i = probe(rec.mac);
  if (used_[i] == 0) {
    used_[i] = 1;
    ++size_;
  }
  slots_[i] = rec;
  return slots_[i];
}

std::vector<HostRecord> HostTable::sorted() const {
  std::vector<HostRecord> out;
  out.reserve(size_);
  for_each([&](const HostRecord& rec) { out.push_back(rec); });
  std::sort(out.begin(), out.end(), [](const HostRecord& a,
                                       const HostRecord& b) {
    return a.mac < b.mac;
  });
  return out;
}

std::vector<std::string> HostTable::audit() const {
  std::vector<std::string> issues;
  if (slots_.size() != used_.size() ||
      (slots_.size() & (slots_.size() - 1)) != 0) {
    return {"capacity is not a power of two"};
  }
  if (size_ * 8 > slots_.size() * 7) {
    issues.push_back("table exceeds the 7/8 load bound");
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (used_[i] == 0) continue;
    ++occupied;
    // Linear probing invariant: the walk from the record's home slot to
    // its actual slot must cross no empty slot, or find() would stop
    // short and miss it.
    const HostRecord& rec = slots_[i];
    for (std::size_t j = static_cast<std::size_t>(mix(rec.mac)) & mask;
         j != i; j = (j + 1) & mask) {
      if (used_[j] == 0) {
        issues.push_back("record " + rec.mac.to_string() +
                         " unreachable: empty slot inside its probe run");
        break;
      }
    }
  }
  if (occupied != size_) {
    issues.push_back("table size " + std::to_string(size_) +
                     " != occupied slots " + std::to_string(occupied));
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::ctrl
