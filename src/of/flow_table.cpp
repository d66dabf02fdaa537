#include "of/flow_table.hpp"

#include <algorithm>

namespace tmg::of {

namespace {

/// The match explicitly pins the LLDP ethertype (override-path gate).
bool pins_lldp(const FlowMatch& m) {
  return m.ethertype.has_value() && *m.ethertype == net::EtherType::Lldp;
}

}  // namespace

std::optional<sim::SimTime> FlowTable::deadline_of(const FlowEntry& e) {
  std::optional<sim::SimTime> d;
  if (e.hard_timeout > sim::Duration::zero()) {
    d = e.installed_at + e.hard_timeout;
  }
  if (e.idle_timeout > sim::Duration::zero()) {
    const sim::SimTime idle_at = e.last_matched_at + e.idle_timeout;
    if (!d || idle_at < *d) d = idle_at;
  }
  return d;
}

void FlowTable::push_deadline(const FlowEntry& e, std::uint64_t id) {
  if (const auto d = deadline_of(e)) {
    expiry_heap_.push_back(HeapItem{*d, id});
    std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), HeapLater{});
  }
}

std::size_t FlowTable::pos_of(std::uint64_t id) const {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) return i;
  }
  return npos;
}

std::uint32_t FlowTable::intern_bucket(const FlowMatch& match) {
  if (!match.dst_mac) return kWildcardBucket;
  const auto [it, inserted] = bucket_of_.try_emplace(
      *match.dst_mac, static_cast<std::uint32_t>(bucket_of_.size() + 1));
  (void)inserted;
  return it->second;
}

void FlowTable::ensure_index() const {
  if (!index_dirty_) return;
  // Every slot already knows its bucket number, so the rebuild is pure
  // array traffic — no per-entry hashing (this runs after every
  // structural change, between bursts of per-packet lookups).
  buckets_.resize(bucket_of_.size() + 1);
  for (auto& bucket : buckets_) bucket.clear();
  for (std::size_t i = 0; i < bucket_no_.size(); ++i) {
    buckets_[bucket_no_[i]].push_back(static_cast<std::uint32_t>(i));
  }
  index_dirty_ = false;
}

void FlowTable::add(FlowEntry entry, sim::SimTime now) {
  entry.installed_at = now;
  entry.last_matched_at = now;
  // Replacements pair on an equal match, so the gate only moves on
  // a genuine insert.
  const bool lldp = pins_lldp(entry.match);
  // Replacement candidates share the entry's dst key, so only that
  // bucket needs scanning. The (match, priority) pair is unique in the
  // table, so "any hit" == "first hit" of the linear scan.
  ensure_index();
  const auto scan_replace = [&](const std::vector<std::uint32_t>& bucket) {
    for (const std::uint32_t pos : bucket) {
      FlowEntry& e = entries_[pos];
      if (e.priority == entry.priority && e.match == entry.match) {
        e = entry;
        // Same position and dst key: the index is untouched. The new
        // timeouts may be shorter than the old heap deadline, so cover
        // them with a fresh heap entry (the stale one dies lazily).
        push_deadline(e, ids_[pos]);
        return true;
      }
    }
    return false;
  };
  if (entry.match.dst_mac) {
    if (const auto it = bucket_of_.find(*entry.match.dst_mac);
        it != bucket_of_.end() && scan_replace(buckets_[it->second])) {
      return;
    }
  } else if (scan_replace(buckets_[kWildcardBucket])) {
    return;
  }

  const auto pos = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const FlowEntry& e) { return e.priority < entry.priority; });
  const std::uint64_t id = next_id_++;
  push_deadline(entry, id);
  const auto offset = pos - entries_.begin();
  ids_.insert(ids_.begin() + offset, id);
  bucket_no_.insert(bucket_no_.begin() + offset, intern_bucket(entry.match));
  entries_.insert(pos, std::move(entry));
  if (lldp) ++lldp_rules_;
  index_dirty_ = true;
}

FlowEntry* FlowTable::lookup_lldp_override(const net::Packet& pkt,
                                           PortNo in_port, sim::SimTime now) {
  if (lldp_rules_ == 0) return nullptr;
  // Linear in priority order: override rules are an attack-path rarity,
  // so this never needs (and must not perturb) the dst-MAC fast path —
  // LLDP multicast frames have no bucket of their own.
  for (auto& e : entries_) {
    if (!pins_lldp(e.match)) continue;
    if (!e.match.matches(pkt, in_port)) continue;
    ++e.packet_count;
    e.byte_count += pkt.wire_size();
    e.last_matched_at = now;  // idle deadline moves later; heap is lazy
    return &e;
  }
  return nullptr;
}

std::vector<FlowEntry> FlowTable::remove_matching(const FlowMatch& match) {
  std::vector<FlowEntry> removed;
  // Exact-match removal: every victim lives in the bucket keyed by
  // match.dst_mac (ascending positions == table order).
  ensure_index();
  const std::vector<std::uint32_t>* bucket = &buckets_[kWildcardBucket];
  if (match.dst_mac) {
    const auto it = bucket_of_.find(*match.dst_mac);
    if (it == bucket_of_.end()) return removed;
    bucket = &buckets_[it->second];
  }
  std::vector<std::uint32_t> victims;
  for (const std::uint32_t pos : *bucket) {
    if (entries_[pos].match == match) victims.push_back(pos);
  }
  if (victims.empty()) return removed;
  removed.reserve(victims.size());
  for (const std::uint32_t pos : victims) removed.push_back(entries_[pos]);
  // Batch-erase the victim positions (ascending), compacting in place.
  std::size_t out = 0;
  std::size_t next_victim = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (next_victim < victims.size() && victims[next_victim] == i) {
      ++next_victim;
      continue;
    }
    if (out != i) {
      entries_[out] = std::move(entries_[i]);
      ids_[out] = ids_[i];
      bucket_no_[out] = bucket_no_[i];
    }
    ++out;
  }
  entries_.resize(out);
  ids_.resize(out);
  bucket_no_.resize(out);
  if (pins_lldp(match)) lldp_rules_ -= removed.size();
  index_dirty_ = true;
  return removed;
}

FlowEntry* FlowTable::lookup(const net::Packet& pkt, PortNo in_port,
                             sim::SimTime now) {
  const auto hit = [&](FlowEntry& e) {
    ++e.packet_count;
    e.byte_count += pkt.wire_size();
    e.last_matched_at = now;  // idle deadline moves later; heap is lazy
    return &e;
  };
  // Merge-walk the packet's dst bucket and the wildcard bucket in
  // ascending position order. Entries in other dst buckets require
  // match.dst_mac == their key != pkt.dst_mac, so the linear scan would
  // reject them anyway: the walk tests the same candidates in the same
  // order as the full scan.
  ensure_index();
  static const std::vector<std::uint32_t> kEmpty;
  const std::vector<std::uint32_t>* bucket = &kEmpty;
  if (const auto it = bucket_of_.find(pkt.dst_mac); it != bucket_of_.end()) {
    bucket = &buckets_[it->second];
  }
  const std::vector<std::uint32_t>& wildcard = buckets_[kWildcardBucket];
  std::size_t bi = 0;
  std::size_t wi = 0;
  while (bi < bucket->size() || wi < wildcard.size()) {
    std::uint32_t pos;
    if (wi >= wildcard.size() ||
        (bi < bucket->size() && (*bucket)[bi] < wildcard[wi])) {
      pos = (*bucket)[bi++];
    } else {
      pos = wildcard[wi++];
    }
    FlowEntry& e = entries_[pos];
    if (e.match.matches(pkt, in_port)) return hit(e);
  }
  return nullptr;
}

std::vector<ExpiredEntry> FlowTable::expire(sim::SimTime now) {
  std::vector<ExpiredEntry> expired;
  const auto reason_for = [&](const FlowEntry& e) {
    const bool hard = e.hard_timeout > sim::Duration::zero() &&
                      now - e.installed_at >= e.hard_timeout;
    return hard ? FlowRemoved::Reason::HardTimeout
                : FlowRemoved::Reason::IdleTimeout;
  };
  // Drain heap items due at or before `now`; each is a lower bound, so
  // re-check the live entry's true deadline and re-push survivors.
  std::vector<std::uint32_t> victims;
  while (!expiry_heap_.empty() && expiry_heap_.front().at <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), HeapLater{});
    const HeapItem item = expiry_heap_.back();
    expiry_heap_.pop_back();
    const std::size_t pos = pos_of(item.id);
    if (pos == npos) continue;  // stale: entry already removed
    const auto d = deadline_of(entries_[pos]);
    if (!d) continue;  // stale: replaced by a timeout-free entry
    if (*d <= now) {
      victims.push_back(static_cast<std::uint32_t>(pos));
    } else {
      expiry_heap_.push_back(HeapItem{*d, item.id});
      std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), HeapLater{});
    }
  }
  if (victims.empty()) return expired;
  // Duplicate heap items can nominate a position twice; the linear scan
  // removes in ascending table order.
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  expired.reserve(victims.size());
  for (const std::uint32_t pos : victims) {
    if (pins_lldp(entries_[pos].match)) --lldp_rules_;
    expired.push_back(ExpiredEntry{entries_[pos], reason_for(entries_[pos])});
  }
  std::size_t out = 0;
  std::size_t next_victim = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (next_victim < victims.size() && victims[next_victim] == i) {
      ++next_victim;
      continue;
    }
    if (out != i) {
      entries_[out] = std::move(entries_[i]);
      ids_[out] = ids_[i];
      bucket_no_[out] = bucket_no_[i];
    }
    ++out;
  }
  entries_.resize(out);
  ids_.resize(out);
  bucket_no_.resize(out);
  index_dirty_ = true;
  return expired;
}

void FlowTable::clear() {
  entries_.clear();
  lldp_rules_ = 0;
  ids_.clear();
  expiry_heap_.clear();
  bucket_of_.clear();
  bucket_no_.clear();
  buckets_.clear();
  index_dirty_ = true;
}

std::vector<std::string> FlowTable::audit() const {
  std::vector<std::string> issues;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i - 1].priority < entries_[i].priority) {
      issues.push_back("flow table not priority-sorted at position " +
                       std::to_string(i));
    }
  }
  const std::size_t lldp_actual = static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const FlowEntry& e) { return pins_lldp(e.match); }));
  if (lldp_actual != lldp_rules_) {
    issues.push_back("lldp rule gate " + std::to_string(lldp_rules_) +
                     " != recount " + std::to_string(lldp_actual));
  }
  if (ids_.size() != entries_.size()) {
    issues.push_back("id column size " + std::to_string(ids_.size()) +
                     " != table size " + std::to_string(entries_.size()));
  }
  if (bucket_no_.size() != entries_.size()) {
    issues.push_back("bucket column size " +
                     std::to_string(bucket_no_.size()) + " != table size " +
                     std::to_string(entries_.size()));
  }
  // Bucket-number column: each slot must carry the interned number of
  // its own dst key (what makes the hash-free rebuild file it right).
  for (std::size_t i = 0;
       i < entries_.size() && i < bucket_no_.size(); ++i) {
    std::uint32_t want = kWildcardBucket;
    if (entries_[i].match.dst_mac) {
      const auto it = bucket_of_.find(*entries_[i].match.dst_mac);
      want = it == bucket_of_.end() ? static_cast<std::uint32_t>(-1)
                                    : it->second;
    }
    if (bucket_no_[i] != want) {
      issues.push_back("position " + std::to_string(i) +
                       " carries bucket number " +
                       std::to_string(bucket_no_[i]) + " but its dst key " +
                       "interns to " + std::to_string(want));
    }
  }
  // Index partition: every position exactly once, ascending within its
  // bucket, filed under its own bucket number. This is precisely what
  // makes the merge-walk lookup visit the linear scan's candidates in
  // order.
  ensure_index();
  std::vector<std::size_t> seen(entries_.size(), 0);
  for (std::size_t k = 0; k < buckets_.size(); ++k) {
    const std::vector<std::uint32_t>& bucket = buckets_[k];
    const std::string label = std::to_string(k);
    for (std::size_t j = 0; j < bucket.size(); ++j) {
      const std::uint32_t pos = bucket[j];
      if (pos >= entries_.size()) {
        issues.push_back("index bucket " + label +
                         " holds out-of-range position " +
                         std::to_string(pos));
        continue;
      }
      ++seen[pos];
      if (j > 0 && bucket[j - 1] >= pos) {
        issues.push_back("index bucket " + label +
                         " not strictly ascending at position " +
                         std::to_string(pos));
      }
      if (pos < bucket_no_.size() && bucket_no_[pos] != k) {
        issues.push_back("index bucket " + label +
                         " misfiles entry at position " +
                         std::to_string(pos));
      }
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] != 1) {
      issues.push_back("position " + std::to_string(i) + " indexed " +
                       std::to_string(seen[i]) + " times (expected 1)");
    }
  }
  // Heap coverage: every live entry with a timeout must have a heap item
  // no later than its true deadline (the lower-bound invariant that
  // makes heap expiry equal linear expiry).
  for (std::size_t i = 0; i < entries_.size() && i < ids_.size(); ++i) {
    const auto d = deadline_of(entries_[i]);
    if (!d) continue;
    bool covered = false;
    for (const HeapItem& item : expiry_heap_) {
      if (item.id == ids_[i] && item.at <= *d) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      issues.push_back("entry at position " + std::to_string(i) +
                       " has deadline but no covering heap item");
    }
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace tmg::of
