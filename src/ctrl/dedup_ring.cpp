#include "ctrl/dedup_ring.hpp"

#include <cassert>

#include "sim/rng.hpp"

namespace tmg::ctrl {

namespace {

constexpr std::size_t kInitialTableSize = 1024;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

DedupRing::DedupRing(std::size_t capacity)
    : capacity_{capacity == 0 ? 1 : capacity} {
  table_.resize(kInitialTableSize);
  ring_.reserve(64);
}

std::uint64_t DedupRing::mix(std::uint64_t x) {
  // SplitMix64: full-avalanche over sequential trace ids.
  return sim::splitmix64(x);
}

std::size_t DedupRing::find(std::uint64_t id) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix(id) & mask;
  while (true) {
    const Slot& s = table_[i];
    if (s.state == State::kEmpty) return npos;
    if (s.state == State::kFull && s.key == id) return s.pos;
    i = (i + 1) & mask;
  }
}

void DedupRing::insert(std::uint64_t id, std::size_t pos) {
  if ((used_ + 1) * 4 >= table_.size() * 3) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix(id) & mask;
  while (table_[i].state == State::kFull) i = (i + 1) & mask;
  if (table_[i].state == State::kEmpty) ++used_;  // tombstone reuse: no change
  table_[i] = Slot{id, static_cast<std::uint32_t>(pos), State::kFull};
  ++live_;
}

void DedupRing::erase(std::uint64_t id) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = mix(id) & mask;
  while (true) {
    Slot& s = table_[i];
    if (s.state == State::kEmpty) return;  // duplicate-evict no-op
    if (s.state == State::kFull && s.key == id) {
      s.state = State::kTombstone;
      --live_;
      return;
    }
    i = (i + 1) & mask;
  }
}

void DedupRing::grow() {
  // Rehash live entries into a table that keeps them under half full;
  // tombstones are dropped. Size is bounded by the fixed ring capacity,
  // so steady state performs no further allocation.
  std::vector<Slot> old = std::move(table_);
  table_.assign(next_pow2((live_ + 1) * 4), Slot{});
  used_ = 0;
  live_ = 0;
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.state != State::kFull) continue;
    std::size_t i = mix(s.key) & mask;
    while (table_[i].state == State::kFull) i = (i + 1) & mask;
    table_[i] = s;
    ++used_;
    ++live_;
  }
}

std::size_t DedupRing::push(std::uint64_t id) {
  assert(!contains(id));
  std::size_t pos;
  if (ring_.size() < capacity_) {
    pos = ring_.size();
    ring_.push_back(id);
  } else {
    pos = head_;
    erase(ring_[pos]);  // evict the oldest id
    ring_[pos] = id;
    head_ = (head_ + 1) % capacity_;
  }
  insert(id, pos);
  return pos;
}

}  // namespace tmg::ctrl
