#include "sim/event_loop.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace tmg::sim {

void TimerHandle::cancel() {
  if (!state_ || state_->cancelled || state_->fired) return;
  state_->cancelled = true;
  if (state_->cancelled_in_queue) ++*state_->cancelled_in_queue;
}

bool TimerHandle::pending() const {
  return state_ && !state_->cancelled && !state_->fired;
}

EventLoop::EventLoop()
    : cancelled_in_queue_{std::make_shared<std::size_t>(0)} {}

void EventLoop::add_chunk() {
  chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  Slot* chunk = chunks_.back().get();
  for (std::size_t i = kSlotsPerChunk; i-- > 0;) release(chunk[i]);
}

TimerHandle EventLoop::enqueue_cancellable(SimTime at, Slot& slot) {
  auto state = std::make_shared<TimerHandle::State>();
  state->cancelled_in_queue = cancelled_in_queue_;
  slot.state = state;
  enqueue(at, slot);
  return TimerHandle{std::move(state)};
}

void EventLoop::set_post_event_hook(std::uint64_t every_n,
                                    std::function<void()> hook) {
  post_event_hook_ = std::move(hook);
  post_event_every_ = post_event_hook_ ? (every_n == 0 ? 1 : every_n) : 0;
}

void EventLoop::drain(std::vector<Entry>& bucket) {
  if (bucket.capacity() > kBucketKeepCapacity) {
    std::vector<Entry>{}.swap(bucket);
  } else {
    bucket.clear();
  }
}

void EventLoop::rebase(std::uint64_t t) {
  // Every queued key k >= base_ > t. Where k's highest bit differing
  // from base_ lies above h (the highest bit where base_ and t differ),
  // it is also k's highest bit differing from t: the bucket holds. Any
  // other k agrees with base_ from bit h up, so it differs from t first
  // at h and moves to bucket h + 1, which no entry could occupy before
  // (that would put k below base_).
  const auto up = static_cast<unsigned>(std::bit_width(base_ ^ t));
  std::vector<Entry>& dst = buckets_[up];
  std::vector<Entry>& ready = buckets_[0];
  dst.insert(dst.end(), ready.begin() + static_cast<std::ptrdiff_t>(head_),
             ready.end());
  drain(ready);
  head_ = 0;
  for (unsigned b = 1; b < up; ++b) {
    if ((occupied_ >> b & 1U) == 0) continue;
    dst.insert(dst.end(), buckets_[b].begin(), buckets_[b].end());
    drain(buckets_[b]);
  }
  occupied_ &= ~((std::uint64_t{1} << up) - 1);
  if (!dst.empty()) occupied_ |= std::uint64_t{1} << up;
  base_ = t;
}

void EventLoop::refill() {
  assert(size_ != 0 && (occupied_ & ~std::uint64_t{1}) != 0);
  drain(buckets_[0]);
  head_ = 0;
  const auto from =
      static_cast<unsigned>(std::countr_zero(occupied_ & ~std::uint64_t{1}));
  std::vector<Entry>& src = buckets_[from];
  std::uint64_t lowest = key(src.front().at);
  for (const Entry& e : src) lowest = std::min(lowest, key(e.at));
  base_ = lowest;
  // Each entry agrees with the new base above bit from-1, so it lands
  // in a lower bucket; the buckets above keep their entries.
  for (const Entry& e : src) {
    const auto b = static_cast<unsigned>(std::bit_width(key(e.at) ^ base_));
    buckets_[b].push_back(e);
    occupied_ |= std::uint64_t{1} << b;
  }
  drain(src);
  occupied_ &= ~(std::uint64_t{1} << from);
}

void EventLoop::pop_front() {
  --size_;
  if (++head_ == buckets_[0].size()) {
    drain(buckets_[0]);
    head_ = 0;
  }
}

void EventLoop::compact() {
  std::vector<Entry>& ready = buckets_[0];
  ready.erase(ready.begin(),
              ready.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  const auto cancelled = [this](const Entry& e) {
    if (!e.slot->state || !e.slot->state->cancelled) return false;
    e.slot->fn.reset();
    release(*e.slot);
    return true;
  };
  size_ = 0;
  for (unsigned b = 0; b < buckets_.size(); ++b) {
    if (b != 0 && (occupied_ >> b & 1U) == 0) continue;
    std::vector<Entry>& bucket = buckets_[b];
    std::erase_if(bucket, cancelled);
    size_ += bucket.size();
    if (bucket.empty()) {
      drain(bucket);
      occupied_ &= ~(std::uint64_t{1} << b);
    }
  }
  *cancelled_in_queue_ = 0;
}

bool EventLoop::step() {
  if (size_ >= kMinQueueForCompaction && *cancelled_in_queue_ * 2 >= size_) {
    compact();
  }
  while (size_ != 0) {
    const Entry entry = front();
    pop_front();
    Slot& slot = *entry.slot;
    if (slot.state) {
      if (slot.state->cancelled) {
        --*cancelled_in_queue_;
        slot.fn.reset();
        release(slot);
        continue;
      }
      slot.state->fired = true;
    }
    const SimTime before = now_;
    now_ = entry.at;
    ++executed_;
    // The slot stays taken while its callback runs, so the events it
    // schedules go to other slots and this one never moves.
    slot.fn.consume();
    release(slot);
    if (probe_ != nullptr) {
      probe_->on_event_executed(now_, entry.at - before, live_events());
    }
    if (post_event_every_ != 0 && executed_ % post_event_every_ == 0) {
      post_event_hook_();
    }
    return true;
  }
  return false;
}

void EventLoop::run_until(SimTime deadline) {
  while (size_ != 0) {
    // Looking at the next event may refill bucket 0 and raise base_ past
    // the deadline; push() rebases for a later post below it.
    const Entry& next = front();
    // Skip cancelled entries without advancing the clock.
    if (next.slot->state && next.slot->state->cancelled) {
      Slot& slot = *next.slot;
      pop_front();
      --*cancelled_in_queue_;
      slot.fn.reset();
      release(slot);
      continue;
    }
    if (next.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void EventLoop::run() {
  while (step()) {
  }
}

void EventLoop::reset() {
  // Destroy every callback still held — queued, or kept by an event
  // that threw — and relink every slot, keeping the chunks. A queued
  // schedule_* event's handle is marked cancelled, so it stops reporting
  // pending() for an event that will never fire.
  free_head_ = nullptr;
  for (auto chunk = chunks_.rbegin(); chunk != chunks_.rend(); ++chunk) {
    for (std::size_t i = kSlotsPerChunk; i-- > 0;) {
      Slot& slot = (*chunk)[i];
      if (slot.state) slot.state->cancelled = true;
      slot.fn.reset();
      release(slot);
    }
  }
  for (std::vector<Entry>& bucket : buckets_) drain(bucket);
  head_ = 0;
  occupied_ = 0;
  base_ = 0;
  size_ = 0;
  now_ = SimTime::zero();
  executed_ = 0;
  // A fresh counter, not a zeroed one: TimerHandles from before the
  // reset still share the old counter, and a late cancel() through one
  // of them must not skew live_events() of the new epoch.
  cancelled_in_queue_ = std::make_shared<std::size_t>(0);
  post_event_hook_ = nullptr;
  post_event_every_ = 0;
  probe_ = nullptr;
}

}  // namespace tmg::sim
