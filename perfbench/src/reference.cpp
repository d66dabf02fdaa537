// The reference kernel behind HostSpeed: a fixed amount of the kind of
// work the simulator does -- a time-ordered heap of std::function
// callbacks, each looking up, creating or dropping shared objects in a
// hash table, all through malloc -- written here so that no change to
// the simulator can change its cost. Deterministic: the same work on
// every call. Prototypes showed that the malloc traffic matters: a
// variant on a private memory pool barely slowed when the simulator
// slowed by half.
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::uint64_t reference_kernel() {
  constexpr std::uint64_t kKeys = 2048;
  constexpr std::uint64_t kEvents = 20000;
  constexpr int kPending = 256;

  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Object {
    std::uint64_t key;
    std::uint64_t value;
    std::vector<std::uint32_t> tags;
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap;
  std::unordered_map<std::uint64_t, std::shared_ptr<Object>> table;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  std::uint64_t sum = 0, seq = 0, now = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void()> step = [&] {
    const std::uint64_t key = next() % kKeys;
    if (const auto it = table.find(key); it == table.end()) {
      auto object = std::make_shared<Object>();
      object->key = key;
      object->value = x;
      object->tags.assign(1 + x % 7, 3);
      table.emplace(key, std::move(object));
    } else {
      const std::shared_ptr<Object> held = it->second;
      sum += held->key + held->tags.size();
      if ((x & 1U) != 0) table.erase(it);
    }
    if (seq < kEvents) heap.push({now + next() % 1000, seq++, step});
  };
  for (int i = 0; i < kPending; ++i) heap.push({next() % 1000, seq++, step});
  while (!heap.empty()) {
    const Event e = heap.top();
    heap.pop();
    now = e.at;
    e.fn();
  }
  return sum + table.size();
}

void HostSpeed::probe() {
  // On a short-lived thread of its own (the process's CPU pin applies to
  // it too) while this one waits: glibc gives it a malloc arena of its
  // own, reused by every probe, so the kernel neither depends on how the
  // simulator left the heap nor moves the peak resident set from run to
  // run.
  double ms = 0.0;
  std::uint64_t sum = 0;
  std::thread worker{[&] {
    const double t0 = now_s();
    sum = reference_kernel();
    ms = (now_s() - t0) * 1e3;
  }};
  worker.join();
  checksum_ += sum;
  last_s_ = now_s();
  all_ms_.push_back(ms);
}

}  // namespace perfbench
