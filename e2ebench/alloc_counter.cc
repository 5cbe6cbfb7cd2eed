#include "alloc_counter.h"

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <new>

#include "common/clock.h"

namespace {

// One padded counter per thread, so counting threads never share a cache
// line. Slots are handed out on a thread's first counted allocation and
// never reused; threads beyond kMaxSlots share the last one.
constexpr int kMaxSlots = 1 << 15;
struct alignas(64) Slot {
  std::atomic<int64_t> allocs{0};
};
Slot g_slots[kMaxSlots];
std::atomic<int> g_slots_used{0};
std::atomic<bool> g_counting{false};
thread_local Slot* t_slot = nullptr;

inline void CountOne() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const int i = g_slots_used.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kMaxSlots ? i : kMaxSlots - 1];
  }
  t_slot->allocs.fetch_add(1, std::memory_order_relaxed);
}

void* CountedAlloc(size_t size) {
  CountOne();
  void* p = malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  CountOne();
  void* p = nullptr;
  const size_t alignment =
      std::max(sizeof(void*), static_cast<size_t>(align));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  CountOne();
  return malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  CountOne();
  return malloc(size == 0 ? 1 : size);
}
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { free(p); }
void operator delete[](void* p) noexcept { free(p); }
void operator delete(void* p, size_t) noexcept { free(p); }
void operator delete[](void* p, size_t) noexcept { free(p); }
void operator delete(void* p, std::align_val_t) noexcept { free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  free(p);
}

namespace e2ebench {

void EnableAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
int64_t GlobalAllocs() {
  const int used = std::min(g_slots_used.load(std::memory_order_relaxed),
                            kMaxSlots);
  int64_t total = 0;
  for (int i = 0; i < used; ++i) {
    total += g_slots[i].allocs.load(std::memory_order_relaxed);
  }
  return total;
}
int64_t ThreadAllocs() {
  return t_slot == nullptr ? 0
                           : t_slot->allocs.load(std::memory_order_relaxed);
}

namespace {
// One sample per millisecond for up to ten minutes.
constexpr size_t kMaxSamples = 600000;
}  // namespace

AllocTimeline::AllocTimeline() {
  samples_.resize(kMaxSamples);
  sampler_ = std::thread([this] {
    const sigmund::RealClock* clock = sigmund::RealClock::Get();
    while (!stop_.load(std::memory_order_relaxed)) {
      const size_t n = size_.load(std::memory_order_relaxed);
      if (n < kMaxSamples) {
        samples_[n] = {clock->NowMicros(), GlobalAllocs()};
        size_.store(n + 1, std::memory_order_release);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

AllocTimeline::~AllocTimeline() {
  stop_.store(true);
  sampler_.join();
}

double AllocTimeline::CountAt(int64_t micros) const {
  const size_t n = size_.load(std::memory_order_acquire);
  if (n == 0) return 0.0;
  auto begin = samples_.begin();
  auto end = samples_.begin() + static_cast<ptrdiff_t>(n);
  auto after = std::lower_bound(
      begin, end, micros,
      [](const std::pair<int64_t, int64_t>& s, int64_t t) {
        return s.first < t;
      });
  if (after == begin) return static_cast<double>(begin->second);
  if (after == end) return static_cast<double>((end - 1)->second);
  const auto& lo = *(after - 1);
  const auto& hi = *after;
  const double f = hi.first == lo.first
                       ? 1.0
                       : static_cast<double>(micros - lo.first) /
                             static_cast<double>(hi.first - lo.first);
  return static_cast<double>(lo.second) +
         f * static_cast<double>(hi.second - lo.second);
}

double AllocTimeline::AllocsBetween(int64_t start_micros,
                                    int64_t end_micros) const {
  return CountAt(end_micros) - CountAt(start_micros);
}

}  // namespace e2ebench
