#ifndef SIGMUND_E2EBENCH_ALLOC_COUNTER_H_
#define SIGMUND_E2EBENCH_ALLOC_COUNTER_H_

#include <stdint.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

// Heap-allocation counter built on a replaced global operator new (see
// alloc_counter.cc). Counting is off until EnableAllocCounting(true), so
// untraced runs pay one relaxed load per allocation and nothing more.
namespace e2ebench {

void EnableAllocCounting(bool on);
// Allocations counted on every thread since start-up.
int64_t GlobalAllocs();
// Allocations counted on the calling thread since it started.
int64_t ThreadAllocs();

// Samples (RealClock micros, GlobalAllocs()) every millisecond on a
// background thread, so the allocations made inside a time window that
// is only known afterwards (a tracer span) can be read back.
class AllocTimeline {
 public:
  AllocTimeline();
  ~AllocTimeline();
  AllocTimeline(const AllocTimeline&) = delete;
  AllocTimeline& operator=(const AllocTimeline&) = delete;

  // Allocations counted between the two RealClock instants, interpolated
  // linearly between the samples around each end.
  double AllocsBetween(int64_t start_micros, int64_t end_micros) const;

 private:
  double CountAt(int64_t micros) const;

  std::atomic<bool> stop_{false};
  std::thread sampler_;
  // Written only by the sampler; read after it is joined or under the
  // guarantee that readers ask about windows that ended before reading.
  mutable std::atomic<size_t> size_{0};
  std::vector<std::pair<int64_t, int64_t>> samples_;
};

}  // namespace e2ebench

#endif  // SIGMUND_E2EBENCH_ALLOC_COUNTER_H_
