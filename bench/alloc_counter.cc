#include "bench/alloc_counter.h"

#include <stdlib.h>

#include <atomic>
#include <new>

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace sigmund::bench {

int64_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace sigmund::bench

// The unaligned forms only: nothing counted here uses over-aligned types,
// and the library's aligned operator new keeps its own allocator, paired
// with its own aligned delete.
void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { free(p); }
void operator delete[](void* p) noexcept { free(p); }
void operator delete(void* p, size_t) noexcept { free(p); }
void operator delete[](void* p, size_t) noexcept { free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { free(p); }
