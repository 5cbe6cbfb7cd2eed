#ifndef SIGMUND_BENCH_ALLOC_COUNTER_H_
#define SIGMUND_BENCH_ALLOC_COUNTER_H_

#include <stdint.h>

namespace sigmund::bench {

// Heap allocations made through global operator new, on every thread,
// since the process started. Linking the sigmund_alloc_counter library
// replaces operator new/delete for the whole binary, so link it only into
// binaries that count allocations (e25_compute, trainer_kernel_test).
int64_t HeapAllocations();

}  // namespace sigmund::bench

#endif  // SIGMUND_BENCH_ALLOC_COUNTER_H_
