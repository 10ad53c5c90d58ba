#ifndef BANKS_BENCH_BENCH_ALLOC_H_
#define BANKS_BENCH_BENCH_ALLOC_H_

#include <cstdint>

namespace banks::bench {

/// Process-wide heap allocation counters, fed by a counting global
/// `operator new` compiled into bench_common when the CMake option
/// BANKS_BENCH_ALLOC_COUNT is ON (the default). With the option OFF the
/// override is compiled out and the counters stay at zero — benches
/// should gate allocation reporting on AllocCounterEnabled().
///
/// Counting is a pair of relaxed atomic increments per allocation:
/// cheap enough to leave on for timing runs, and thread-safe so
/// allocations on any thread (micro_update's writer, say) are counted.
struct AllocCounts {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

/// Snapshot of the counters since process start. Subtract two snapshots
/// to charge a region: `auto a = CurrentAllocCounts(); ...;
/// auto delta = CurrentAllocCounts().count - a.count;`
AllocCounts CurrentAllocCounts();

/// True when the counting operator new override is compiled in.
bool AllocCounterEnabled();

}  // namespace banks::bench

#endif  // BANKS_BENCH_BENCH_ALLOC_H_
