// Counting global operator new for tests that pin allocation counts.
//
// Linking tests/alloc_counter.cpp into a test binary replaces operator
// new/delete for the whole binary (the idiom of bench/capacity_sweep.cpp), so
// a test can read how many allocations a stretch of code made. Counts are
// relaxed atomics, shared by every thread of the process.
#pragma once

#include <cstdint>

namespace starlink::testing {

/// Successful operator new calls so far in this process.
std::uint64_t allocCalls();

}  // namespace starlink::testing
