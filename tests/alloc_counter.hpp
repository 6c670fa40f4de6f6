// Counting global operator new for tests that pin allocation counts.
//
// Linking tests/alloc_counter.cpp into a binary replaces operator new/delete
// for the whole binary, so a test or bench (bench/capacity_sweep.cpp) can read
// how many allocations, and how many bytes, a stretch of code asked for.
// Counts are relaxed atomics, shared by every thread of the process.
#pragma once

#include <cstdint>

namespace starlink::testing {

/// Successful operator new calls so far in this process.
std::uint64_t allocCalls();

/// Bytes requested by those calls.
std::uint64_t allocBytes();

}  // namespace starlink::testing
