// Counting global operator new for the benchmark binary, plus peak RSS.
//
// Every allocation of the process goes through here. While counting is on,
// each one is added to the process total, and also to the bridge total when
// the allocating thread is inside a BridgeScope (a bridge upcall or task,
// entered by the timing decorator). Counts are relaxed atomics: the live
// workload allocates from two threads.
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.hpp"

namespace perfbench {
namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gTotalCount{0};
std::atomic<std::uint64_t> gTotalBytes{0};
std::atomic<std::uint64_t> gBridgeCount{0};
std::atomic<std::uint64_t> gBridgeBytes{0};
thread_local int tBridgeDepth = 0;
thread_local int tPaused = 0;

void note(std::size_t size) {
    if (!gCounting.load(std::memory_order_relaxed) || tPaused != 0) return;
    gTotalCount.fetch_add(1, std::memory_order_relaxed);
    gTotalBytes.fetch_add(size, std::memory_order_relaxed);
    if (tBridgeDepth > 0) {
        gBridgeCount.fetch_add(1, std::memory_order_relaxed);
        gBridgeBytes.fetch_add(size, std::memory_order_relaxed);
    }
}

void* allocate(std::size_t size) {
    note(size);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* allocateAligned(std::size_t size, std::align_val_t align) {
    note(size);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void setAllocCounting(bool on) { gCounting.store(on, std::memory_order_relaxed); }

AllocCounts allocTotal() {
    return {gTotalCount.load(std::memory_order_relaxed),
            gTotalBytes.load(std::memory_order_relaxed)};
}

AllocCounts allocBridge() {
    return {gBridgeCount.load(std::memory_order_relaxed),
            gBridgeBytes.load(std::memory_order_relaxed)};
}

BridgeScope::BridgeScope() : outer_(tBridgeDepth == 0) { ++tBridgeDepth; }
BridgeScope::~BridgeScope() { --tBridgeDepth; }

AllocPause::AllocPause() { ++tPaused; }
AllocPause::~AllocPause() { --tPaused; }

double peakRssMib() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return perfbench::allocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return perfbench::allocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
