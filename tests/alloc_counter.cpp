#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocCalls{0};
std::atomic<std::uint64_t> g_allocBytes{0};

// noinline keeps GCC from pairing the malloc/free behind the replacement
// operators at inlined call sites (-Wmismatched-new-delete false positive).
[[gnu::noinline]] void* countedAlloc(std::size_t size) noexcept {
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p != nullptr) {
        g_allocCalls.fetch_add(1, std::memory_order_relaxed);
        g_allocBytes.fetch_add(size, std::memory_order_relaxed);
    }
    return p;
}

[[gnu::noinline]] void countedFree(void* p) noexcept { std::free(p); }
}  // namespace

std::uint64_t starlink::testing::allocCalls() {
    return g_allocCalls.load(std::memory_order_relaxed);
}

std::uint64_t starlink::testing::allocBytes() {
    return g_allocBytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
    void* p = countedAlloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
void* operator new[](std::size_t size) {
    void* p = countedAlloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return countedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return countedAlloc(size);
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { countedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { countedFree(p); }
