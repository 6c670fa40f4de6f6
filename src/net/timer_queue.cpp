#include "net/timer_queue.hpp"

#include <algorithm>

namespace starlink::net {

EventId TimerQueue::schedule(Duration delay, std::function<void()> fn) {
    if (delay.count() < 0) delay = us(0);
    std::uint32_t slot = freeHead_;
    if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        freeHead_ = slots_[slot].nextFree;
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    heap_.push_back(Entry{clock_() + delay, nextSeq_++, slot, s.generation});
    std::push_heap(heap_.begin(), heap_.end(), later);
    return (static_cast<EventId>(s.generation) << 32) | slot;
}

bool TimerQueue::cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.generation != static_cast<std::uint32_t>(id >> 32)) return false;  // ran or cancelled
    const std::function<void()> dropped = std::move(s.fn);  // destroyed after the bookkeeping
    s.fn = nullptr;
    release(slot);
    ++stale_;
    dropStale();
    return true;
}

void TimerQueue::release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (++s.generation == 0) s.generation = 1;  // ids are never 0
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

void TimerQueue::dropStale() {
    while (!heap_.empty() && isStale(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
        --stale_;
    }
    if (stale_ > 32 && stale_ * 2 > heap_.size()) {
        std::erase_if(heap_, [this](const Entry& e) { return isStale(e); });
        std::make_heap(heap_.begin(), heap_.end(), later);
        stale_ = 0;
    }
}

std::optional<TimePoint> TimerQueue::nextDeadline() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().when;
}

bool TimerQueue::runNext() {
    if (heap_.empty()) return false;
    const std::uint32_t slot = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    std::function<void()> fn = std::move(slots_[slot].fn);
    slots_[slot].fn = nullptr;
    release(slot);
    dropStale();
    fn();
    return true;
}

std::size_t TimerQueue::runDue() {
    std::size_t ran = 0;
    for (auto next = nextDeadline(); next && *next <= clock_(); next = nextDeadline()) {
        runNext();
        ++ran;
    }
    return ran;
}

}  // namespace starlink::net
