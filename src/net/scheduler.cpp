#include "net/scheduler.hpp"

namespace starlink::net {

bool EventScheduler::runNextBy(TimePoint limit) {
    const auto next = tasks_.nextDeadline();
    if (!next || *next > limit) return false;
    clock_.advanceTo(*next);
    return tasks_.runNext();
}

void EventScheduler::runUntilIdle(std::size_t maxEvents) {
    std::size_t ran = 0;
    while (ran < maxEvents && runNextBy(TimePoint::max())) ++ran;
}

bool EventScheduler::runOneBefore(TimePoint limit) {
    if (runNextBy(limit)) return true;
    clock_.advanceTo(limit);
    return false;
}

void EventScheduler::runFor(Duration window) {
    const TimePoint deadline = clock_.now() + window;
    while (runOneBefore(deadline)) {
        // each call runs one due event; the last one moves the clock to the deadline
    }
}

}  // namespace starlink::net
