// Discrete-event scheduler driving the simulated network.
//
// All network deliveries, protocol timers and legacy-stack processing delays
// are events. Execution is single-threaded: callbacks run inside run*() in
// strict (time, insertion) order, which makes every interleaving
// reproducible. Implements net::TaskScheduler so engines and agents can
// schedule deferred work without naming the backend. The events sit in the
// same TimerQueue the OS backend runs over the wall clock; this class only
// moves the VirtualClock to each event's deadline before running it.
#pragma once

#include <functional>
#include <utility>

#include "net/clock.hpp"
#include "net/network.hpp"
#include "net/timer_queue.hpp"

namespace starlink::net {

class EventScheduler final : public TaskScheduler {
public:
    explicit EventScheduler(VirtualClock& clock)
        : clock_(clock), tasks_([&clock] { return clock.now(); }) {}

    /// Schedules `fn` to run `delay` after the current virtual time.
    EventId schedule(Duration delay, std::function<void()> fn) override {
        return tasks_.schedule(delay, std::move(fn));
    }

    /// Schedules at an absolute virtual time (clamped to now if in the past).
    EventId scheduleAt(TimePoint when, std::function<void()> fn) {
        return tasks_.schedule(when - clock_.now(), std::move(fn));
    }

    /// Cancels a pending event; returns false if it already ran or is unknown.
    bool cancel(EventId id) override { return tasks_.cancel(id); }

    /// Runs events until the queue drains. `maxEvents` guards against
    /// accidental infinite event loops in tests.
    void runUntilIdle(std::size_t maxEvents = 1'000'000);

    /// Runs all events with time <= now + window, then advances the clock to
    /// exactly now + window (even if idle earlier).
    void runFor(Duration window);

    /// Runs the single earliest pending event if it is due at or before
    /// `limit`. Returns true if one ran; otherwise (idle, or the next event
    /// lies beyond the limit) advances the clock to `limit` and returns
    /// false. This is the stepping primitive behind SimNetwork::runUntil.
    bool runOneBefore(TimePoint limit);

    std::size_t pendingEvents() const { return tasks_.pending(); }
    VirtualClock& clock() { return clock_; }

private:
    /// Advances the clock to the earliest event and runs it, if that event
    /// is due at or before `limit`; otherwise leaves the clock alone.
    bool runNextBy(TimePoint limit);

    VirtualClock& clock_;
    TimerQueue tasks_;
};

}  // namespace starlink::net
