// Deferred tasks over any clock: the one queue behind both backends'
// TaskScheduler. The sim's EventScheduler drives it over a VirtualClock; the
// OS backend drives it over the wall clock (docs/TRANSPORT.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/clock.hpp"
#include "net/network.hpp"

namespace starlink::net {

/// Tasks run in (deadline, scheduling order), so equal deadlines run FIFO,
/// and a task scheduled from a running one with a due deadline runs in the
/// same runDue() pass. A binary heap in a vector holds (deadline, seq, slot);
/// each task's closure sits in a pooled slot whose generation is part of its
/// EventId (never 0), so cancel() is O(1) and returns false once the task ran
/// or was cancelled. A cancelled task's heap entry is dropped when it reaches
/// the top, or all at once when such entries outnumber the live ones, so the
/// top is always live. Once the vectors have grown to the peak number of
/// pending tasks, schedule, cancel and run allocate nothing beyond what the
/// caller's closure needs.
class TimerQueue final : public TaskScheduler {
public:
    using Clock = std::function<TimePoint()>;
    explicit TimerQueue(Clock clock) : clock_(std::move(clock)) {}
    TimerQueue(const TimerQueue&) = delete;
    TimerQueue& operator=(const TimerQueue&) = delete;

    /// Schedules `fn` at clock() + delay (a negative delay means now).
    EventId schedule(Duration delay, std::function<void()> fn) override;
    bool cancel(EventId id) override;

    /// Deadline of the earliest pending task; nullopt when none.
    std::optional<TimePoint> nextDeadline() const;
    /// Runs the earliest pending task whatever its deadline; false when none
    /// is pending.
    bool runNext();
    /// Runs every task due now, including ones they schedule; returns how
    /// many ran.
    std::size_t runDue();
    std::size_t pending() const { return heap_.size() - stale_; }

private:
    struct Slot {
        std::function<void()> fn;
        std::uint32_t generation = 1;
        std::uint32_t nextFree = 0;
    };
    struct Entry {
        TimePoint when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };
    static bool later(const Entry& a, const Entry& b) {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
    bool isStale(const Entry& e) const { return slots_[e.slot].generation != e.generation; }
    void release(std::uint32_t slot);
    void dropStale();

    Clock clock_;
    std::vector<Slot> slots_;
    std::vector<Entry> heap_;
    std::uint32_t freeHead_ = kNoSlot;
    std::size_t stale_ = 0;
    std::uint64_t nextSeq_ = 1;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
};

}  // namespace starlink::net
