// Structured spans: per-session trees over the bridge pipeline.
//
// Every bridged conversation becomes a span tree rooted at a "session" span,
// with child legs covering where its time goes: receive-wait (blocked on a
// peer), parse, translate (the virtual-time interpretation window, with
// translation-logic / compose / send children), retransmit, tcp-connect.
// Spans carry BOTH timebases the reproduction runs on:
//
//   start/end  -- virtual time. Session legs tile the translation window, so
//                 per-leg durations sum to SessionRecord::translationTime.
//   wallNs     -- real CPU nanoseconds of the leg body, for the legs that are
//                 instantaneous in virtual time (parse, compose). This is the
//                 cost the paper's Fig 12(b) attributes to runtime
//                 interpretation.
//
// Completed spans land in a bounded per-engine SpanBuffer (a ring: when full,
// the oldest span is evicted and counted in dropped()), so a long-running
// bridge keeps a sliding window of recent sessions without growing without
// bound. Everything here is single-threaded by design -- spans are recorded
// from inside the event loop that drives the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/clock.hpp"

namespace starlink::telemetry {

using SpanId = std::uint64_t;

struct SpanAttr {
    std::string key;
    std::string value;
};

struct Span {
    SpanId id = 0;
    /// 0 = a root span (no parent in the buffer).
    SpanId parent = 0;
    /// 1-based session ordinal; aligns with AutomataEngine::sessions() index
    /// + 1. 0 for spans recorded outside any session.
    std::uint64_t session = 0;
    std::string name;
    net::TimePoint start{};
    net::TimePoint end{};
    /// Wall-clock cost of the leg body; 0 when not measured.
    std::uint64_t wallNs = 0;
    std::vector<SpanAttr> attrs;

    net::Duration duration() const {
        return std::chrono::duration_cast<net::Duration>(end - start);
    }
    const std::string* attr(const std::string& key) const {
        for (const auto& a : attrs) {
            if (a.key == key) return &a.value;
        }
        return nullptr;
    }
};

/// Bounded ring of completed spans, oldest-first iteration. capacity == 0
/// disables recording entirely (push becomes a drop).
class SpanBuffer {
public:
    explicit SpanBuffer(std::size_t capacity = 4096) : capacity_(capacity) {
        ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
    }

    void push(Span span);

    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }
    /// Spans evicted (ring full) or rejected (capacity 0) since construction.
    std::uint64_t dropped() const { return dropped_; }
    void clear();

    /// Copies the retained spans out in record order (oldest first).
    std::vector<Span> snapshot() const;

private:
    friend class SessionTracer;

    std::size_t capacity_;
    std::vector<Span> ring_;
    std::size_t head_ = 0;  // index of the oldest span once the ring wrapped
    std::uint64_t dropped_ = 0;
    // Span ids and session ordinals are drawn here, not per tracer, so the
    // tracers of concurrently live sessions never hand out the same id.
    SpanId nextId_ = 1;
    std::uint64_t sessions_ = 0;
};

/// Builds one session's span tree and pushes completed spans into a
/// SpanBuffer. Open spans live here; a span reaches the buffer when ended.
/// begin() with parent 0 hangs the span off the session root (or records a
/// free-standing root when no session is open -- network-engine legs can
/// outlive the automata engine's notion of a session). Several tracers may
/// share one buffer, one per concurrently live session; ids and session
/// ordinals stay unique across them.
class SessionTracer {
public:
    explicit SessionTracer(SpanBuffer& buffer) : buffer_(&buffer) {}

    bool enabled() const { return buffer_->capacity() > 0; }
    bool inSession() const { return root_ != 0; }
    SpanId sessionSpan() const { return root_; }
    std::uint64_t sessionOrdinal() const { return session_; }

    /// Opens the session root span; returns its id (0 when disabled).
    SpanId beginSession(net::TimePoint now);
    /// Opens a leg. parent == 0 attaches to the session root.
    SpanId begin(std::string name, net::TimePoint now, SpanId parent = 0);
    /// Records a zero-virtual-duration leg (parse, retransmit, send bodies).
    SpanId instant(std::string name, net::TimePoint now, std::uint64_t wallNs = 0,
                   SpanId parent = 0);
    void attr(SpanId id, std::string key, std::string value);
    /// Ends a leg and commits it to the buffer. Unknown ids are ignored
    /// (the id may belong to a span force-closed at session end).
    void end(SpanId id, net::TimePoint now, std::uint64_t wallNs = 0);
    /// Ends the session root AND force-closes any legs still open (a wait
    /// interrupted by the watchdog, a tcp connect still in flight), clamping
    /// them to the session end time.
    void endSession(net::TimePoint now);

private:
    Span* find(SpanId id);
    void commit(Span span);

    SpanBuffer* buffer_;
    std::vector<Span> open_;
    SpanId root_ = 0;
    std::uint64_t session_ = 0;
};

}  // namespace starlink::telemetry
