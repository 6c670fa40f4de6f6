// Bounded session lifecycle records (ISSUE 7: million-session capacity).
//
// A long-running bridge serves conversations indefinitely; keeping every
// SessionRecord forever is the unbounded-residency bug this subsystem fixes.
// SessionHistory is a capped ring (a deque of plain records) with
// AGGREGATE counters that survive eviction: total ended/completed/aborted,
// message and retransmit totals, and the per-taxonomy-code abort histogram.
// Evicting a record therefore loses only its per-session detail, never the
// bridge's lifetime accounting -- the soak suite asserts the aggregates stay
// exact across >=100k sessions while the ring stays at capacity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "common/error.hpp"
#include "net/clock.hpp"

namespace starlink::engine {

/// Why a session ended without completing. One byte wide, so it packs next
/// to SessionRecord::completed (every serialised form already stores it as
/// a u8 ordinal).
enum class FailureCause : std::uint8_t {
    None,            ///< the session completed (or was aborted pre-classification)
    Timeout,         ///< watchdog fired, or the retransmission budget ran dry
    ConnectRefused,  ///< a tcp connect stayed refused after bounded retries
    PeerClosed,      ///< the tcp peer vanished mid-session
    DecodeError,     ///< translation/compose/encode failed at runtime
};

constexpr const char* failureCauseName(FailureCause cause) {
    switch (cause) {
        case FailureCause::None: return "none";
        case FailureCause::Timeout: return "timeout";
        case FailureCause::ConnectRefused: return "connect-refused";
        case FailureCause::PeerClosed: return "peer-closed";
        case FailureCause::DecodeError: return "decode-error";
    }
    return "unknown";
}

/// The coarse cause's taxonomy code. Abort paths that know more (watchdog vs
/// retry-budget, the exact exception) record a more precise code directly;
/// this mapping is the floor every abort is guaranteed to reach.
constexpr errc::ErrorCode to_error_code(FailureCause cause) {
    switch (cause) {
        case FailureCause::None: return errc::ErrorCode::Ok;
        case FailureCause::Timeout: return errc::ErrorCode::EngineSessionTimeout;
        case FailureCause::ConnectRefused: return errc::ErrorCode::EngineConnectRefused;
        case FailureCause::PeerClosed: return errc::ErrorCode::EnginePeerClosed;
        case FailureCause::DecodeError: return errc::ErrorCode::EngineDecode;
    }
    return errc::ErrorCode::Unclassified;
}

/// Outcome record for one bridged conversation.
struct SessionRecord {
    net::TimePoint firstReceive{};
    /// First send back on the INITIATING protocol -- "the translated output
    /// response" of the paper's Fig 12(b) measure. (A session may continue
    /// past it: in the UPnP-client cases the control point still fetches the
    /// device description over HTTP afterwards.)
    std::optional<net::TimePoint> clientReply;
    net::TimePoint lastSend{};
    std::size_t messagesIn = 0;
    /// Every protocol message the engine put on the wire, INCLUDING
    /// engine-initiated retransmissions of a lapsed request.
    std::size_t messagesOut = 0;
    /// Requests re-sent by the engine because a reply deadline lapsed.
    std::size_t retransmits = 0;
    bool completed = false;
    /// FailureCause::None iff completed.
    FailureCause cause = FailureCause::None;
    /// Exact taxonomy code of the abort (ErrorCode::Ok iff completed). Where
    /// `cause` says "Timeout", `code` distinguishes the watchdog
    /// (engine.session-timeout) from a drained retransmission budget
    /// (engine.retry-exhausted); where it says "DecodeError", `code` carries
    /// the precise failure of the throwing layer (e.g. merge.translation-
    /// rejected, engine.field-unresolved).
    errc::ErrorCode code = errc::ErrorCode::Ok;
    /// Registry version of the model set that served this session (its
    /// ModelGeneration::version; 0 = no registry in play). The terminal
    /// record carries it so a swap mid-run is auditable session by session.
    std::uint64_t modelVersion = 0;

    /// First message received by the framework until the translated
    /// response left on the output socket (paper section VI).
    net::Duration translationTime() const {
        const net::TimePoint end = clientReply.value_or(lastSend);
        return std::chrono::duration_cast<net::Duration>(end - firstReceive);
    }

    /// Whole conversation, including any post-reply legs.
    net::Duration sessionTime() const {
        return std::chrono::duration_cast<net::Duration>(lastSend - firstReceive);
    }
};
// The capacity gate's projected_sessions_per_gib row (bench/capacity_sweep.cpp
// against bench/baselines/capacity.json) is 1 GiB / sizeof(SessionRecord),
// baselined at 72 bytes; a new field that grows the record trips it.
static_assert(sizeof(SessionRecord) <= 72, "SessionRecord outgrew the capacity baseline");

/// Capped ring of SessionRecords with eviction-proof aggregates. The read
/// side is vector-shaped (size/operator[]/front/back/begin/end) so existing
/// `engine.sessions()` consumers keep working unchanged; they now see a
/// sliding window of the most recent records plus exact lifetime totals.
class SessionHistory {
public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    /// capacity 0 = unbounded (keep every record; the pre-fix behaviour,
    /// useful in tests that replay a known-small session count).
    explicit SessionHistory(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

    /// Appends one finished session, folding it into the aggregates first so
    /// an immediate eviction cannot lose it.
    void record(SessionRecord record) {
        ++totalEnded_;
        totalMessagesIn_ += record.messagesIn;
        totalMessagesOut_ += record.messagesOut;
        totalRetransmits_ += record.retransmits;
        if (record.completed) {
            ++totalCompleted_;
        } else {
            ++totalAborted_;
            ++abortsByCode_[record.code];
        }
        records_.push_back(std::move(record));
        while (capacity_ != 0 && records_.size() > capacity_) {
            records_.pop_front();
            ++evicted_;
        }
    }

    // -- vector-compatible window access ------------------------------------
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const SessionRecord& operator[](std::size_t i) const { return records_[i]; }
    const SessionRecord& front() const { return records_.front(); }
    const SessionRecord& back() const { return records_.back(); }
    std::deque<SessionRecord>::const_iterator begin() const { return records_.begin(); }
    std::deque<SessionRecord>::const_iterator end() const { return records_.end(); }

    // -- lifetime aggregates (exact; survive eviction) -----------------------
    std::uint64_t totalEnded() const { return totalEnded_; }
    std::uint64_t totalCompleted() const { return totalCompleted_; }
    std::uint64_t totalAborted() const { return totalAborted_; }
    std::uint64_t totalMessagesIn() const { return totalMessagesIn_; }
    std::uint64_t totalMessagesOut() const { return totalMessagesOut_; }
    std::uint64_t totalRetransmits() const { return totalRetransmits_; }
    /// Records dropped off the ring's old end since construction.
    std::uint64_t evicted() const { return evicted_; }
    /// Taxonomy-coded abort histogram: code -> count of aborted sessions.
    const std::map<errc::ErrorCode, std::uint64_t>& abortsByCode() const {
        return abortsByCode_;
    }

    std::size_t capacity() const { return capacity_; }

private:
    std::size_t capacity_ = kDefaultCapacity;
    std::deque<SessionRecord> records_;
    std::uint64_t totalEnded_ = 0;
    std::uint64_t totalCompleted_ = 0;
    std::uint64_t totalAborted_ = 0;
    std::uint64_t totalMessagesIn_ = 0;
    std::uint64_t totalMessagesOut_ = 0;
    std::uint64_t totalRetransmits_ = 0;
    std::uint64_t evicted_ = 0;
    std::map<errc::ErrorCode, std::uint64_t> abortsByCode_;
};

}  // namespace starlink::engine
