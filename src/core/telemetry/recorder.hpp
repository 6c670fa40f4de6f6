// Flight recorder: wire-level capture of every bridge session.
//
// Metrics aggregate and span trees summarize, but neither can REPRODUCE a
// failed translation: for that you need the exact datagrams, their arrival
// order in virtual time, and the automaton path the engine walked. The
// recorder captures every session's wire-level events -- rx/tx payloads with
// color and endpoints, tcp connect outcomes, transport faults, automaton
// transitions, translation steps and the terminal ErrorCode -- into a
// compact length-prefixed binary log.
//
// Cost model mirrors the span layer: default-off (EngineOptions::
// recorderSessionBytes == 0 records nothing: every record* call is then one
// branch). When on, each record* call frames its event straight from its
// arguments (strings are borrowed as string_view) into a reused scratch
// buffer, then copies it into the session's OpenLog: chunked storage whose
// chunks are retained across the sessions that reuse the log (the RxArena
// idiom). endSession flattens the chunks into the log evicted from the full
// ring, reusing its buffer. Once the scratch
// buffer, the chunks and the ring's buffers have grown to the largest
// session seen, record* and endSession allocate nothing; the one remaining
// allocation is the ring deque's node turnover (libstdc++ packs ten 48-byte
// SessionLogs into a 512-byte node, so one node per ten sessions).
// FlightRecorder.SteadyStateRecordingDoesNotAllocate pins this. A
// per-session byte cap bounds pathological sessions: past it, payload
// events are dropped and counted, and the log is marked truncated (a
// truncated bundle refuses replay).
//
// On session abort the engine wraps the log into a PostmortemBundle --
// events + span tree + seeds + model-set identity + shard id -- and hands it
// to a capped on-disk PostmortemSpool. `starlinkd postmortem` pretty-prints
// a bundle; `starlinkd replay` re-injects its datagrams into a fresh island
// and asserts bit-identical reproduction (core/bridge/replay.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace starlink::telemetry {

struct Span;

/// One recorded wire-level event, decoded form. Which fields are meaningful
/// depends on `kind` (unused ones stay defaulted).
struct WireEvent {
    enum class Kind : std::uint8_t {
        Rx = 1,          ///< datagram/chunk ACCEPTED by the engine (color, from, to, payload)
        Tx = 2,          ///< payload the engine put on the wire (color, payload)
        TcpConnect = 3,  ///< terminal connect outcome (color, target, outcome, attempts)
        Transition = 4,  ///< automaton step (component, from, to, action, messageType)
        Translate = 5,   ///< translation-logic step (state, messageType)
        Fault = 6,       ///< transport fault surfaced in-session (color, fault, detail)
        SessionEnd = 7,  ///< terminal record (code, cause, completed, counters)
    };
    /// Transition::action values.
    enum : std::uint8_t { kActionReceive = 0, kActionSend = 1, kActionDelta = 2 };
    /// TcpConnect::outcome values.
    enum : std::uint8_t { kConnectRefused = 0, kConnectConnected = 1 };
    /// Fault::fault values (mirrors engine::NetworkFault).
    enum : std::uint8_t { kFaultConnectRefused = 0, kFaultPeerClosed = 1 };

    Kind kind = Kind::Rx;
    std::int64_t tsUs = 0;  ///< virtual microseconds since the island epoch

    std::uint64_t color = 0;                     // Rx, Tx, TcpConnect, Fault
    std::string from;                            // Rx sender; TcpConnect target; Fault detail
    std::string to;                              // Rx local endpoint ("" for tcp client colors)
    Bytes payload;                               // Rx, Tx
    std::string component, state, messageType;   // Transition (component,from=state), Translate
    std::string stateTo;                         // Transition target state
    std::uint8_t action = 0;                     // Transition action / TcpConnect outcome / Fault kind
    std::int32_t attempts = 0;                   // TcpConnect

    std::int32_t code = 0;                       // SessionEnd: signed taxonomy code
    std::uint8_t cause = 0;                      // SessionEnd: FailureCause ordinal
    bool completed = false;                      // SessionEnd
    std::uint32_t messagesIn = 0, messagesOut = 0, retransmits = 0;  // SessionEnd
};

/// Decodes a length-prefixed event log (FlightRecorder::SessionLog::events).
/// Throws SpecError(SpecViolation) on any malformed input.
std::vector<WireEvent> decodeEvents(const Bytes& encoded);

class FlightRecorder {
public:
    /// One finished session's captured log, as kept in the recent-session
    /// ring. `events` is the encoded form; decodeEvents() inflates it.
    struct SessionLog {
        std::uint64_t ordinal = 0;
        bool truncated = false;
        std::uint64_t droppedEvents = 0;
        Bytes events;
    };

    /// One session's open log: the events recorded so far, in chunked storage
    /// that is retained when the log is reused by a later session (the
    /// RxArena idiom). Each concurrently live session writes its own OpenLog;
    /// endSession rotates it into the recorder's shared ring. Calls on a log
    /// whose recorder is disabled, or outside begin/endSession, do nothing.
    class OpenLog {
    public:
        explicit OpenLog(FlightRecorder& recorder) : recorder_(&recorder) {}
        ~OpenLog();
        OpenLog(const OpenLog&) = delete;
        OpenLog& operator=(const OpenLog&) = delete;

        bool inSession() const { return open_; }

        void beginSession(std::uint64_t ordinal, std::int64_t tsUs);
        void recordRx(std::int64_t tsUs, std::uint64_t color, std::string_view from,
                      std::string_view to, const Bytes& payload);
        void recordTx(std::int64_t tsUs, std::uint64_t color, const Bytes& payload);
        void recordConnect(std::int64_t tsUs, std::uint64_t color, std::string_view target,
                           std::uint8_t outcome, std::int32_t attempts);
        void recordTransition(std::int64_t tsUs, std::string_view component,
                              std::string_view from, std::string_view to, std::uint8_t action,
                              std::string_view messageType);
        void recordTranslate(std::int64_t tsUs, std::string_view state,
                             std::string_view messageType);
        void recordFault(std::int64_t tsUs, std::uint64_t color, std::uint8_t fault,
                         std::string_view detail);
        /// Closes the log (the SessionEnd event bypasses the byte cap so every
        /// log carries its terminal record) and rotates it into the
        /// recorder's ring, reusing the evicted log's buffer once the ring is
        /// full.
        void endSession(std::int64_t tsUs, std::int32_t code, std::uint8_t cause, bool completed,
                        std::uint32_t messagesIn, std::uint32_t messagesOut,
                        std::uint32_t retransmits);

    private:
        void appendScratch();        // recorder scratch -> chunks, cap-checked
        void appendUnconditional();  // recorder scratch -> chunks, no cap (SessionEnd)

        FlightRecorder* recorder_;
        std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
        std::size_t used_ = 0;
        bool open_ = false;
        std::uint64_t ordinal_ = 0;
        bool truncated_ = false;
        std::uint64_t droppedEvents_ = 0;
    };

    /// sessionCapBytes == 0 disables the recorder entirely.
    explicit FlightRecorder(std::size_t sessionCapBytes = 0,
                            std::size_t ringSessions = kDefaultRingSessions)
        : cap_(sessionCapBytes), ringCapacity_(ringSessions) {}

    bool enabled() const { return cap_ != 0; }
    std::size_t sessionCapBytes() const { return cap_; }

    /// Recently finished sessions, oldest first (bounded ring).
    const std::deque<SessionLog>& recent() const { return recent_; }
    /// The most recently finished session, nullptr before the first one ends.
    const SessionLog* last() const { return recent_.empty() ? nullptr : &recent_.back(); }

    /// Chunk memory currently held by this recorder's open logs (retained
    /// across sessions, like RxArena).
    std::size_t bytesReserved() const { return chunks_ * kChunkBytes; }
    std::size_t chunkCount() const { return chunks_; }

    static constexpr std::size_t kDefaultRingSessions = 4;

private:
    static constexpr std::size_t kChunkBytes = 16 * 1024;

    std::size_t cap_;
    std::size_t ringCapacity_;
    std::size_t chunks_ = 0;  // summed over every OpenLog of this recorder
    Bytes scratch_;           // per-event encode buffer, shared by the open logs
    std::deque<SessionLog> recent_;
};

/// Everything needed to understand -- and deterministically re-run -- one
/// aborted session: the event log plus its provenance (seeds, model-set
/// identity, the engine options that shaped its timers) and span tree.
struct PostmortemBundle {
    std::uint16_t version = 1;
    std::string bridge;     ///< merged-automaton name (the `bridge` metric label)
    std::string caseSlug;   ///< the merged-automaton name: a built-in direction's slug
    std::string bridgeHost; ///< host the bridge was deployed at
    std::int32_t shard = 0;
    std::uint64_t sessionOrdinal = 0;
    std::uint64_t sessionSeed = 0;  ///< driver-derived session seed (provenance)
    std::uint64_t retrySeed = 0;    ///< jitter rng seed in effect at session start
    std::uint64_t retryDraws = 0;   ///< jitter draws burned before session start
    std::uint64_t modelIdentity = 0;
    std::int32_t abortCode = 0;     ///< signed taxonomy code (never 0 in a bundle)
    std::uint8_t cause = 0;         ///< engine::FailureCause ordinal

    // The EngineOptions subset every session timer derives from.
    std::int64_t processingDelayUs = 0;
    std::int64_t sessionTimeoutUs = 0;
    std::int64_t receiveTimeoutUs = 0;
    std::int64_t retransmitJitterUs = 0;
    std::int64_t idleTimeoutUs = 0;
    std::int64_t tcpConnectRetryDelayUs = 0;
    std::int64_t tcpConnectRetryMaxDelayUs = 0;
    std::int32_t maxRetransmits = 0;
    std::int32_t tcpConnectAttempts = 0;
    /// Backoff multiplier in fixed-point millionths (doubles don't round-trip
    /// text; a micro-unit integer does, bit for bit).
    std::int64_t retransmitBackoffMicros = 0;
    std::uint64_t tcpMaxBacklogBytes = 0;

    bool truncated = false;
    std::uint64_t droppedEvents = 0;
    Bytes events;                         ///< encoded wire-event log
    std::vector<Span> spans;              ///< this session's span tree (may be empty)
};

Bytes encodeBundle(const PostmortemBundle& bundle);
/// Throws SpecError(SpecViolation) on bad magic/version/structure.
PostmortemBundle decodeBundle(const Bytes& encoded);

/// Capped on-disk spool of postmortem bundles. Shared across shards (writes
/// are mutex-guarded and happen only on session abort, off the hot path).
/// Past `maxBundles` the oldest file THIS spool wrote is deleted first.
class PostmortemSpool {
public:
    struct Options {
        std::string directory;
        std::size_t maxBundles = 64;
    };

    explicit PostmortemSpool(Options options);

    /// Writes one bundle; returns its path, or "" when the filesystem
    /// refused (a full disk must not take the bridge down with it).
    std::string write(const PostmortemBundle& bundle);

    std::uint64_t written() const;
    /// Paths currently on disk from this spool, oldest first.
    std::vector<std::string> files() const;
    const std::string& directory() const { return options_.directory; }

private:
    mutable std::mutex mutex_;
    Options options_;
    std::uint64_t seq_ = 0;
    std::deque<std::string> files_;
};

}  // namespace starlink::telemetry
