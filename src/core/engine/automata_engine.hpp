// The Automata Engine (paper section IV-B).
//
// Executes a merged automaton: listens at receiving states, applies
// translation logic and composes outgoing messages at sending states, and
// crosses delta-transitions (running their lambda network actions) at bridge
// states. One engine instance is one deployed interoperability bridge.
//
// Step discipline. After arriving in a state the engine:
//   1. takes the outgoing delta-transition, unless the state was just
//      entered through one (bicolored nodes such as Fig 4's node 1 carry
//      both the entering delta and the eventual reply send; the arrival
//      action disambiguates which applies);
//   2. otherwise takes the unique outgoing send-transition, composing the
//      message from the translation-logic assignments that target
//      (state, message type) -- the compose step is charged
//      options.processingDelay of virtual time, modelling the interpretation
//      cost the paper measures in Fig 12(b);
//   3. otherwise waits for a receive, or completes the session when the
//      state is accepting with no way out.
//
// Queue placement: a received message instance is stored at the TARGET state
// of its receive-transition. (The paper's prose stores it at the listening
// state, but its own translation specs -- Fig 5 line 4, Fig 10 -- address
// the instance at the entered state; we follow the specs. See DESIGN.md.)
// A sent instance is stored at the state it was composed in.
//
// Sessions: the engine serves request/response conversations repeatedly.
// A session opens at the first receive, closes when an accepting state of
// the merged automaton is reached with nothing left to do (or on timeout),
// and resets all queues and network-session state for the next client.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine/network_engine.hpp"
#include "core/engine/session_history.hpp"
#include "core/mdl/codec.hpp"
#include "core/mdl/rx_arena.hpp"
#include "core/merge/merged_automaton.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/recorder.hpp"
#include "core/telemetry/span.hpp"

namespace starlink::engine {

struct EngineOptions {
    /// Virtual-time cost charged per composed message (parse/translate/
    /// compose interpretation overhead). The default is calibrated so the
    /// Fig 12(b) medians land near the paper's (see EXPERIMENTS.md).
    net::Duration processingDelay = net::ms(12);
    /// Abort a session that has not completed within this window (0 = no
    /// timeout). The default watchdog comfortably exceeds the slowest healthy
    /// conversation (UPnP->SLP, ~6.5 s of virtual time) so it only fires on
    /// genuinely wedged sessions and leaves Fig 12(b) untouched.
    net::Duration sessionTimeout = net::ms(30000);
    /// Receive deadline while the session waits for the next inbound message
    /// (0 = never retransmit). The default clears the slowest healthy reply
    /// (the SLP service agent's ~6.1 s) so retransmission never fires on a
    /// loss-free network.
    net::Duration receiveTimeout = net::ms(8000);
    /// How often the last sent request may be re-sent before the wait is
    /// declared dead (FailureCause::Timeout). Applies per wait state; only
    /// datagram (udp) requests are ever re-sent -- tcp is reliable and its
    /// failures surface as connect-refused/peer-closed faults instead.
    int maxRetransmits = 2;
    /// Deadline multiplier applied per retransmission attempt.
    double retransmitBackoff = 2.0;
    /// Uniform random extra delay added to each retransmission deadline,
    /// drawn from an engine-local generator (seeded by retrySeed) so enabling
    /// jitter never perturbs the network's random sequence. 0 = none.
    net::Duration retransmitJitter = net::ms(0);
    std::uint64_t retrySeed = 0x5eedULL;
    /// Forwarded to the network engine: bounded tcp connect retry budget.
    int tcpConnectAttempts = 3;
    net::Duration tcpConnectRetryDelay = net::ms(50);
    /// Forwarded: saturation point of the doubling connect backoff.
    net::Duration tcpConnectRetryMaxDelay = net::ms(5000);
    /// Forwarded: byte cap on sends queued while a tcp connect is pending
    /// (0 = unbounded); overflow sheds with net.backlog-overflow.
    std::size_t tcpMaxBacklogBytes = 256 * 1024;
    /// Abort a live session when NO message moves in either direction for
    /// this long (0 = disabled). Unlike sessionTimeout -- a fixed window from
    /// the first receive -- this deadline re-arms on every message, so it
    /// evicts only genuinely silent sessions, bounding how long an idle
    /// conversation can pin engine/arena state.
    net::Duration idleTimeout = net::ms(0);
    /// Capacity of the completed-session history ring (0 = unbounded, the
    /// pre-capacity-fix behaviour). Aggregates -- including the taxonomy-
    /// coded abort histogram -- survive eviction; see session_history.hpp.
    std::size_t sessionHistoryCapacity = SessionHistory::kDefaultCapacity;
    /// Capacity of the per-engine span buffer. 0 (the default) disables span
    /// collection, so a bridge that nobody is tracing records nothing.
    std::size_t spanCapacity = 0;
    /// Registry the engine's metrics land in. nullptr (the default) selects
    /// the process-wide MetricsRegistry::global(). The sharded driver hands
    /// every engine its shard's private registry so the hot path never shares
    /// a cache line across threads; shards are merged at export
    /// (MetricsRegistry::mergeFrom). The registry must outlive the engine.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Per-session byte cap of the flight recorder's wire-event log. 0 (the
    /// default) disables recording entirely -- same contract as spanCapacity.
    std::size_t recorderSessionBytes = 0;
    /// Where abort postmortem bundles go. nullptr = don't spool (the recorder
    /// ring is still queryable in-process). Must outlive the engine.
    telemetry::PostmortemSpool* postmortemSpool = nullptr;
    /// Provenance stamped into postmortem bundles: the models::caseSlug when
    /// deployed via forCase (else ""), the owning shard, and the model-set
    /// fingerprint (filled by Starlink::deploy when left 0).
    std::string recorderCase;
    std::int32_t shardId = 0;
    std::uint64_t modelIdentity = 0;
    /// Registry version of the model set this engine deploys (0 = no
    /// registry in play). Stamped into every SessionRecord and, when
    /// non-zero, baked into the engine's metric labels as `model_version`
    /// so per-version session/abort counters separate canary from stable.
    std::uint64_t modelVersion = 0;
    /// Host the bridge is deployed at (filled by Starlink::deploy when left
    /// empty); bundles carry it so replay rebuilds the same topology.
    std::string bridgeHost;
};

// FailureCause, SessionRecord and the SessionHistory ring moved to
// session_history.hpp (included above) when the history became bounded;
// re-exported here so existing includes keep resolving.

class AutomataEngine {
public:
    AutomataEngine(std::shared_ptr<merge::MergedAutomaton> merged,
                   std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs,
                   std::shared_ptr<merge::TranslationRegistry> translations,
                   NetworkEngine& network, automata::ColorRegistry& colors,
                   EngineOptions options = {});
    ~AutomataEngine();

    /// Attaches every component color and starts listening at q0.
    void start();

    /// Stops serving (the engine ignores traffic afterwards).
    void stop() { running_ = false; }

    bool running() const { return running_; }
    const std::string& currentState() const { return current_; }

    /// Recent session records (bounded ring) plus eviction-proof lifetime
    /// aggregates; see EngineOptions::sessionHistoryCapacity.
    const SessionHistory& sessions() const { return sessions_; }
    const merge::MergedAutomaton& merged() const { return *merged_; }

    /// Completed spans of recent sessions (empty unless
    /// EngineOptions::spanCapacity > 0). Span::session ordinals are 1-based
    /// indices into sessions().
    const telemetry::SpanBuffer& spans() const { return spans_; }

    /// Fired on every completed (or timed-out) session.
    std::function<void(const SessionRecord&)> onSessionComplete;

    /// Rewinds the retransmission-jitter generator to a fresh seed. The
    /// sharded driver calls this before every session so a session's jitter
    /// draws depend only on its own seed, never on how many retransmissions
    /// earlier sessions of the pooled engine burned.
    void reseedRetry(std::uint64_t seed) {
        retryRng_ = Rng(seed);
        retrySeedInEffect_ = seed;
        retryDrawsSinceSeed_ = 0;
    }

    /// Records the driver-derived session seed for postmortem provenance
    /// (the engine never consumes it itself).
    void noteSessionSeed(std::uint64_t seed) { sessionSeed_ = seed; }

    /// Advances the jitter generator by `draws` without using the values --
    /// replay's tool for re-aligning a pooled engine's rng to the state it
    /// had when the captured session started.
    void burnRetryDraws(std::uint64_t draws) {
        for (std::uint64_t i = 0; i < draws; ++i) retryRng_.next();
        retryDrawsSinceSeed_ += draws;
    }

    /// The wire-level flight recorder (disabled unless
    /// EngineOptions::recorderSessionBytes > 0).
    const telemetry::FlightRecorder& recorder() const { return recorder_; }

    /// Codec serving a component color; nullptr for unknown colors. Lets the
    /// postmortem printer decode captured payloads per leg.
    std::shared_ptr<mdl::MessageCodec> codecForColor(std::uint64_t k) const {
        const automata::ColoredAutomaton* component = componentByColor(k);
        return component ? codecFor(*component) : nullptr;
    }

private:
    void onNetworkMessage(std::uint64_t colorK, const Bytes& payload, const net::Address& from);
    void onNetworkFault(std::uint64_t colorK, NetworkFault fault, const std::string& detail);
    void proceed();
    /// proceed() with runtime translation failures contained: the session
    /// aborts, the connector survives.
    void safeProceed();
    void takeDelta(const merge::DeltaTransition& delta);
    void scheduleSend(const automata::Transition& transition);
    void performSend(const automata::Transition& transition, telemetry::SpanId translateSpan);
    AbstractMessage buildOutgoing(const std::string& stateId, const std::string& messageType);
    Value resolveRef(const merge::FieldRef& ref, const std::string& transform) const;
    void completeSession(bool completed, FailureCause cause = FailureCause::None,
                         errc::ErrorCode code = errc::ErrorCode::Ok);
    void armRetransmit();
    void onReceiveDeadline();
    void cancelRetransmit();
    /// (Re-)arms the idle deadline; called on every message in either
    /// direction while a session is live. No-op when idleTimeout is 0.
    void armIdleTimeout();
    void cancelIdleTimeout();
    static FailureCause classify(const std::exception& error);

    /// State change with per-state dwell accounting (virtual ms spent in the
    /// state being left, while a session is live).
    void enterState(const std::string& next);
    telemetry::Histogram* dwellHistogram(const std::string& state);

    const automata::ColoredAutomaton* componentByColor(std::uint64_t k) const;
    std::shared_ptr<mdl::MessageCodec> codecFor(const automata::ColoredAutomaton& a) const;

    std::shared_ptr<merge::MergedAutomaton> merged_;
    std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs_;
    std::shared_ptr<merge::TranslationRegistry> translations_;
    NetworkEngine& network_;
    automata::ColorRegistry& colors_;
    EngineOptions options_;

    bool running_ = false;
    std::string current_;
    bool lastWasDelta_ = false;
    bool sendPending_ = false;
    bool sessionActive_ = false;
    SessionRecord liveSession_;
    std::optional<net::EventId> timeoutEvent_;
    std::optional<net::EventId> idleEvent_;

    // Retransmission state for the current wait. The engine keeps the last
    // encoded request so a lapsed reply deadline re-sends identical bytes.
    // retrySeedInEffect_/retryDrawsSinceSeed_ shadow the generator's exact
    // position so a postmortem bundle can re-derive it (pooled engines are
    // not reseeded per session outside the sharded driver).
    Rng retryRng_;
    std::uint64_t retrySeedInEffect_ = 0;
    std::uint64_t retryDrawsSinceSeed_ = 0;
    std::uint64_t sessionStartRetryDraws_ = 0;
    std::uint64_t sessionSeed_ = 0;
    std::uint64_t sessionOrdinal_ = 0;
    std::optional<net::EventId> retransmitEvent_;
    std::optional<Bytes> lastSentPayload_;
    std::uint64_t lastSentColor_ = 0;
    int retransmitsUsed_ = 0;

    /// Compose scratch buffer, reused across every send of the engine's
    /// lifetime so steady-state sessions stop allocating per message.
    Bytes composeScratch_;

    /// Receive arena: parsed String/Bytes field values borrow from the single
    /// datagram copy stored here instead of owning fresh heap strings. Reset
    /// (chunks retained) at every session boundary, so steady-state sessions
    /// parse with zero per-message heap allocation. No parsed message
    /// outlives the session: the state queues that hold them reset first.
    mdl::RxArena rxArena_;

    SessionHistory sessions_;

    // --- telemetry -------------------------------------------------------
    // Spans: one tracer per engine, shared with the network engine for the
    // tcp-connect leg. Metrics: pointers cached at construction so the hot
    // path never touches the registry mutex; every metric site is gated on
    // telemetry::enabled().
    telemetry::SpanBuffer spans_;
    telemetry::SessionTracer tracer_;
    telemetry::FlightRecorder recorder_;
    telemetry::SpanId waitSpan_ = 0;
    net::TimePoint stateEnteredAt_{};
    struct EngineMetrics {
        telemetry::Counter* sessionsCompleted = nullptr;
        telemetry::Counter* messagesIn = nullptr;
        telemetry::Counter* messagesOut = nullptr;
        telemetry::Counter* retransmits = nullptr;
        telemetry::Histogram* translationMs = nullptr;
        // Previously-invisible accounting, refreshed at session boundaries:
        // span-ring drops, history evictions, arena/recorder memory held.
        telemetry::Gauge* spansDropped = nullptr;
        telemetry::Gauge* historyEvicted = nullptr;
        telemetry::Gauge* arenaBytes = nullptr;
        telemetry::Gauge* arenaChunks = nullptr;
        telemetry::Gauge* recorderBytes = nullptr;
    };
    EngineMetrics metrics_;
    /// Abort counters labeled by exact taxonomy code, resolved lazily on the
    /// first abort with that code (the code space is too wide to pre-register
    /// like the old 5-cause array; aborts are off the hot path anyway).
    telemetry::Counter* abortedCounter(errc::ErrorCode code);
    std::map<errc::ErrorCode, telemetry::Counter*> abortedByCode_;
    /// Where this engine's metrics live: EngineOptions::metrics or the
    /// process-global registry.
    telemetry::MetricsRegistry* registry_ = nullptr;
    std::map<std::string, telemetry::Histogram*> dwellByState_;
};

}  // namespace starlink::engine
