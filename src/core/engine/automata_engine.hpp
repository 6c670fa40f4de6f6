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
// Sessions: the engine serves request/response conversations repeatedly and
// concurrently. A session opens at the first receive, closes when an
// accepting state of the merged automaton is reached with nothing left to do
// (or on timeout), and returns its pooled state to the engine for the next
// client. All per-conversation state -- current state, per-state instance
// queues, rx arena, timers, retransmission state, SessionRecord, open
// recorder log, span root, dwell clock -- lives in a Session; the merged
// automaton is read-only at runtime. Inbound traffic is demultiplexed to
// sessions (DESIGN.md section 5l):
//   - the opening message, on the merged automaton's initial color, starts
//     the session keyed by (color, peer address) -- or joins the live one
//     with that key, where a duplicate is dropped;
//   - a later message on another server-role color (the HTTP leg of
//     upnp-to-X) goes to the one live session from that peer host that is
//     on that color, and is dropped when no single session matches;
//   - replies on client-role colors arrive on the session's own socket or
//     connection (NetworkEngine session slots) and go straight to it.
// At most kMaxLiveSessions run at once; past that an opening message is
// shed with engine.overload. Every datagram the engine does not accept is
// counted under a DropReason.
//
// Model swap: publish() makes a new ModelGeneration the one new sessions open
// on; a live session keeps the generation it opened with until it ends, so a
// swap never pauses the engine or moves a conversation. Colors only retired
// generations name are detached when their last session ends.
#pragma once

#include <array>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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
    /// The owning shard, stamped into postmortem bundles.
    std::int32_t shardId = 0;
};

// FailureCause, SessionRecord and the SessionHistory ring moved to
// session_history.hpp (included above) when the history became bounded;
// re-exported here so existing includes keep resolving.

/// Why the engine did not accept an inbound message. Each reason is counted
/// in starlink_engine_datagrams_dropped_total{bridge,reason} and maps to one
/// taxonomy code (dropReasonCode).
enum class DropReason : std::uint8_t {
    InactiveAutomaton,  ///< the session is not in the message's automaton
    SendPending,        ///< the session is composing a send
    Unparseable,        ///< the codec rejected the bytes
    NoTransition,       ///< no receive-transition on this message type here
    NoSession,          ///< no single live session matches the message
    SessionCap,         ///< opening message shed: kMaxLiveSessions are live
};
inline constexpr std::size_t kDropReasonCount = 6;

/// Stable label value, e.g. "no-transition".
const char* dropReasonName(DropReason reason);
errc::ErrorCode dropReasonCode(DropReason reason);

/// One color's inbound accounting: every message the network engine hands
/// up is either accepted into a session or dropped for exactly one reason.
struct ColorTraffic {
    std::uint64_t accepted = 0;
    std::array<std::uint64_t, kDropReasonCount> dropped{};

    std::uint64_t droppedTotal() const {
        std::uint64_t total = 0;
        for (const std::uint64_t n : dropped) total += n;
        return total;
    }
};

/// One compiled model generation: a merged automaton, its codecs, the state
/// index and opening color derived from them, the registry version and model
/// identity it came from, and metric handles labelled with both.
struct ModelGeneration {
    /// Throws SpecError(engine.no-codec) when a component has no codec.
    ModelGeneration(std::shared_ptr<const merge::MergedAutomaton> merged,
                    std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs,
                    std::uint64_t version = 0, std::uint64_t identity = 0);

    /// Position of color k's component, or kNoComponent.
    std::size_t componentIndex(std::uint64_t k) const;
    static constexpr std::size_t kNoComponent = static_cast<std::size_t>(-1);
    /// Resolves every metric handle in the first registry it is bound to, so
    /// the hot path never touches the registry mutex.
    void bindMetrics(telemetry::MetricsRegistry& registry);
    /// Resolved on first use: the code space is too wide to pre-register.
    telemetry::Counter* abortedCounter(errc::ErrorCode code);
    telemetry::Histogram* dwellHistogram(const std::string& state);

    const std::shared_ptr<const merge::MergedAutomaton> merged;
    const std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs;
    /// Registry version (0 = no registry in play), stamped into every
    /// SessionRecord and, when non-zero, into every metric as model_version.
    const std::uint64_t version;
    /// models::modelSetIdentity of the compiled spec (0 when synthesized).
    const std::uint64_t identity;
    std::unordered_map<std::string, std::size_t> stateIndex;  ///< -> Session::queues
    std::uint64_t openingColor = 0;  ///< color of the initial state

    struct Metrics {
        telemetry::Counter* sessionsCompleted = nullptr;
        telemetry::Counter* messagesIn = nullptr;
        telemetry::Counter* messagesOut = nullptr;
        telemetry::Counter* retransmits = nullptr;
        std::array<telemetry::Counter*, kDropReasonCount> dropped{};
        telemetry::Histogram* translationMs = nullptr;
        // Previously-invisible accounting, refreshed at session boundaries:
        // span-ring drops, history evictions, arena/recorder memory held.
        telemetry::Gauge* spansDropped = nullptr;
        telemetry::Gauge* historyEvicted = nullptr;
        telemetry::Gauge* arenaBytes = nullptr;
        telemetry::Gauge* arenaChunks = nullptr;
        telemetry::Gauge* recorderBytes = nullptr;
    } metrics;

private:
    /// `name` labelled {bridge, extra..., model_version when versioned}.
    std::string label(std::string_view name,
                      std::initializer_list<telemetry::Label> extra = {}) const;

    telemetry::MetricsRegistry* registry_ = nullptr;
    std::map<errc::ErrorCode, telemetry::Counter*> abortedByCode_;
    std::map<std::string, telemetry::Histogram*> dwellByState_;
};

class AutomataEngine {
public:
    AutomataEngine(std::shared_ptr<ModelGeneration> generation,
                   std::shared_ptr<merge::TranslationRegistry> translations,
                   NetworkEngine& network, automata::ColorRegistry& colors,
                   EngineOptions options = {});
    ~AutomataEngine();

    /// Publishes the constructor's generation and starts listening at q0.
    void start();

    /// Makes `generation` the one new sessions open on and attaches its
    /// colors; live sessions finish on the generation they opened with.
    /// Throws SpecError for a color the registry does not know.
    void publish(std::shared_ptr<ModelGeneration> generation);

    /// Stops serving (the engine ignores traffic afterwards).
    void stop() { running_ = false; }

    bool running() const { return running_; }

    /// How many sessions may be live at once. An opening message past the
    /// cap is shed (DropReason::SessionCap, engine.overload).
    static constexpr std::size_t kMaxLiveSessions = 64;

    std::size_t liveSessionCount() const { return live_.size(); }

    /// The state of the oldest live session; the newest generation's initial
    /// state when none is live (the connector is re-armed at q0).
    const std::string& currentState() const;

    /// Inbound accounting for a color any published generation named (kept
    /// after a detach); nullptr for other colors.
    const ColorTraffic* traffic(std::uint64_t k) const;

    /// Recent session records (bounded ring) plus eviction-proof lifetime
    /// aggregates; see EngineOptions::sessionHistoryCapacity.
    const SessionHistory& sessions() const { return sessions_; }
    /// The generation new sessions open on.
    const std::shared_ptr<ModelGeneration>& generation() const { return newest_; }
    const merge::MergedAutomaton& merged() const { return *newest_->merged; }

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

    /// Codec serving a component color of the newest generation; nullptr
    /// for other colors. Lets the postmortem printer decode captured
    /// payloads per leg.
    std::shared_ptr<mdl::MessageCodec> codecForColor(std::uint64_t k) const {
        const std::size_t index = newest_->componentIndex(k);
        if (index == ModelGeneration::kNoComponent) return nullptr;
        return newest_->codecs.at(newest_->merged->components()[index]->name());
    }

private:
    /// Everything one live conversation owns. Pooled: a finished session's
    /// object -- with its arena chunks, instance queues and open log, and the
    /// network engine's sockets for its slot -- serves a later one.
    struct Session {
        Session(std::size_t slot, telemetry::SpanBuffer& spans,
                telemetry::FlightRecorder& recorder)
            : slot(slot), tracer(spans), log(recorder) {}

        const std::size_t slot;  ///< NetworkEngine session slot == index in pool_
        bool live = false;
        std::shared_ptr<ModelGeneration> model;  ///< the newest when acquired, until the end
        std::uint64_t keyColor = 0;  ///< opening message's color ...
        net::Address keyPeer;        ///< ... and sender
        std::string current;
        bool lastWasDelta = false;
        bool sendPending = false;
        SessionRecord record;
        std::uint64_t ordinal = 0;
        // Provenance for postmortem bundles, captured when the session opens.
        std::uint64_t seed = 0;
        std::uint64_t retrySeed = 0;
        std::uint64_t startRetryDraws = 0;
        std::optional<net::EventId> timeoutEvent;
        std::optional<net::EventId> idleEvent;
        // Retransmission state for the current wait: the last encoded request
        // is kept so a lapsed reply deadline re-sends identical bytes.
        std::optional<net::EventId> retransmitEvent;
        std::optional<Bytes> lastSentPayload;
        std::uint64_t lastSentColor = 0;
        int retransmitsUsed = 0;
        /// Receive arena: parsed String/Bytes field values borrow from the
        /// single datagram copy stored here. Reset (chunks retained) when the
        /// session ends, after the queues holding those views are cleared.
        mdl::RxArena rxArena;
        /// Per-state instance queues, indexed by ModelGeneration::stateIndex.
        std::vector<automata::InstanceQueue> queues;
        telemetry::SessionTracer tracer;
        telemetry::SpanId waitSpan = 0;
        telemetry::FlightRecorder::OpenLog log;
        net::TimePoint stateEnteredAt{};
    };

    void onNetworkMessage(std::uint64_t colorK, const Bytes& payload, const net::Address& from,
                          std::size_t slot);
    void onNetworkFault(const NetworkEngine::Fault& fault);
    /// The live session an unowned arrival belongs to (see header), nullptr
    /// when none does.
    Session* sessionFor(std::uint64_t colorK, const net::Address& from);
    /// An idle pooled session (creating one below the cap) set up on the
    /// newest generation, nullptr at the cap.
    Session* acquireSession();
    /// Hands a session that never opened back to the pool.
    void releaseUnopened(Session& session);
    void openSession(Session& session, std::uint64_t colorK, const net::Address& from);
    void deliver(Session& session, std::size_t componentIdx, std::uint64_t colorK,
                 ColorTraffic& traffic, const Bytes& payload, const net::Address& from);
    void drop(ModelGeneration& generation, ColorTraffic& traffic, DropReason reason);
    void proceed(Session& session);
    /// proceed() with runtime translation failures contained: the session
    /// aborts, the connector survives.
    void safeProceed(Session& session);
    void takeDelta(Session& session, const merge::DeltaTransition& delta);
    void scheduleSend(Session& session, const automata::Transition& transition);
    void performSend(Session& session, const automata::Transition& transition,
                     telemetry::SpanId translateSpan);
    AbstractMessage buildOutgoing(const Session& session, const std::string& stateId,
                                  const std::string& messageType);
    Value resolveRef(const Session& session, const merge::FieldRef& ref,
                     const std::string& transform) const;
    automata::InstanceQueue& queueAt(Session& session, const std::string& stateId);
    void completeSession(Session& session, bool completed, FailureCause cause = FailureCause::None,
                         errc::ErrorCode code = errc::ErrorCode::Ok);
    void armRetransmit(Session& session);
    void onReceiveDeadline(Session& session);
    void cancelRetransmit(Session& session);
    /// (Re-)arms the idle deadline; called on every message in either
    /// direction while a session is live. No-op when idleTimeout is 0.
    void armIdleTimeout(Session& session);
    void cancelIdleTimeout(Session& session);
    static FailureCause classify(const std::exception& error);

    /// State change with per-state dwell accounting (virtual ms spent in the
    /// state being left, while the session is live).
    void enterState(Session& session, const std::string& next);

    /// Drops every held generation but the newest that no live session runs
    /// on, detaching the colors no held generation names any more.
    void retireGenerations();

    std::shared_ptr<merge::TranslationRegistry> translations_;
    NetworkEngine& network_;
    automata::ColorRegistry& colors_;
    EngineOptions options_;

    bool running_ = false;
    std::shared_ptr<ModelGeneration> newest_;
    /// The newest generation and retired ones with live sessions.
    std::vector<std::shared_ptr<ModelGeneration>> held_;
    std::map<std::uint64_t, ColorTraffic> traffic_;  // per color ever attached
    /// Retirement runs as its own event, never inside a socket callback.
    std::optional<net::EventId> retireEvent_;

    // The retransmission-jitter generator is shared by every session (its
    // draws stay in event order); retrySeedInEffect_/retryDrawsSinceSeed_
    // shadow its exact position so a postmortem bundle can re-derive it.
    Rng retryRng_;
    std::uint64_t retrySeedInEffect_ = 0;
    std::uint64_t retryDrawsSinceSeed_ = 0;
    std::uint64_t sessionSeed_ = 0;
    std::uint64_t sessionOrdinal_ = 0;

    /// Compose scratch buffer, reused across every send of the engine's
    /// lifetime so steady-state sessions stop allocating per message.
    Bytes composeScratch_;

    SessionHistory sessions_;

    // --- telemetry -------------------------------------------------------
    // Spans: one buffer per engine, one tracer per session (lent to the
    // network engine for the tcp-connect leg). Metrics: each generation
    // holds its own handles (ModelGeneration::Metrics), resolved at publish
    // in this registry -- EngineOptions::metrics or the process-global one;
    // every metric site is gated on telemetry::enabled().
    telemetry::SpanBuffer spans_;
    telemetry::FlightRecorder recorder_;
    telemetry::MetricsRegistry* registry_ = nullptr;

    // --- sessions (declared last: a Session borrows spans_ and recorder_) ---
    std::vector<std::unique_ptr<Session>> pool_;  // index == slot
    std::vector<Session*> idle_;                  // pooled, not live (LIFO)
    std::vector<Session*> live_;                  // in opening order
};

}  // namespace starlink::engine
