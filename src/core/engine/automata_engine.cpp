#include "core/engine/automata_engine.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace starlink::engine {

using automata::Action;
using automata::ColoredAutomaton;
using automata::State;
using automata::Transition;

AutomataEngine::AutomataEngine(std::shared_ptr<merge::MergedAutomaton> merged,
                               std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs,
                               std::shared_ptr<merge::TranslationRegistry> translations,
                               NetworkEngine& network, automata::ColorRegistry& colors,
                               EngineOptions options)
    : merged_(std::move(merged)),
      codecs_(std::move(codecs)),
      translations_(std::move(translations)),
      network_(network),
      colors_(colors),
      options_(options),
      retryRng_(options.retrySeed),
      sessions_(options.sessionHistoryCapacity),
      spans_(options.spanCapacity),
      tracer_(spans_),
      recorder_(options.recorderSessionBytes) {
    retrySeedInEffect_ = options_.retrySeed;
    for (const auto& component : merged_->components()) {
        if (!codecs_.contains(component->name())) {
            throw SpecError(errc::ErrorCode::EngineNoCodec,
                            "automata engine: no codec supplied for component '" +
                                component->name() + "'");
        }
    }

    // Resolve every engine metric once; hot-path sites record through these
    // pointers behind the telemetry::enabled() flag.
    registry_ = options_.metrics != nullptr ? options_.metrics
                                            : &telemetry::MetricsRegistry::global();
    auto& registry = *registry_;
    const auto named = [&](std::string_view name) {
        // Engines deployed through the model registry carry their version in
        // every metric, so canary and stable cohorts separate in /metrics.
        if (options_.modelVersion != 0) {
            return telemetry::labeled(
                name, {{"bridge", merged_->name()},
                       {"model_version", std::to_string(options_.modelVersion)}});
        }
        return telemetry::labeled(name, {{"bridge", merged_->name()}});
    };
    metrics_.sessionsCompleted =
        &registry.counter(named("starlink_engine_sessions_completed_total"));
    metrics_.messagesIn = &registry.counter(named("starlink_engine_messages_in_total"));
    metrics_.messagesOut = &registry.counter(named("starlink_engine_messages_out_total"));
    metrics_.retransmits = &registry.counter(named("starlink_engine_retransmits_total"));
    metrics_.translationMs = &registry.histogram(
        named("starlink_engine_translation_ms"),
        {50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600});
    // Bookkeeping previously invisible from the outside, refreshed at every
    // session boundary (gauges, not counters: they report current state).
    metrics_.spansDropped = &registry.gauge(named("starlink_telemetry_spans_dropped"));
    metrics_.historyEvicted =
        &registry.gauge(named("starlink_engine_session_history_evicted"));
    metrics_.arenaBytes = &registry.gauge(named("starlink_mdl_rx_arena_reserved_bytes"));
    metrics_.arenaChunks = &registry.gauge(named("starlink_mdl_rx_arena_chunks"));
    metrics_.recorderBytes =
        &registry.gauge(named("starlink_telemetry_recorder_reserved_bytes"));

    // Let the network engine hang its tcp-connect legs onto this engine's
    // session tree, and mirror its wire traffic into the flight recorder.
    network_.setTracer(&tracer_);
    network_.setRecorder(&recorder_);
}

AutomataEngine::~AutomataEngine() {
    network_.setTracer(nullptr);
    network_.setRecorder(nullptr);
}

telemetry::Counter* AutomataEngine::abortedCounter(errc::ErrorCode code) {
    const auto it = abortedByCode_.find(code);
    if (it != abortedByCode_.end()) return it->second;
    // The `code` label is the numeric taxonomy value, `cause` its stable
    // dotted name -- one counter per exact abort code, replacing the old
    // 5-bucket FailureCause array.
    const std::string codeValue = std::to_string(errc::to_error_code(code));
    const std::string name =
        options_.modelVersion != 0
            ? telemetry::labeled(
                  "starlink_engine_sessions_aborted_total",
                  {{"bridge", merged_->name()},
                   {"code", codeValue},
                   {"cause", errc::to_string(code)},
                   {"model_version", std::to_string(options_.modelVersion)}})
            : telemetry::labeled("starlink_engine_sessions_aborted_total",
                                 {{"bridge", merged_->name()},
                                  {"code", codeValue},
                                  {"cause", errc::to_string(code)}});
    telemetry::Counter* counter = &registry_->counter(name);
    abortedByCode_.emplace(code, counter);
    return counter;
}

telemetry::Histogram* AutomataEngine::dwellHistogram(const std::string& state) {
    const auto it = dwellByState_.find(state);
    if (it != dwellByState_.end()) return it->second;
    telemetry::Histogram* h = &registry_->histogram(
        telemetry::labeled("starlink_engine_state_dwell_ms",
                           {{"bridge", merged_->name()}, {"state", state}}),
        {1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000});
    dwellByState_.emplace(state, h);
    return h;
}

void AutomataEngine::enterState(const std::string& next) {
    if (telemetry::enabled() && sessionActive_) {
        const net::TimePoint now = network_.network().now();
        const auto dwell =
            std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                now - stateEnteredAt_);
        dwellHistogram(current_)->observe(dwell.count());
        stateEnteredAt_ = now;
    }
    current_ = next;
}

const ColoredAutomaton* AutomataEngine::componentByColor(std::uint64_t k) const {
    for (const auto& component : merged_->components()) {
        if (component->color() == k) return component.get();
    }
    return nullptr;
}

std::shared_ptr<mdl::MessageCodec> AutomataEngine::codecFor(const ColoredAutomaton& a) const {
    return codecs_.at(a.name());
}

void AutomataEngine::start() {
    merged_->validate();
    for (const auto& component : merged_->components()) {
        const std::uint64_t k = component->color();
        const automata::Color* color = colors_.lookup(k);
        if (color == nullptr) {
            throw SpecError(errc::ErrorCode::EngineColorUnknown,
                            "automata engine: color " + std::to_string(k) +
                                " of component '" + component->name() +
                                "' is not in the color registry");
        }
        // Server role when the component's protocol conversation opens with
        // a receive (the bridge impersonates that protocol's service side).
        bool serverRole = false;
        for (const automata::Transition* t :
             component->transitionsFrom(component->initialState())) {
            if (t->action == Action::Receive) serverRole = true;
        }
        network_.attach(k, *color, serverRole);
    }
    network_.setHandler([this](std::uint64_t k, const Bytes& payload, const net::Address& from) {
        onNetworkMessage(k, payload, from);
    });
    network_.setFaultHandler([this](std::uint64_t k, NetworkFault fault,
                                    const std::string& detail) {
        onNetworkFault(k, fault, detail);
    });
    current_ = merged_->initialState();
    running_ = true;
    STARLINK_LOG(Info, "engine") << "bridge '" << merged_->name() << "' listening at "
                                 << current_;
}

void AutomataEngine::onNetworkMessage(std::uint64_t colorK, const Bytes& payload,
                                      const net::Address& from) {
    if (!running_) return;
    const ColoredAutomaton* component = componentByColor(colorK);
    if (component == nullptr) return;
    if (component->state(current_) == nullptr) {
        STARLINK_LOG(Debug, "engine") << "ignoring " << payload.size()
                                      << "-byte message from " << from.toString()
                                      << ": automaton '" << component->name()
                                      << "' is not active";
        return;
    }
    if (sendPending_) {
        STARLINK_LOG(Debug, "engine") << "ignoring message while a send is in progress";
        return;
    }

    std::string parseError;
    const std::uint64_t parseWall0 = tracer_.enabled() ? telemetry::wallNowNs() : 0;
    // Zero-copy path: field values borrow from the arena's datagram copy.
    // Everything parsed here dies before the session boundary (stored
    // automaton instances, this frame).
    auto message = codecFor(*component)->parse(payload, &rxArena_, &parseError);
    const std::uint64_t parseWallNs =
        parseWall0 != 0 ? telemetry::wallSinceNs(parseWall0) : 0;
    if (!message) {
        STARLINK_LOG(Warn, "engine") << "unparseable " << component->name()
                                     << " message from " << from.toString() << ": "
                                     << parseError;
        // No live session, no surviving views: drop the junk datagram's arena
        // bytes so a pre-session flood cannot grow the arena without bound.
        if (!sessionActive_) rxArena_.reset();
        return;
    }

    const Transition* transition =
        component->transitionFor(current_, Action::Receive, message->type());
    if (transition == nullptr) {
        STARLINK_LOG(Debug, "engine") << "no receive-transition from " << current_ << " on ?"
                                      << message->type() << "; dropping";
        if (!sessionActive_) rxArena_.reset();
        return;
    }

    if (!sessionActive_) {
        sessionActive_ = true;
        liveSession_ = SessionRecord{};
        liveSession_.firstReceive = network_.network().now();
        stateEnteredAt_ = liveSession_.firstReceive;
        ++sessionOrdinal_;
        // The jitter generator's position at session start: a postmortem
        // bundle re-derives it as (seed, draws burned).
        sessionStartRetryDraws_ = retryDrawsSinceSeed_;
        recorder_.beginSession(sessionOrdinal_,
                               liveSession_.firstReceive.time_since_epoch().count());
        if (tracer_.enabled()) {
            const telemetry::SpanId root = tracer_.beginSession(liveSession_.firstReceive);
            tracer_.attr(root, "bridge", merged_->name());
        }
        if (options_.sessionTimeout.count() > 0) {
            timeoutEvent_ = network_.network().scheduler().schedule(
                options_.sessionTimeout, [this] {
                    timeoutEvent_.reset();
                    if (sessionActive_) {
                        STARLINK_LOG(Warn, "engine") << "session timed out in state " << current_;
                        completeSession(false, FailureCause::Timeout,
                                        errc::ErrorCode::EngineSessionTimeout);
                    }
                });
        }
    }
    ++liveSession_.messagesIn;
    if (telemetry::enabled()) metrics_.messagesIn->add();
    // The wait is over: an accepted message stands down the pending
    // retransmission deadline, and the idle deadline re-arms from now.
    cancelRetransmit();
    armIdleTimeout();
    if (tracer_.inSession()) {
        const net::TimePoint now = network_.network().now();
        if (waitSpan_ != 0) {
            tracer_.attr(waitSpan_, "message_type", message->type());
            tracer_.end(waitSpan_, now);
            waitSpan_ = 0;
        }
        const telemetry::SpanId parseSpan = tracer_.instant("parse", now, parseWallNs);
        tracer_.attr(parseSpan, "protocol", component->name());
        tracer_.attr(parseSpan, "message_type", message->type());
        tracer_.attr(parseSpan, "state", current_);
        tracer_.attr(parseSpan, "bytes", std::to_string(payload.size()));
    }
    // Only an accepted message establishes the reply route for its color.
    network_.notePeer(colorK, from);
    if (recorder_.inSession()) {
        const std::int64_t ts = network_.network().now().time_since_epoch().count();
        recorder_.recordRx(ts, colorK, from.toString(), network_.endpointAddress(colorK),
                           payload);
        recorder_.recordTransition(ts, component->name(), transition->from, transition->to,
                                   telemetry::WireEvent::kActionReceive, message->type());
    }

    // Store the instance at the entered state (see header note) and advance.
    // The stored message may hold arena views -- legal, it dies at the
    // session boundary before the arena resets.
    merged_->automatonOf(transition->to)->state(transition->to)->pushMessage(
        std::move(*message));
    enterState(transition->to);
    lastWasDelta_ = false;
    safeProceed();
}

FailureCause AutomataEngine::classify(const std::exception& error) {
    if (dynamic_cast<const ConnectRefusedError*>(&error) != nullptr) {
        return FailureCause::ConnectRefused;
    }
    if (dynamic_cast<const PeerClosedError*>(&error) != nullptr) {
        return FailureCause::PeerClosed;
    }
    return FailureCause::DecodeError;
}

void AutomataEngine::safeProceed() {
    // Translation failures at runtime (a peer's message lacking a field an
    // assignment needs, a value a T function rejects, an unencodable
    // compose) abort the CONVERSATION, never the connector: the bridge logs,
    // resets, and keeps serving.
    try {
        proceed();
    } catch (const std::exception& error) {
        STARLINK_LOG(Error, "engine") << "session aborted in state " << current_ << ": "
                                      << error.what();
        // Record the throwing layer's exact code (merge.translation-rejected,
        // codec.compose, ...); an uncoded exception records Unclassified,
        // which the fuzz harness counts as a taxonomy escape.
        if (sessionActive_) completeSession(false, classify(error), starlink::to_error_code(error));
    }
}

void AutomataEngine::onNetworkFault(std::uint64_t colorK, NetworkFault fault,
                                    const std::string& detail) {
    if (!running_ || !sessionActive_) return;
    // Only fatal when the session is currently engaged with the faulting
    // color: a peer closing a connection the conversation has moved past
    // (e.g. an HTTP client hanging up after its fetch) is routine.
    const ColoredAutomaton* component = componentByColor(colorK);
    if (component == nullptr || component->state(current_) == nullptr) {
        STARLINK_LOG(Debug, "engine") << "ignoring off-session network fault: " << detail;
        return;
    }
    STARLINK_LOG(Warn, "engine") << "session aborted by network fault in state " << current_
                                 << ": " << detail;
    completeSession(false, fault == NetworkFault::ConnectRefused ? FailureCause::ConnectRefused
                                                                 : FailureCause::PeerClosed);
}

void AutomataEngine::proceed() {
    while (running_ && sessionActive_) {
        const ColoredAutomaton* component = merged_->automatonOf(current_);

        // 1. Delta-transition, unless we just arrived through one.
        if (!lastWasDelta_) {
            if (const merge::DeltaTransition* delta = merged_->deltaFrom(current_)) {
                takeDelta(*delta);
                continue;
            }
        }

        // 2. Unique send-transition.
        const Transition* send = nullptr;
        bool hasReceive = false;
        for (const Transition* t : component->transitionsFrom(current_)) {
            if (t->action == Action::Send) {
                if (send != nullptr) {
                    throw SpecError(errc::ErrorCode::EngineAmbiguousSend,
                                    "automata engine: state '" + current_ +
                                        "' has several outgoing send-transitions; the merged "
                                        "automaton is ambiguous");
                }
                send = t;
            } else {
                hasReceive = true;
            }
        }
        if (send != nullptr) {
            scheduleSend(*send);
            return;
        }

        // 3. Wait or finish.
        lastWasDelta_ = false;
        const bool canMoveOn = hasReceive || merged_->deltaFrom(current_) != nullptr;
        if (!canMoveOn && merged_->acceptingStates().contains(current_)) {
            completeSession(true);
            return;
        }
        // Settling into a wait: give the silence a deadline so a lost
        // datagram (ours or the peer's reply) is re-solicited instead of
        // wedging the conversation.
        if (hasReceive && sessionActive_) {
            if (tracer_.inSession() && waitSpan_ == 0) {
                waitSpan_ = tracer_.begin("receive-wait", network_.network().now());
                tracer_.attr(waitSpan_, "state", current_);
            }
            armRetransmit();
        }
        return;
    }
}

void AutomataEngine::takeDelta(const merge::DeltaTransition& delta) {
    for (const merge::NetworkAction& action : delta.actions) {
        if (action.name == "set_host") {
            if (action.args.size() != 2) {
                throw SpecError(errc::ErrorCode::BridgeInvalid,
                                "automata engine: set_host expects (host, port) arguments");
            }
            const Value host = resolveRef(action.args[0].ref, action.args[0].transform);
            const Value port = resolveRef(action.args[1].ref, action.args[1].transform);
            const auto hostText = host.coerceTo(ValueType::String);
            const auto portInt = port.coerceTo(ValueType::Int);
            if (!hostText || !portInt) {
                throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                                "automata engine: set_host arguments do not resolve to "
                                "host text and numeric port");
            }
            const ColoredAutomaton* target = merged_->automatonOf(delta.to);
            network_.setHost(target->color(), *hostText->asString(),
                             static_cast<int>(*portInt->asInt()));
        } else {
            throw SpecError(errc::ErrorCode::EngineUnknownAction,
                            "automata engine: unknown lambda action '" + action.name + "'");
        }
    }
    if (recorder_.inSession()) {
        recorder_.recordTransition(network_.network().now().time_since_epoch().count(),
                                   merged_->automatonOf(delta.from)->name(), delta.from,
                                   delta.to, telemetry::WireEvent::kActionDelta, "");
    }
    STARLINK_LOG(Debug, "engine") << "delta " << delta.from << " -> " << delta.to;
    enterState(delta.to);
    lastWasDelta_ = true;
}

void AutomataEngine::scheduleSend(const Transition& transition) {
    sendPending_ = true;
    // The translate leg opens NOW: its virtual extent is exactly the
    // processingDelay window the session is about to be charged.
    telemetry::SpanId translateSpan = 0;
    if (tracer_.inSession()) {
        translateSpan = tracer_.begin("translate", network_.network().now());
        tracer_.attr(translateSpan, "state", transition.from);
        tracer_.attr(translateSpan, "message_type", transition.messageType);
        tracer_.attr(translateSpan, "automaton",
                     merged_->automatonOf(transition.from)->name());
    }
    // The interpretation cost of translating + composing, charged in virtual
    // time so Fig 12(b)-style measures include it.
    // Copy the transition: the engine may outlive iterator stability games.
    network_.network().scheduler().schedule(options_.processingDelay,
                                            [this, transition = transition, translateSpan] {
        if (!running_ || !sessionActive_) return;
        try {
            performSend(transition, translateSpan);
        } catch (const std::exception& error) {
            STARLINK_LOG(Error, "engine") << "send of !" << transition.messageType
                                          << " failed, aborting session: " << error.what();
            completeSession(false, classify(error), starlink::to_error_code(error));
        }
    });
}

void AutomataEngine::performSend(const Transition& transition,
                                 telemetry::SpanId translateSpan) {
    ColoredAutomaton* component = merged_->automatonOf(transition.from);
    const bool tracing = tracer_.inSession() && translateSpan != 0;
    const net::TimePoint now = network_.network().now();
    if (recorder_.inSession()) {
        recorder_.recordTranslate(now.time_since_epoch().count(), transition.from,
                                  transition.messageType);
    }

    std::uint64_t wall0 = tracing ? telemetry::wallNowNs() : 0;
    AbstractMessage outgoing = buildOutgoing(transition.from, transition.messageType);
    if (tracing) {
        tracer_.instant("translation-logic", now, telemetry::wallSinceNs(wall0),
                        translateSpan);
        wall0 = telemetry::wallNowNs();
    }
    // Compose into the engine-lifetime scratch buffer: steady-state sessions
    // reuse one allocation instead of growing a fresh Bytes per message.
    codecFor(*component)->composeInto(outgoing, composeScratch_);
    if (tracing) {
        const telemetry::SpanId composeSpan =
            tracer_.instant("compose", now, telemetry::wallSinceNs(wall0), translateSpan);
        tracer_.attr(composeSpan, "protocol", component->name());
        tracer_.attr(composeSpan, "bytes", std::to_string(composeScratch_.size()));
        wall0 = telemetry::wallNowNs();
    }
    network_.send(component->color(), composeScratch_);
    if (recorder_.inSession()) {
        // The Tx event itself is recorded by the network engine at the
        // actual wire moment (live send vs backlog flush); here only the
        // automaton step.
        recorder_.recordTransition(now.time_since_epoch().count(), component->name(),
                                   transition.from, transition.to,
                                   telemetry::WireEvent::kActionSend, transition.messageType);
    }
    if (tracing) {
        const telemetry::SpanId sendSpan =
            tracer_.instant("send", now, telemetry::wallSinceNs(wall0), translateSpan);
        tracer_.attr(sendSpan, "bytes", std::to_string(composeScratch_.size()));
    }

    // Keep the encoded request: if the following wait's deadline lapses the
    // engine re-sends these exact bytes. A fresh send resets the per-wait
    // retry budget.
    lastSentColor_ = component->color();
    lastSentPayload_ = composeScratch_;
    retransmitsUsed_ = 0;

    component->state(transition.from)->pushMessage(std::move(outgoing));
    liveSession_.lastSend = now;
    if (!liveSession_.clientReply &&
        component == merged_->automatonOf(merged_->initialState())) {
        liveSession_.clientReply = liveSession_.lastSend;
    }
    ++liveSession_.messagesOut;
    if (telemetry::enabled()) metrics_.messagesOut->add();
    armIdleTimeout();
    if (tracing) tracer_.end(translateSpan, now);
    STARLINK_LOG(Debug, "engine") << "sent !" << transition.messageType << " from "
                                  << transition.from;

    enterState(transition.to);
    lastWasDelta_ = false;
    sendPending_ = false;
    proceed();
}

AbstractMessage AutomataEngine::buildOutgoing(const std::string& stateId,
                                              const std::string& messageType) {
    AbstractMessage message(messageType);
    for (const merge::Assignment* assignment :
         merged_->assignmentsTargeting(stateId, messageType)) {
        Value value;
        if (assignment->source) {
            value = resolveRef(*assignment->source, assignment->transform);
        } else {
            value = Value::ofString(assignment->constant.value_or(""));
            if (!assignment->transform.empty()) {
                // Deploy validates transform names, so reaching an unknown
                // one here means the registry changed at runtime; keep the
                // error distinct from a function genuinely rejecting a value.
                if (!translations_->contains(assignment->transform)) {
                    throw SpecError(errc::ErrorCode::TranslationUnknown,
                                    "automata engine: unknown translation '" +
                                        assignment->transform +
                                        "' (removed from the registry after deploy?)");
                }
                const auto transformed = translations_->apply(assignment->transform, value);
                if (!transformed) {
                    throw SpecError(errc::ErrorCode::TranslationRejected,
                                    "automata engine: translation '" + assignment->transform +
                                        "' rejected constant '" +
                                        assignment->constant.value_or("") + "'");
                }
                value = *transformed;
            }
        }
        message.setValue(assignment->target.path, value,
                         std::string(valueTypeName(value.type())));
    }
    return message;
}

Value AutomataEngine::resolveRef(const merge::FieldRef& ref, const std::string& transform) const {
    const ColoredAutomaton* component = merged_->automatonOf(ref.state);
    if (component == nullptr) {
        throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                        "automata engine: field reference " + ref.toString() +
                            " names an unknown state");
    }
    const AbstractMessage* message = component->state(ref.state)->message(ref.messageType);
    if (message == nullptr) {
        throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                        "automata engine: no instance of " + ref.messageType +
                            " stored at state " + ref.state + " (needed by " + ref.toString() +
                            ")");
    }
    const auto value = message->value(ref.path);
    if (!value) {
        throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                        "automata engine: message " + ref.messageType + " at " + ref.state +
                            " has no field '" + ref.path + "'");
    }
    if (transform.empty()) return *value;
    if (!translations_->contains(transform)) {
        throw SpecError(errc::ErrorCode::TranslationUnknown,
                        "automata engine: unknown translation '" + transform +
                            "' (removed from the registry after deploy?)");
    }
    const auto transformed = translations_->apply(transform, *value);
    if (!transformed) {
        throw SpecError(errc::ErrorCode::TranslationRejected,
                        "automata engine: translation '" + transform + "' rejected value '" +
                            value->toText() + "' of " + ref.toString());
    }
    return *transformed;
}

void AutomataEngine::cancelRetransmit() {
    if (retransmitEvent_) {
        network_.network().scheduler().cancel(*retransmitEvent_);
        retransmitEvent_.reset();
    }
}

void AutomataEngine::armRetransmit() {
    cancelRetransmit();
    if (options_.maxRetransmits <= 0 || !lastSentPayload_) return;
    const automata::Color* color = colors_.lookup(lastSentColor_);
    // Only datagram requests are worth re-sending: tcp delivers reliably, and
    // its genuine failures arrive as connect-refused/peer-closed faults.
    if (color == nullptr || color->transport() != "udp") return;
    const net::Duration deadline = options_.receiveTimeout;
    if (deadline.count() <= 0) return;
    double scale = 1.0;
    for (int attempt = 0; attempt < retransmitsUsed_; ++attempt) {
        scale *= options_.retransmitBackoff;
    }
    net::Duration wait{static_cast<net::Duration::rep>(
        static_cast<double>(deadline.count()) * scale)};
    if (options_.retransmitJitter.count() > 0) {
        wait += net::Duration{retryRng_.range(0, options_.retransmitJitter.count())};
        ++retryDrawsSinceSeed_;  // range() consumes exactly one draw
    }
    retransmitEvent_ = network_.network().scheduler().schedule(wait, [this] {
        retransmitEvent_.reset();
        onReceiveDeadline();
    });
}

void AutomataEngine::onReceiveDeadline() {
    if (!running_ || !sessionActive_ || !lastSentPayload_) return;
    if (retransmitsUsed_ >= options_.maxRetransmits) {
        STARLINK_LOG(Warn, "engine") << "no reply in state " << current_ << " after "
                                     << retransmitsUsed_
                                     << " retransmissions; aborting session";
        // Coarse cause stays Timeout for compatibility; the code tells a
        // drained retry budget apart from the session watchdog.
        completeSession(false, FailureCause::Timeout, errc::ErrorCode::EngineRetryExhausted);
        return;
    }
    ++retransmitsUsed_;
    ++liveSession_.retransmits;
    if (telemetry::enabled()) metrics_.retransmits->add();
    STARLINK_LOG(Debug, "engine") << "reply deadline lapsed in state " << current_
                                  << "; retransmission " << retransmitsUsed_ << "/"
                                  << options_.maxRetransmits;
    try {
        network_.send(lastSentColor_, *lastSentPayload_);
    } catch (const std::exception& error) {
        STARLINK_LOG(Error, "engine") << "retransmission failed, aborting session: "
                                      << error.what();
        completeSession(false, classify(error), starlink::to_error_code(error));
        return;
    }
    // The re-sent request is a real datagram on the wire: count it, so the
    // session record agrees with the network engine's per-color counters.
    ++liveSession_.messagesOut;
    if (telemetry::enabled()) metrics_.messagesOut->add();
    if (tracer_.inSession()) {
        const telemetry::SpanId id = tracer_.instant(
            "retransmit", network_.network().now(), 0, waitSpan_);
        tracer_.attr(id, "state", current_);
        tracer_.attr(id, "attempt", std::to_string(retransmitsUsed_));
        tracer_.attr(id, "bytes", std::to_string(lastSentPayload_->size()));
    }
    armRetransmit();
}

void AutomataEngine::completeSession(bool completed, FailureCause cause, errc::ErrorCode code) {
    liveSession_.completed = completed;
    liveSession_.cause = completed ? FailureCause::None : cause;
    // Exact code when the abort path supplied one; otherwise the coarse
    // cause's floor code. Unclassified (an uncoded exception) is preserved,
    // not masked -- it is the taxonomy-escape signal the fuzzers hunt.
    liveSession_.code = completed ? errc::ErrorCode::Ok
                        : code != errc::ErrorCode::Ok ? code
                                                      : to_error_code(liveSession_.cause);
    liveSession_.modelVersion = options_.modelVersion;
    sessions_.record(liveSession_);
    if (telemetry::enabled()) {
        if (completed) {
            metrics_.sessionsCompleted->add();
        } else {
            abortedCounter(liveSession_.code)->add();
        }
        metrics_.translationMs->observe(
            std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                liveSession_.translationTime())
                .count());
    }
    const std::uint64_t spanSession = tracer_.inSession() ? tracer_.sessionOrdinal() : 0;
    if (tracer_.inSession()) {
        const net::TimePoint now = network_.network().now();
        if (waitSpan_ != 0) {
            // The wait genuinely ends here (watchdog / budget exhaustion),
            // not as a truncation artifact.
            tracer_.end(waitSpan_, now);
        }
        const telemetry::SpanId root = tracer_.sessionSpan();
        tracer_.attr(root, "result",
                     completed ? "completed" : failureCauseName(liveSession_.cause));
        if (!completed) {
            tracer_.attr(root, "error_code",
                         std::to_string(errc::to_error_code(liveSession_.code)));
            tracer_.attr(root, "error_name", errc::to_string(liveSession_.code));
        }
        tracer_.attr(root, "messages_in", std::to_string(liveSession_.messagesIn));
        tracer_.attr(root, "messages_out", std::to_string(liveSession_.messagesOut));
        tracer_.attr(root, "retransmits", std::to_string(liveSession_.retransmits));
        tracer_.attr(root, "translation_us",
                     std::to_string(liveSession_.translationTime().count()));
        tracer_.endSession(now);
    }
    waitSpan_ = 0;
    if (recorder_.inSession()) {
        recorder_.endSession(network_.network().now().time_since_epoch().count(),
                             errc::to_error_code(liveSession_.code),
                             static_cast<std::uint8_t>(liveSession_.cause),
                             liveSession_.completed, liveSession_.messagesIn,
                             liveSession_.messagesOut, liveSession_.retransmits);
        // Any non-zero terminal code ships a postmortem bundle to the spool:
        // the captured events plus everything replay needs to re-run them.
        if (!liveSession_.completed && options_.postmortemSpool != nullptr &&
            recorder_.last() != nullptr) {
            const telemetry::FlightRecorder::SessionLog& log = *recorder_.last();
            telemetry::PostmortemBundle bundle;
            bundle.bridge = merged_->name();
            bundle.caseSlug = options_.recorderCase;
            bundle.bridgeHost = options_.bridgeHost;
            bundle.shard = options_.shardId;
            bundle.sessionOrdinal = sessionOrdinal_;
            bundle.sessionSeed = sessionSeed_;
            bundle.retrySeed = retrySeedInEffect_;
            bundle.retryDraws = sessionStartRetryDraws_;
            bundle.modelIdentity = options_.modelIdentity;
            bundle.abortCode = errc::to_error_code(liveSession_.code);
            bundle.cause = static_cast<std::uint8_t>(liveSession_.cause);
            bundle.processingDelayUs = options_.processingDelay.count();
            bundle.sessionTimeoutUs = options_.sessionTimeout.count();
            bundle.receiveTimeoutUs = options_.receiveTimeout.count();
            bundle.retransmitJitterUs = options_.retransmitJitter.count();
            bundle.idleTimeoutUs = options_.idleTimeout.count();
            bundle.tcpConnectRetryDelayUs = options_.tcpConnectRetryDelay.count();
            bundle.tcpConnectRetryMaxDelayUs = options_.tcpConnectRetryMaxDelay.count();
            bundle.maxRetransmits = options_.maxRetransmits;
            bundle.tcpConnectAttempts = options_.tcpConnectAttempts;
            bundle.retransmitBackoffMicros = static_cast<std::int64_t>(
                options_.retransmitBackoff * 1e6 + 0.5);
            bundle.tcpMaxBacklogBytes = options_.tcpMaxBacklogBytes;
            bundle.truncated = log.truncated;
            bundle.droppedEvents = log.droppedEvents;
            bundle.events = log.events;
            if (spanSession != 0) {
                for (telemetry::Span& span : spans_.snapshot()) {
                    if (span.session == spanSession) bundle.spans.push_back(std::move(span));
                }
            }
            options_.postmortemSpool->write(bundle);
        }
    }
    if (telemetry::enabled()) {
        metrics_.spansDropped->set(static_cast<std::int64_t>(spans_.dropped()));
        metrics_.historyEvicted->set(static_cast<std::int64_t>(sessions_.evicted()));
        metrics_.arenaBytes->set(static_cast<std::int64_t>(rxArena_.bytesReserved()));
        metrics_.arenaChunks->set(static_cast<std::int64_t>(rxArena_.chunkCount()));
        metrics_.recorderBytes->set(static_cast<std::int64_t>(recorder_.bytesReserved()));
    }
    if (timeoutEvent_) {
        network_.network().scheduler().cancel(*timeoutEvent_);
        timeoutEvent_.reset();
    }
    cancelIdleTimeout();
    cancelRetransmit();
    lastSentPayload_.reset();
    retransmitsUsed_ = 0;
    STARLINK_LOG(Info, "engine") << "session " << (completed ? "completed" : "aborted")
                                 << " after " << liveSession_.messagesIn << " in / "
                                 << liveSession_.messagesOut << " out"
                                 << (completed ? ""
                                               : std::string(" (cause: ") +
                                                     failureCauseName(liveSession_.cause) +
                                                     ", code: " +
                                                     errc::to_string(liveSession_.code) + ")");
    if (onSessionComplete) onSessionComplete(liveSession_);

    sessionActive_ = false;
    sendPending_ = false;
    lastWasDelta_ = false;
    merged_->reset();
    network_.resetSession();
    current_ = merged_->initialState();
    // Every holder of arena-backed views is gone (stored instances reset
    // above): rewind the arena, keeping its chunks, so the next session
    // parses into warm memory.
    rxArena_.reset();
}

void AutomataEngine::armIdleTimeout() {
    cancelIdleTimeout();
    if (!sessionActive_ || options_.idleTimeout.count() <= 0) return;
    idleEvent_ = network_.network().scheduler().schedule(options_.idleTimeout, [this] {
        idleEvent_.reset();
        if (!sessionActive_) return;
        STARLINK_LOG(Warn, "engine") << "session idle in state " << current_ << " for "
                                     << options_.idleTimeout.count() << "us; evicting";
        completeSession(false, FailureCause::Timeout, errc::ErrorCode::EngineIdleTimeout);
    });
}

void AutomataEngine::cancelIdleTimeout() {
    if (idleEvent_) {
        network_.network().scheduler().cancel(*idleEvent_);
        idleEvent_.reset();
    }
}

}  // namespace starlink::engine
