#include "core/engine/automata_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace starlink::engine {

using automata::Action;
using automata::ColoredAutomaton;
using automata::State;
using automata::Transition;

ModelGeneration::ModelGeneration(std::shared_ptr<const merge::MergedAutomaton> merged,
                                 std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs,
                                 std::uint64_t version, std::uint64_t identity)
    : merged(std::move(merged)), codecs(std::move(codecs)), version(version), identity(identity) {
    for (const auto& component : this->merged->components()) {
        if (!this->codecs.contains(component->name())) {
            throw SpecError(errc::ErrorCode::EngineNoCodec,
                            "automata engine: no codec supplied for component '" +
                                component->name() + "'");
        }
        for (const State* state : component->states()) {
            stateIndex.emplace(state->id(), stateIndex.size());
        }
    }
    openingColor = this->merged->automatonOf(this->merged->initialState())->color();
}

std::string ModelGeneration::label(std::string_view name,
                                   std::initializer_list<telemetry::Label> extra) const {
    // Versioned generations carry their version in every metric, so canary
    // and stable cohorts separate in /metrics.
    const std::string versionText = std::to_string(version);
    std::vector<telemetry::Label> labels{{"bridge", merged->name()}};
    labels.insert(labels.end(), extra);
    if (version != 0) labels.emplace_back("model_version", versionText);
    return telemetry::labeled(name, labels);
}

void ModelGeneration::bindMetrics(telemetry::MetricsRegistry& registry) {
    if (registry_ != nullptr) return;
    registry_ = &registry;
    metrics.sessionsCompleted =
        &registry.counter(label("starlink_engine_sessions_completed_total"));
    metrics.messagesIn = &registry.counter(label("starlink_engine_messages_in_total"));
    metrics.messagesOut = &registry.counter(label("starlink_engine_messages_out_total"));
    metrics.retransmits = &registry.counter(label("starlink_engine_retransmits_total"));
    for (std::size_t r = 0; r < kDropReasonCount; ++r) {
        metrics.dropped[r] =
            &registry.counter(label("starlink_engine_datagrams_dropped_total",
                                    {{"reason", dropReasonName(static_cast<DropReason>(r))}}));
    }
    metrics.translationMs = &registry.histogram(
        label("starlink_engine_translation_ms"),
        {50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600});
    // Bookkeeping previously invisible from the outside, refreshed at every
    // session boundary (gauges, not counters: they report current state).
    metrics.spansDropped = &registry.gauge(label("starlink_telemetry_spans_dropped"));
    metrics.historyEvicted = &registry.gauge(label("starlink_engine_session_history_evicted"));
    metrics.arenaBytes = &registry.gauge(label("starlink_mdl_rx_arena_reserved_bytes"));
    metrics.arenaChunks = &registry.gauge(label("starlink_mdl_rx_arena_chunks"));
    metrics.recorderBytes = &registry.gauge(label("starlink_telemetry_recorder_reserved_bytes"));
}

telemetry::Counter* ModelGeneration::abortedCounter(errc::ErrorCode code) {
    const auto it = abortedByCode_.find(code);
    if (it != abortedByCode_.end()) return it->second;
    // The `code` label is the numeric taxonomy value, `cause` its stable
    // dotted name -- one counter per exact abort code.
    const std::string codeValue = std::to_string(errc::to_error_code(code));
    telemetry::Counter* counter = &registry_->counter(
        label("starlink_engine_sessions_aborted_total",
              {{"code", codeValue}, {"cause", errc::to_string(code)}}));
    abortedByCode_.emplace(code, counter);
    return counter;
}

telemetry::Histogram* ModelGeneration::dwellHistogram(const std::string& state) {
    const auto it = dwellByState_.find(state);
    if (it != dwellByState_.end()) return it->second;
    telemetry::Histogram* h = &registry_->histogram(
        telemetry::labeled("starlink_engine_state_dwell_ms",
                           {{"bridge", merged->name()}, {"state", state}}),
        {1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000});
    dwellByState_.emplace(state, h);
    return h;
}

std::size_t ModelGeneration::componentIndex(std::uint64_t k) const {
    const auto& components = merged->components();
    for (std::size_t i = 0; i < components.size(); ++i) {
        if (components[i]->color() == k) return i;
    }
    return kNoComponent;
}

AutomataEngine::AutomataEngine(std::shared_ptr<ModelGeneration> generation,
                               std::shared_ptr<merge::TranslationRegistry> translations,
                               NetworkEngine& network, automata::ColorRegistry& colors,
                               EngineOptions options)
    : translations_(std::move(translations)),
      network_(network),
      colors_(colors),
      options_(options),
      newest_(std::move(generation)),
      retryRng_(options.retrySeed),
      sessions_(options.sessionHistoryCapacity),
      spans_(options.spanCapacity),
      recorder_(options.recorderSessionBytes) {
    retrySeedInEffect_ = options_.retrySeed;
    registry_ = options_.metrics != nullptr ? options_.metrics
                                            : &telemetry::MetricsRegistry::global();
}

AutomataEngine::~AutomataEngine() {
    if (retireEvent_) network_.network().scheduler().cancel(*retireEvent_);
    for (const auto& session : pool_) network_.bindSession(session->slot, nullptr, nullptr);
}

const char* dropReasonName(DropReason reason) {
    switch (reason) {
        case DropReason::InactiveAutomaton: return "inactive-automaton";
        case DropReason::SendPending: return "send-pending";
        case DropReason::Unparseable: return "unparseable";
        case DropReason::NoTransition: return "no-transition";
        case DropReason::NoSession: return "no-session";
        case DropReason::SessionCap: return "session-cap";
    }
    return "unknown";
}

errc::ErrorCode dropReasonCode(DropReason reason) {
    switch (reason) {
        case DropReason::InactiveAutomaton: return errc::ErrorCode::EngineInactiveAutomaton;
        case DropReason::SendPending: return errc::ErrorCode::EngineSendPending;
        case DropReason::Unparseable: return errc::ErrorCode::CodecParse;
        case DropReason::NoTransition: return errc::ErrorCode::EngineNoTransition;
        case DropReason::NoSession: return errc::ErrorCode::EngineNoSession;
        case DropReason::SessionCap: return errc::ErrorCode::EngineOverload;
    }
    return errc::ErrorCode::Unclassified;
}

void AutomataEngine::enterState(Session& session, const std::string& next) {
    if (telemetry::enabled() && session.live) {
        const net::TimePoint now = network_.network().now();
        const auto dwell =
            std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                now - session.stateEnteredAt);
        session.model->dwellHistogram(session.current)->observe(dwell.count());
        session.stateEnteredAt = now;
    }
    session.current = next;
}

const std::string& AutomataEngine::currentState() const {
    return live_.empty() ? newest_->merged->initialState() : live_.front()->current;
}

const ColorTraffic* AutomataEngine::traffic(std::uint64_t k) const {
    const auto it = traffic_.find(k);
    return it == traffic_.end() ? nullptr : &it->second;
}

automata::InstanceQueue& AutomataEngine::queueAt(Session& session, const std::string& stateId) {
    return session.queues[session.model->stateIndex.at(stateId)];
}

void AutomataEngine::start() {
    publish(newest_);
    network_.setHandler([this](std::uint64_t k, const Bytes& payload, const net::Address& from,
                               std::size_t slot) { onNetworkMessage(k, payload, from, slot); });
    network_.setFaultHandler(
        [this](const NetworkEngine::Fault& fault) { onNetworkFault(fault); });
    running_ = true;
    STARLINK_LOG(Info, "engine") << "bridge '" << merged().name() << "' listening at "
                                 << merged().initialState();
}

void AutomataEngine::publish(std::shared_ptr<ModelGeneration> generation) {
    generation->bindMetrics(*registry_);
    for (const auto& component : generation->merged->components()) {
        const std::uint64_t k = component->color();
        const automata::Color* color = colors_.lookup(k);
        if (color == nullptr) {
            throw SpecError(errc::ErrorCode::EngineColorUnknown,
                            "automata engine: color " + std::to_string(k) + " of component '" +
                                component->name() + "' is not in the color registry");
        }
        // Server role when the component's protocol conversation opens with
        // a receive (the bridge impersonates that protocol's service side).
        bool serverRole = false;
        for (const automata::Transition* t :
             component->transitionsFrom(component->initialState())) {
            if (t->action == Action::Receive) serverRole = true;
        }
        network_.attach(k, *color, serverRole);  // idempotent per color
        traffic_.try_emplace(k);
    }
    if (std::find(held_.begin(), held_.end(), generation) == held_.end()) {
        held_.push_back(generation);
    }
    newest_ = std::move(generation);
    retireGenerations();
}

void AutomataEngine::retireGenerations() {
    for (std::size_t i = held_.size(); i-- > 0;) {
        const std::shared_ptr<ModelGeneration> generation = held_[i];
        const auto runsOn = [&generation](const Session* s) { return s->model == generation; };
        if (generation == newest_ || std::any_of(live_.begin(), live_.end(), runsOn)) continue;
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        for (const auto& component : generation->merged->components()) {
            const std::uint64_t k = component->color();
            const auto names = [k](const auto& held) {
                return held->componentIndex(k) != ModelGeneration::kNoComponent;
            };
            if (std::none_of(held_.begin(), held_.end(), names)) network_.detach(k);
        }
    }
}

void AutomataEngine::onNetworkMessage(std::uint64_t colorK, const Bytes& payload,
                                      const net::Address& from, std::size_t slot) {
    if (!running_) return;
    const auto tally = traffic_.find(colorK);
    if (tally == traffic_.end()) return;
    ColorTraffic& traffic = tally->second;
    Session* session = nullptr;
    if (slot != NetworkEngine::kUnowned) {
        // A reply on a session's own socket or connection.
        if (slot >= pool_.size() || !pool_[slot]->live) {
            STARLINK_LOG(Debug, "engine") << "ignoring " << payload.size()
                                          << "-byte message from " << from.toString()
                                          << ": no live session in slot " << slot;
            drop(*newest_, traffic, DropReason::InactiveAutomaton);
            return;
        }
        session = pool_[slot].get();
    } else {
        session = sessionFor(colorK, from);
        if (session == nullptr) {
            if (colorK != newest_->openingColor) {
                STARLINK_LOG(Debug, "engine") << "no single live session for " << payload.size()
                                              << "-byte message from " << from.toString();
                drop(*newest_, traffic, DropReason::NoSession);
                return;
            }
            session = acquireSession();
            if (session == nullptr) {
                STARLINK_LOG(Warn, "engine")
                    << errc::to_string(errc::ErrorCode::EngineOverload) << ": "
                    << kMaxLiveSessions << " sessions live; shedding request from "
                    << from.toString();
                drop(*newest_, traffic, DropReason::SessionCap);
                return;
            }
        }
    }
    const std::size_t component = session->model->componentIndex(colorK);
    if (component == ModelGeneration::kNoComponent) {
        // A color only another generation speaks.
        drop(*session->model, traffic, DropReason::InactiveAutomaton);
        return;
    }
    deliver(*session, component, colorK, traffic, payload, from);
}

AutomataEngine::Session* AutomataEngine::sessionFor(std::uint64_t colorK,
                                                    const net::Address& from) {
    for (Session* session : live_) {
        if (session->keyColor == colorK && session->keyPeer == from) return session;
    }
    if (colorK == newest_->openingColor) return nullptr;
    // Another server-role color: the one session from that host on it.
    Session* match = nullptr;
    for (Session* session : live_) {
        const ModelGeneration& model = *session->model;
        if (model.openingColor == colorK) continue;  // opening messages never join by host
        if (session->keyPeer.host != from.host) continue;
        if (model.merged->automatonOf(session->current)->color() != colorK) continue;
        if (match != nullptr) return nullptr;  // ambiguous
        match = session;
    }
    return match;
}

AutomataEngine::Session* AutomataEngine::acquireSession() {
    Session* session = nullptr;
    if (!idle_.empty()) {
        session = idle_.back();
        idle_.pop_back();
    } else {
        if (pool_.size() >= kMaxLiveSessions) return nullptr;
        pool_.push_back(std::make_unique<Session>(pool_.size(), spans_, recorder_));
        session = pool_.back().get();
        network_.bindSession(session->slot, &session->tracer, &session->log);
    }
    if (session->model != newest_) {
        session->model = newest_;
        session->queues.resize(std::max(session->queues.size(), newest_->stateIndex.size()));
        session->current = newest_->merged->initialState();
    }
    return session;
}

void AutomataEngine::releaseUnopened(Session& session) {
    // No live session, no surviving views: drop the junk datagram's arena
    // bytes so a pre-session flood cannot grow the arena without bound.
    session.rxArena.reset();
    idle_.push_back(&session);
}

void AutomataEngine::drop(ModelGeneration& generation, ColorTraffic& traffic, DropReason reason) {
    const auto r = static_cast<std::size_t>(reason);
    ++traffic.dropped[r];
    if (telemetry::enabled()) generation.metrics.dropped[r]->add();
}

void AutomataEngine::openSession(Session& session, std::uint64_t colorK,
                                 const net::Address& from) {
    session.live = true;
    session.keyColor = colorK;
    session.keyPeer = from;
    session.record = SessionRecord{};
    session.record.firstReceive = network_.network().now();
    session.stateEnteredAt = session.record.firstReceive;
    session.ordinal = ++sessionOrdinal_;
    session.seed = sessionSeed_;
    // The jitter generator's position at session start: a postmortem
    // bundle re-derives it as (seed, draws burned).
    session.retrySeed = retrySeedInEffect_;
    session.startRetryDraws = retryDrawsSinceSeed_;
    live_.push_back(&session);
    session.log.beginSession(session.ordinal,
                             session.record.firstReceive.time_since_epoch().count());
    if (session.tracer.enabled()) {
        const telemetry::SpanId root = session.tracer.beginSession(session.record.firstReceive);
        session.tracer.attr(root, "bridge", session.model->merged->name());
    }
    if (options_.sessionTimeout.count() > 0) {
        session.timeoutEvent = network_.network().scheduler().schedule(
            options_.sessionTimeout, [this, s = &session] {
                s->timeoutEvent.reset();
                if (s->live) {
                    STARLINK_LOG(Warn, "engine") << "session timed out in state " << s->current;
                    completeSession(*s, false, FailureCause::Timeout,
                                    errc::ErrorCode::EngineSessionTimeout);
                }
            });
    }
}

void AutomataEngine::deliver(Session& session, std::size_t componentIdx, std::uint64_t colorK,
                             ColorTraffic& traffic, const Bytes& payload,
                             const net::Address& from) {
    ModelGeneration& model = *session.model;
    const ColoredAutomaton& component = *model.merged->components()[componentIdx];
    if (component.state(session.current) == nullptr) {
        STARLINK_LOG(Debug, "engine") << "ignoring " << payload.size()
                                      << "-byte message from " << from.toString()
                                      << ": automaton '" << component.name()
                                      << "' is not active";
        drop(model, traffic, DropReason::InactiveAutomaton);
        if (!session.live) releaseUnopened(session);
        return;
    }
    if (session.sendPending) {
        STARLINK_LOG(Debug, "engine") << "ignoring message while a send is in progress";
        drop(model, traffic, DropReason::SendPending);
        return;
    }

    std::string parseError;
    const std::uint64_t parseWall0 = session.tracer.enabled() ? telemetry::wallNowNs() : 0;
    // Zero-copy path: field values borrow from the arena's datagram copy.
    // Everything parsed here dies before the session boundary (stored
    // instances, this frame).
    auto message = model.codecs.at(component.name())->parse(payload, &session.rxArena, &parseError);
    const std::uint64_t parseWallNs =
        parseWall0 != 0 ? telemetry::wallSinceNs(parseWall0) : 0;
    if (!message) {
        STARLINK_LOG(Warn, "engine") << "unparseable " << component.name()
                                     << " message from " << from.toString() << ": "
                                     << parseError;
        drop(model, traffic, DropReason::Unparseable);
        if (!session.live) releaseUnopened(session);
        return;
    }

    const Transition* transition =
        component.transitionFor(session.current, Action::Receive, message->type());
    if (transition == nullptr) {
        STARLINK_LOG(Debug, "engine") << "no receive-transition from " << session.current
                                      << " on ?" << message->type() << "; dropping";
        drop(model, traffic, DropReason::NoTransition);
        if (!session.live) releaseUnopened(session);
        return;
    }

    if (!session.live) openSession(session, colorK, from);
    ++session.record.messagesIn;
    ++traffic.accepted;
    if (telemetry::enabled()) model.metrics.messagesIn->add();
    // The wait is over: an accepted message stands down the pending
    // retransmission deadline, and the idle deadline re-arms from now.
    cancelRetransmit(session);
    armIdleTimeout(session);
    telemetry::SessionTracer& tracer = session.tracer;
    if (tracer.inSession()) {
        const net::TimePoint now = network_.network().now();
        if (session.waitSpan != 0) {
            tracer.attr(session.waitSpan, "message_type", message->type());
            tracer.end(session.waitSpan, now);
            session.waitSpan = 0;
        }
        const telemetry::SpanId parseSpan = tracer.instant("parse", now, parseWallNs);
        tracer.attr(parseSpan, "protocol", component.name());
        tracer.attr(parseSpan, "message_type", message->type());
        tracer.attr(parseSpan, "state", session.current);
        tracer.attr(parseSpan, "bytes", std::to_string(payload.size()));
    }
    // Only an accepted message establishes the reply route for its color.
    network_.notePeer(colorK, from, session.slot);
    if (session.log.inSession()) {
        const std::int64_t ts = network_.network().now().time_since_epoch().count();
        session.log.recordRx(ts, colorK, from.toString(), network_.endpointAddress(colorK),
                             payload);
        session.log.recordTransition(ts, component.name(), transition->from, transition->to,
                                     telemetry::WireEvent::kActionReceive, message->type());
    }

    // Store the instance at the entered state (see header note) and advance.
    // The stored message may hold arena views -- legal, it dies at the
    // session boundary before the arena resets.
    queueAt(session, transition->to).push(std::move(*message));
    enterState(session, transition->to);
    session.lastWasDelta = false;
    safeProceed(session);
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

void AutomataEngine::safeProceed(Session& session) {
    // Translation failures at runtime (a peer's message lacking a field an
    // assignment needs, a value a T function rejects, an unencodable
    // compose) abort the CONVERSATION, never the connector: the bridge logs,
    // resets, and keeps serving.
    try {
        proceed(session);
    } catch (const std::exception& error) {
        STARLINK_LOG(Error, "engine") << "session aborted in state " << session.current << ": "
                                      << error.what();
        // Record the throwing layer's exact code (merge.translation-rejected,
        // codec.compose, ...); an uncoded exception records Unclassified,
        // which the fuzz harness counts as a taxonomy escape.
        if (session.live) {
            completeSession(session, false, classify(error), starlink::to_error_code(error));
        }
    }
}

void AutomataEngine::onNetworkFault(const NetworkEngine::Fault& fault) {
    if (!running_) return;
    Session* session = nullptr;
    if (fault.slot == NetworkEngine::kUnowned) {
        session = sessionFor(fault.color, fault.peer);
    } else if (fault.slot < pool_.size()) {
        session = pool_[fault.slot].get();
    }
    if (session == nullptr || !session->live) return;
    // Only fatal when the session is currently engaged with the faulting
    // color: a peer closing a connection the conversation has moved past
    // (e.g. an HTTP client hanging up after its fetch) is routine.
    const ModelGeneration& model = *session->model;
    const std::size_t index = model.componentIndex(fault.color);
    if (index == ModelGeneration::kNoComponent ||
        model.merged->components()[index]->state(session->current) == nullptr) {
        STARLINK_LOG(Debug, "engine") << "ignoring off-session network fault: " << fault.detail;
        return;
    }
    STARLINK_LOG(Warn, "engine") << "session aborted by network fault in state "
                                 << session->current << ": " << fault.detail;
    // An ordinary close keeps the coarse cause's code; a coded close (the OS
    // backend refusing an oversize frame) is recorded as it came.
    const bool refused = fault.fault == NetworkFault::ConnectRefused;
    const errc::ErrorCode code = !refused && fault.cause != errc::ErrorCode::NetPeerClosed
                                     ? fault.cause
                                     : errc::ErrorCode::Ok;
    completeSession(*session, false,
                    refused ? FailureCause::ConnectRefused : FailureCause::PeerClosed, code);
}

void AutomataEngine::proceed(Session& session) {
    const merge::MergedAutomaton& merged = *session.model->merged;
    while (running_ && session.live) {
        const ColoredAutomaton* component = merged.automatonOf(session.current);

        // 1. Delta-transition, unless we just arrived through one.
        if (!session.lastWasDelta) {
            if (const merge::DeltaTransition* delta = merged.deltaFrom(session.current)) {
                takeDelta(session, *delta);
                continue;
            }
        }

        // 2. Unique send-transition.
        const Transition* send = nullptr;
        bool hasReceive = false;
        for (const Transition* t : component->transitionsFrom(session.current)) {
            if (t->action == Action::Send) {
                if (send != nullptr) {
                    throw SpecError(errc::ErrorCode::EngineAmbiguousSend,
                                    "automata engine: state '" + session.current +
                                        "' has several outgoing send-transitions; the merged "
                                        "automaton is ambiguous");
                }
                send = t;
            } else {
                hasReceive = true;
            }
        }
        if (send != nullptr) {
            scheduleSend(session, *send);
            return;
        }

        // 3. Wait or finish.
        session.lastWasDelta = false;
        const bool canMoveOn = hasReceive || merged.deltaFrom(session.current) != nullptr;
        if (!canMoveOn && merged.acceptingStates().contains(session.current)) {
            completeSession(session, true);
            return;
        }
        // Settling into a wait: give the silence a deadline so a lost
        // datagram (ours or the peer's reply) is re-solicited instead of
        // wedging the conversation.
        if (hasReceive && session.live) {
            if (session.tracer.inSession() && session.waitSpan == 0) {
                session.waitSpan =
                    session.tracer.begin("receive-wait", network_.network().now());
                session.tracer.attr(session.waitSpan, "state", session.current);
            }
            armRetransmit(session);
        }
        return;
    }
}

void AutomataEngine::takeDelta(Session& session, const merge::DeltaTransition& delta) {
    const merge::MergedAutomaton& merged = *session.model->merged;
    for (const merge::NetworkAction& action : delta.actions) {
        if (action.name == "set_host") {
            if (action.args.size() != 2) {
                throw SpecError(errc::ErrorCode::BridgeInvalid,
                                "automata engine: set_host expects (host, port) arguments");
            }
            const Value host =
                resolveRef(session, action.args[0].ref, action.args[0].transform);
            const Value port =
                resolveRef(session, action.args[1].ref, action.args[1].transform);
            const auto hostText = host.coerceTo(ValueType::String);
            const auto portInt = port.coerceTo(ValueType::Int);
            if (!hostText || !portInt) {
                throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                                "automata engine: set_host arguments do not resolve to "
                                "host text and numeric port");
            }
            const ColoredAutomaton* target = merged.automatonOf(delta.to);
            network_.setHost(target->color(), *hostText->asString(),
                             static_cast<int>(*portInt->asInt()), session.slot);
        } else {
            throw SpecError(errc::ErrorCode::EngineUnknownAction,
                            "automata engine: unknown lambda action '" + action.name + "'");
        }
    }
    if (session.log.inSession()) {
        session.log.recordTransition(network_.network().now().time_since_epoch().count(),
                                     merged.automatonOf(delta.from)->name(), delta.from,
                                     delta.to, telemetry::WireEvent::kActionDelta, "");
    }
    STARLINK_LOG(Debug, "engine") << "delta " << delta.from << " -> " << delta.to;
    enterState(session, delta.to);
    session.lastWasDelta = true;
}

void AutomataEngine::scheduleSend(Session& session, const Transition& transition) {
    session.sendPending = true;
    // The translate leg opens NOW: its virtual extent is exactly the
    // processingDelay window the session is about to be charged.
    telemetry::SpanId translateSpan = 0;
    if (session.tracer.inSession()) {
        translateSpan = session.tracer.begin("translate", network_.network().now());
        session.tracer.attr(translateSpan, "state", transition.from);
        session.tracer.attr(translateSpan, "message_type", transition.messageType);
        session.tracer.attr(translateSpan, "automaton",
                            session.model->merged->automatonOf(transition.from)->name());
    }
    // The interpretation cost of translating + composing, charged in virtual
    // time so Fig 12(b)-style measures include it. The ordinal guards against
    // the pooled session having moved on to another conversation meanwhile.
    network_.network().scheduler().schedule(
        options_.processingDelay,
        [this, s = &session, ordinal = session.ordinal, transition = transition, translateSpan] {
            if (!running_ || !s->live || s->ordinal != ordinal) return;
            try {
                performSend(*s, transition, translateSpan);
            } catch (const std::exception& error) {
                STARLINK_LOG(Error, "engine") << "send of !" << transition.messageType
                                              << " failed, aborting session: " << error.what();
                completeSession(*s, false, classify(error), starlink::to_error_code(error));
            }
        });
}

void AutomataEngine::performSend(Session& session, const Transition& transition,
                                 telemetry::SpanId translateSpan) {
    ModelGeneration& model = *session.model;
    const merge::MergedAutomaton& merged = *model.merged;
    const ColoredAutomaton* component = merged.automatonOf(transition.from);
    telemetry::SessionTracer& tracer = session.tracer;
    const bool tracing = tracer.inSession() && translateSpan != 0;
    const net::TimePoint now = network_.network().now();
    if (session.log.inSession()) {
        session.log.recordTranslate(now.time_since_epoch().count(), transition.from,
                                    transition.messageType);
    }

    std::uint64_t wall0 = tracing ? telemetry::wallNowNs() : 0;
    AbstractMessage outgoing = buildOutgoing(session, transition.from, transition.messageType);
    if (tracing) {
        tracer.instant("translation-logic", now, telemetry::wallSinceNs(wall0), translateSpan);
        wall0 = telemetry::wallNowNs();
    }
    // Compose into the engine-lifetime scratch buffer: steady-state sessions
    // reuse one allocation instead of growing a fresh Bytes per message.
    model.codecs.at(component->name())->composeInto(outgoing, composeScratch_);
    if (tracing) {
        const telemetry::SpanId composeSpan =
            tracer.instant("compose", now, telemetry::wallSinceNs(wall0), translateSpan);
        tracer.attr(composeSpan, "protocol", component->name());
        tracer.attr(composeSpan, "bytes", std::to_string(composeScratch_.size()));
        wall0 = telemetry::wallNowNs();
    }
    network_.send(component->color(), composeScratch_, session.slot);
    if (session.log.inSession()) {
        // The Tx event itself is recorded by the network engine at the
        // actual wire moment (live send vs backlog flush); here only the
        // automaton step.
        session.log.recordTransition(now.time_since_epoch().count(), component->name(),
                                     transition.from, transition.to,
                                     telemetry::WireEvent::kActionSend, transition.messageType);
    }
    if (tracing) {
        const telemetry::SpanId sendSpan =
            tracer.instant("send", now, telemetry::wallSinceNs(wall0), translateSpan);
        tracer.attr(sendSpan, "bytes", std::to_string(composeScratch_.size()));
    }

    // Keep the encoded request: if the following wait's deadline lapses the
    // engine re-sends these exact bytes. A fresh send resets the per-wait
    // retry budget.
    session.lastSentColor = component->color();
    session.lastSentPayload = composeScratch_;
    session.retransmitsUsed = 0;

    queueAt(session, transition.from).push(std::move(outgoing));
    SessionRecord& record = session.record;
    record.lastSend = now;
    if (!record.clientReply && component == merged.automatonOf(merged.initialState())) {
        record.clientReply = record.lastSend;
    }
    ++record.messagesOut;
    if (telemetry::enabled()) model.metrics.messagesOut->add();
    armIdleTimeout(session);
    if (tracing) tracer.end(translateSpan, now);
    STARLINK_LOG(Debug, "engine") << "sent !" << transition.messageType << " from "
                                  << transition.from;

    enterState(session, transition.to);
    session.lastWasDelta = false;
    session.sendPending = false;
    proceed(session);
}

AbstractMessage AutomataEngine::buildOutgoing(const Session& session, const std::string& stateId,
                                              const std::string& messageType) {
    AbstractMessage message(messageType);
    for (const merge::Assignment* assignment :
         session.model->merged->assignmentsTargeting(stateId, messageType)) {
        Value value;
        if (assignment->source) {
            value = resolveRef(session, *assignment->source, assignment->transform);
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

Value AutomataEngine::resolveRef(const Session& session, const merge::FieldRef& ref,
                                 const std::string& transform) const {
    const auto& stateIndex = session.model->stateIndex;
    const auto slot = stateIndex.find(ref.state);
    if (slot == stateIndex.end()) {
        throw SpecError(errc::ErrorCode::EngineFieldUnresolved,
                        "automata engine: field reference " + ref.toString() +
                            " names an unknown state");
    }
    const AbstractMessage* message = session.queues[slot->second].latest(ref.messageType);
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

void AutomataEngine::cancelRetransmit(Session& session) {
    if (session.retransmitEvent) {
        network_.network().scheduler().cancel(*session.retransmitEvent);
        session.retransmitEvent.reset();
    }
}

void AutomataEngine::armRetransmit(Session& session) {
    cancelRetransmit(session);
    if (options_.maxRetransmits <= 0 || !session.lastSentPayload) return;
    const automata::Color* color = colors_.lookup(session.lastSentColor);
    // Only datagram requests are worth re-sending: tcp delivers reliably, and
    // its genuine failures arrive as connect-refused/peer-closed faults.
    if (color == nullptr || color->transport() != "udp") return;
    const net::Duration deadline = options_.receiveTimeout;
    if (deadline.count() <= 0) return;
    double scale = 1.0;
    for (int attempt = 0; attempt < session.retransmitsUsed; ++attempt) {
        scale *= options_.retransmitBackoff;
    }
    net::Duration wait{static_cast<net::Duration::rep>(
        static_cast<double>(deadline.count()) * scale)};
    if (options_.retransmitJitter.count() > 0) {
        wait += net::Duration{retryRng_.range(0, options_.retransmitJitter.count())};
        ++retryDrawsSinceSeed_;  // range() consumes exactly one draw
    }
    session.retransmitEvent =
        network_.network().scheduler().schedule(wait, [this, s = &session] {
            s->retransmitEvent.reset();
            onReceiveDeadline(*s);
        });
}

void AutomataEngine::onReceiveDeadline(Session& session) {
    if (!running_ || !session.live || !session.lastSentPayload) return;
    if (session.retransmitsUsed >= options_.maxRetransmits) {
        STARLINK_LOG(Warn, "engine") << "no reply in state " << session.current << " after "
                                     << session.retransmitsUsed
                                     << " retransmissions; aborting session";
        // Coarse cause stays Timeout for compatibility; the code tells a
        // drained retry budget apart from the session watchdog.
        completeSession(session, false, FailureCause::Timeout,
                        errc::ErrorCode::EngineRetryExhausted);
        return;
    }
    ++session.retransmitsUsed;
    ++session.record.retransmits;
    if (telemetry::enabled()) session.model->metrics.retransmits->add();
    STARLINK_LOG(Debug, "engine") << "reply deadline lapsed in state " << session.current
                                  << "; retransmission " << session.retransmitsUsed << "/"
                                  << options_.maxRetransmits;
    try {
        network_.send(session.lastSentColor, *session.lastSentPayload, session.slot);
    } catch (const std::exception& error) {
        STARLINK_LOG(Error, "engine") << "retransmission failed, aborting session: "
                                      << error.what();
        completeSession(session, false, classify(error), starlink::to_error_code(error));
        return;
    }
    // The re-sent request is a real datagram on the wire: count it, so the
    // session record agrees with the network engine's per-color counters.
    ++session.record.messagesOut;
    if (telemetry::enabled()) session.model->metrics.messagesOut->add();
    if (session.tracer.inSession()) {
        const telemetry::SpanId id = session.tracer.instant(
            "retransmit", network_.network().now(), 0, session.waitSpan);
        session.tracer.attr(id, "state", session.current);
        session.tracer.attr(id, "attempt", std::to_string(session.retransmitsUsed));
        session.tracer.attr(id, "bytes", std::to_string(session.lastSentPayload->size()));
    }
    armRetransmit(session);
}

void AutomataEngine::completeSession(Session& session, bool completed, FailureCause cause,
                                     errc::ErrorCode code) {
    ModelGeneration& model = *session.model;
    SessionRecord& record = session.record;
    record.completed = completed;
    record.cause = completed ? FailureCause::None : cause;
    // Exact code when the abort path supplied one; otherwise the coarse
    // cause's floor code. Unclassified (an uncoded exception) is preserved,
    // not masked -- it is the taxonomy-escape signal the fuzzers hunt.
    record.code = completed ? errc::ErrorCode::Ok
                  : code != errc::ErrorCode::Ok ? code
                                                : to_error_code(record.cause);
    record.modelVersion = model.version;
    sessions_.record(record);
    if (telemetry::enabled()) {
        if (completed) {
            model.metrics.sessionsCompleted->add();
        } else {
            model.abortedCounter(record.code)->add();
        }
        model.metrics.translationMs->observe(
            std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                record.translationTime())
                .count());
    }
    telemetry::SessionTracer& tracer = session.tracer;
    const std::uint64_t spanSession = tracer.inSession() ? tracer.sessionOrdinal() : 0;
    if (tracer.inSession()) {
        const net::TimePoint now = network_.network().now();
        if (session.waitSpan != 0) {
            // The wait genuinely ends here (watchdog / budget exhaustion),
            // not as a truncation artifact.
            tracer.end(session.waitSpan, now);
        }
        const telemetry::SpanId root = tracer.sessionSpan();
        tracer.attr(root, "result", completed ? "completed" : failureCauseName(record.cause));
        if (!completed) {
            tracer.attr(root, "error_code", std::to_string(errc::to_error_code(record.code)));
            tracer.attr(root, "error_name", errc::to_string(record.code));
        }
        tracer.attr(root, "messages_in", std::to_string(record.messagesIn));
        tracer.attr(root, "messages_out", std::to_string(record.messagesOut));
        tracer.attr(root, "retransmits", std::to_string(record.retransmits));
        tracer.attr(root, "translation_us", std::to_string(record.translationTime().count()));
        tracer.endSession(now);
    }
    session.waitSpan = 0;
    if (session.log.inSession()) {
        session.log.endSession(network_.network().now().time_since_epoch().count(),
                               errc::to_error_code(record.code),
                               static_cast<std::uint8_t>(record.cause), record.completed,
                               record.messagesIn, record.messagesOut, record.retransmits);
        // Any non-zero terminal code ships a postmortem bundle to the spool:
        // the captured events plus everything replay needs to re-run them,
        // stamped with the session's own generation.
        if (!record.completed && options_.postmortemSpool != nullptr &&
            recorder_.last() != nullptr) {
            const telemetry::FlightRecorder::SessionLog& log = *recorder_.last();
            telemetry::PostmortemBundle bundle;
            bundle.bridge = model.merged->name();
            // Built-in bridges are named by their case slug, which replay resolves.
            bundle.caseSlug = model.merged->name();
            bundle.bridgeHost = network_.host();
            bundle.shard = options_.shardId;
            bundle.sessionOrdinal = session.ordinal;
            bundle.sessionSeed = session.seed;
            bundle.retrySeed = session.retrySeed;
            bundle.retryDraws = session.startRetryDraws;
            bundle.modelIdentity = model.identity;
            bundle.abortCode = errc::to_error_code(record.code);
            bundle.cause = static_cast<std::uint8_t>(record.cause);
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
        std::size_t arenaBytes = 0;
        std::size_t arenaChunks = 0;
        for (const auto& pooled : pool_) {
            arenaBytes += pooled->rxArena.bytesReserved();
            arenaChunks += pooled->rxArena.chunkCount();
        }
        model.metrics.spansDropped->set(static_cast<std::int64_t>(spans_.dropped()));
        model.metrics.historyEvicted->set(static_cast<std::int64_t>(sessions_.evicted()));
        model.metrics.arenaBytes->set(static_cast<std::int64_t>(arenaBytes));
        model.metrics.arenaChunks->set(static_cast<std::int64_t>(arenaChunks));
        model.metrics.recorderBytes->set(
            static_cast<std::int64_t>(recorder_.bytesReserved()));
    }
    if (session.timeoutEvent) {
        network_.network().scheduler().cancel(*session.timeoutEvent);
        session.timeoutEvent.reset();
    }
    cancelIdleTimeout(session);
    cancelRetransmit(session);
    session.lastSentPayload.reset();
    session.retransmitsUsed = 0;
    STARLINK_LOG(Info, "engine") << "session " << (completed ? "completed" : "aborted")
                                 << " after " << record.messagesIn << " in / "
                                 << record.messagesOut << " out"
                                 << (completed ? ""
                                               : std::string(" (cause: ") +
                                                     failureCauseName(record.cause) +
                                                     ", code: " + errc::to_string(record.code) +
                                                     ")");
    if (onSessionComplete) onSessionComplete(record);

    session.live = false;
    session.sendPending = false;
    session.lastWasDelta = false;
    for (automata::InstanceQueue& queue : session.queues) queue.clear();
    network_.resetSession(session.slot);
    session.current = model.merged->initialState();
    // Every holder of arena-backed views is gone (queues cleared above):
    // rewind the arena, keeping its chunks, so the next session parses into
    // warm memory.
    session.rxArena.reset();
    std::erase(live_, &session);
    idle_.push_back(&session);
    if (session.model != newest_) {
        // Perhaps the last session of a retired generation (see retireEvent_).
        session.model.reset();
        if (!retireEvent_) {
            retireEvent_ = network_.network().scheduler().schedule(net::us(0), [this] {
                retireEvent_.reset();
                retireGenerations();
            });
        }
    }
}

void AutomataEngine::armIdleTimeout(Session& session) {
    cancelIdleTimeout(session);
    if (!session.live || options_.idleTimeout.count() <= 0) return;
    session.idleEvent =
        network_.network().scheduler().schedule(options_.idleTimeout, [this, s = &session] {
            s->idleEvent.reset();
            if (!s->live) return;
            STARLINK_LOG(Warn, "engine") << "session idle in state " << s->current << " for "
                                         << options_.idleTimeout.count() << "us; evicting";
            completeSession(*s, false, FailureCause::Timeout, errc::ErrorCode::EngineIdleTimeout);
        });
}

void AutomataEngine::cancelIdleTimeout(Session& session) {
    if (session.idleEvent) {
        network_.network().scheduler().cancel(*session.idleEvent);
        session.idleEvent.reset();
    }
}

}  // namespace starlink::engine
