#include "core/bridge/replay.hpp"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/telemetry/metrics.hpp"
#include "net/scheduler.hpp"
#include "net/sim_network.hpp"

namespace starlink::bridge {

namespace {

net::Address parseAddress(const std::string& text) {
    const auto pos = text.rfind(':');
    if (pos == std::string::npos || pos + 1 >= text.size()) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "replay: malformed captured address '" + text + "'");
    }
    int port = 0;
    try {
        port = std::stoi(text.substr(pos + 1));
    } catch (const std::exception&) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "replay: malformed captured port in '" + text + "'");
    }
    return net::Address{text.substr(0, pos), static_cast<std::uint16_t>(port)};
}

/// Injection endpoints reconstructed from the capture. Every stub lives at
/// the ORIGINAL sender's address so the engine's notePeer/reply routing sees
/// the same peers it saw live.
struct Injector {
    // udp stub sockets, keyed by the captured from-address.
    std::map<std::string, std::unique_ptr<net::UdpSocket>> udp;
    // Listeners at the targets the bridge tcp-connected to (captured
    // TcpConnect outcome=connected), keyed by target address; the accepted
    // connection is the channel for client-color inbound chunks.
    std::map<std::string, std::unique_ptr<net::TcpListener>> listeners;
    std::map<std::string, std::shared_ptr<net::TcpConnection>> accepted;
    std::map<std::string, std::vector<Bytes>> pendingByTarget;
    // Outbound stub connections INTO the bridge's listener (server-color
    // inbound chunks), keyed by the captured peer from-address.
    std::map<std::string, std::shared_ptr<net::TcpConnection>> stubs;
    std::map<std::string, bool> stubConnecting;
    std::map<std::string, std::vector<Bytes>> pendingByStub;
    // color -> connected target (for client-color rx and peer-closed faults).
    std::map<std::uint64_t, std::string> targetByColor;
    // color -> stub keys (for server-side peer-closed faults).
    std::map<std::uint64_t, std::vector<std::string>> stubKeysByColor;
};

std::string describeRecordMismatch(const telemetry::WireEvent& want,
                                   const engine::SessionRecord& got) {
    std::ostringstream out;
    out << "session record diverged: captured {completed=" << int(want.completed)
        << " code=" << want.code << " in=" << want.messagesIn << " out=" << want.messagesOut
        << " retransmits=" << want.retransmits << "} replayed {completed=" << got.completed
        << " code=" << errc::to_error_code(got.code) << " in=" << got.messagesIn
        << " out=" << got.messagesOut << " retransmits=" << got.retransmits << "}";
    return out.str();
}

}  // namespace

ReplayComparison replayBundle(const telemetry::PostmortemBundle& bundle,
                              std::size_t maxEvents) {
    const models::Direction* direction = models::directionBySlug(bundle.caseSlug);
    if (direction == nullptr) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "replay: unknown case slug '" + bundle.caseSlug +
                            "' (only the built-in directions are replayable without models)");
    }
    const std::string host = bundle.bridgeHost.empty() ? "10.0.0.9" : bundle.bridgeHost;
    return replayBundle(bundle, models::forDirection(*direction, host), maxEvents);
}

ReplayComparison replayBundle(const telemetry::PostmortemBundle& bundle,
                              const models::DeploymentSpec& spec, std::size_t maxEvents) {
    // The identity gate comes FIRST -- before the capture is decoded, before
    // any model document is parsed, before anything is deployed. A bundle
    // whose fingerprint does not match these models must be rejected with
    // zero side effects: re-injecting a capture into different automata
    // would produce a confidently wrong diff.
    if (bundle.modelIdentity != 0 && models::modelSetIdentity(spec) != bundle.modelIdentity) {
        throw SpecError(errc::ErrorCode::BridgeIdentityMismatch,
                        "replay: the '" + bundle.caseSlug +
                            "' model set does not match this bundle's identity fingerprint (" +
                            std::to_string(bundle.modelIdentity) +
                            "); the replay would exercise different automata");
    }
    if (bundle.truncated) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "replay: capture is truncated (" + std::to_string(bundle.droppedEvents) +
                            " events dropped at the recorder's byte cap); the injection "
                            "schedule is incomplete -- re-record with a larger --record cap");
    }
    const std::string host = bundle.bridgeHost.empty() ? "10.0.0.9" : bundle.bridgeHost;

    const std::vector<telemetry::WireEvent> events = telemetry::decodeEvents(bundle.events);

    // Fresh island. Latency/jitter/loss are zeroed: the capture pins every
    // inbound arrival to its original virtual timestamp, so the network must
    // not add a second (differently-seeded) delay on top.
    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler, /*seed=*/1);
    network.latency().base = net::us(0);
    network.latency().jitter = net::us(0);
    network.latency().lossProbability = 0.0;

    telemetry::MetricsRegistry registry;  // keep replay out of the global registry
    Starlink starlink(network);

    engine::EngineOptions options;
    options.processingDelay = net::Duration{bundle.processingDelayUs};
    options.sessionTimeout = net::Duration{bundle.sessionTimeoutUs};
    options.receiveTimeout = net::Duration{bundle.receiveTimeoutUs};
    options.retransmitJitter = net::Duration{bundle.retransmitJitterUs};
    options.idleTimeout = net::Duration{bundle.idleTimeoutUs};
    options.tcpConnectRetryDelay = net::Duration{bundle.tcpConnectRetryDelayUs};
    options.tcpConnectRetryMaxDelay = net::Duration{bundle.tcpConnectRetryMaxDelayUs};
    options.maxRetransmits = bundle.maxRetransmits;
    options.tcpConnectAttempts = bundle.tcpConnectAttempts;
    options.retransmitBackoff = static_cast<double>(bundle.retransmitBackoffMicros) / 1e6;
    options.tcpMaxBacklogBytes = static_cast<std::size_t>(bundle.tcpMaxBacklogBytes);
    options.retrySeed = bundle.retrySeed;
    options.metrics = &registry;
    options.spanCapacity = 0;
    // Record the replay too -- its Tx events ARE the wire comparison. The cap
    // comfortably exceeds the original log (same traffic, never truncates).
    options.recorderSessionBytes = bundle.events.size() + 64 * 1024;
    options.shardId = bundle.shard;

    DeployedBridge& deployed = starlink.deploy(spec, host, options);
    engine::AutomataEngine& engine = deployed.engine();
    engine.reseedRetry(bundle.retrySeed);
    engine.burnRetryDraws(bundle.retryDraws);
    engine.noteSessionSeed(bundle.sessionSeed);

    // -- reconstruct the peers ------------------------------------------------
    Injector inj;

    // Pass 1: targets the bridge successfully connected to get a listener, so
    // the replayed connect succeeds and yields the client-color channel.
    // Targets that only ever refused get NO listener -- the refusal replays
    // naturally from the empty network.
    for (const telemetry::WireEvent& event : events) {
        if (event.kind != telemetry::WireEvent::Kind::TcpConnect) continue;
        if (event.action != telemetry::WireEvent::kConnectConnected) continue;
        const std::string target = event.from;  // TcpConnect carries the target here
        inj.targetByColor[event.color] = target;
        if (inj.listeners.contains(target)) continue;
        const net::Address addr = parseAddress(target);
        auto listener = network.listenTcp(addr.host, addr.port);
        listener->onAccept([&inj, target](std::shared_ptr<net::TcpConnection> conn) {
            inj.accepted[target] = conn;
            for (const Bytes& payload : inj.pendingByTarget[target]) conn->send(payload);
            inj.pendingByTarget[target].clear();
        });
        inj.listeners.emplace(target, std::move(listener));
    }

    // Pass 2: udp stubs, bound at the original sender addresses. Created up
    // front so injection lambdas never race socket creation.
    for (const telemetry::WireEvent& event : events) {
        if (event.kind != telemetry::WireEvent::Kind::Rx) continue;
        if (event.to.empty()) continue;  // client-color tcp chunk, handled via accepted conns
        const automata::Color* color = starlink.colors().lookup(event.color);
        if (color == nullptr || color->transport() != "udp") continue;
        if (inj.udp.contains(event.from)) continue;
        const net::Address addr = parseAddress(event.from);
        inj.udp.emplace(event.from, network.openUdp(addr.host, addr.port));
    }

    // Pass 3: schedule every inbound event at its captured virtual timestamp.
    // scheduleAt keeps insertion order within a timestamp, so same-tick events
    // replay in log order.
    for (const telemetry::WireEvent& event : events) {
        const net::TimePoint when{net::Duration{event.tsUs}};
        switch (event.kind) {
            case telemetry::WireEvent::Kind::Rx: {
                if (event.to.empty()) {
                    // Chunk on a connection the bridge opened: deliver on (or
                    // queue for) the accepted side of the matching listener.
                    const auto targetIt = inj.targetByColor.find(event.color);
                    if (targetIt == inj.targetByColor.end()) break;  // capture gap; skip
                    const std::string target = targetIt->second;
                    const Bytes payload = event.payload;
                    scheduler.scheduleAt(when, [&inj, target, payload] {
                        const auto it = inj.accepted.find(target);
                        if (it != inj.accepted.end() && it->second->isOpen()) {
                            it->second->send(payload);
                        } else {
                            inj.pendingByTarget[target].push_back(payload);
                        }
                    });
                    break;
                }
                const automata::Color* color = starlink.colors().lookup(event.color);
                if (color != nullptr && color->transport() == "tcp") {
                    // Chunk INTO the bridge's listener: replay the peer's
                    // connect lazily at the first chunk's timestamp.
                    const std::string key = event.from;
                    const std::string fromHost = parseAddress(event.from).host;
                    const net::Address dest = parseAddress(event.to);
                    inj.stubKeysByColor[event.color].push_back(key);
                    const Bytes payload = event.payload;
                    scheduler.scheduleAt(when, [&inj, &network, key, fromHost, dest, payload] {
                        const auto it = inj.stubs.find(key);
                        if (it != inj.stubs.end() && it->second->isOpen()) {
                            it->second->send(payload);
                            return;
                        }
                        inj.pendingByStub[key].push_back(payload);
                        if (inj.stubConnecting[key]) return;
                        inj.stubConnecting[key] = true;
                        network.connectTcp(
                            fromHost, dest,
                            [&inj, key](std::shared_ptr<net::TcpConnection> conn) {
                                inj.stubConnecting[key] = false;
                                if (!conn) return;  // bridge died first; injection moot
                                inj.stubs[key] = conn;
                                for (const Bytes& queued : inj.pendingByStub[key]) {
                                    conn->send(queued);
                                }
                                inj.pendingByStub[key].clear();
                            });
                    });
                    break;
                }
                // Datagram: unicast from the original sender's socket to the
                // endpoint the engine received it at (multicast membership is
                // irrelevant -- the capture already resolved delivery).
                const auto sockIt = inj.udp.find(event.from);
                if (sockIt == inj.udp.end()) break;
                net::UdpSocket* sock = sockIt->second.get();
                const net::Address dest = parseAddress(event.to);
                const Bytes payload = event.payload;
                scheduler.scheduleAt(when, [sock, dest, payload] { sock->sendTo(dest, payload); });
                break;
            }
            case telemetry::WireEvent::Kind::Fault: {
                if (event.action != telemetry::WireEvent::kFaultPeerClosed) break;
                // Re-inflict the peer's disappearance on whichever replay
                // endpoint models it: our stub into the bridge, or the
                // accepted side of the bridge's own connect.
                const std::uint64_t colorK = event.color;
                scheduler.scheduleAt(when, [&inj, colorK] {
                    const auto stubKeys = inj.stubKeysByColor.find(colorK);
                    if (stubKeys != inj.stubKeysByColor.end()) {
                        for (const std::string& key : stubKeys->second) {
                            const auto it = inj.stubs.find(key);
                            if (it != inj.stubs.end() && it->second->isOpen()) it->second->close();
                        }
                        return;
                    }
                    const auto targetIt = inj.targetByColor.find(colorK);
                    if (targetIt == inj.targetByColor.end()) return;
                    const auto it = inj.accepted.find(targetIt->second);
                    if (it != inj.accepted.end() && it->second->isOpen()) it->second->close();
                });
                break;
            }
            default:
                break;  // Tx/Transition/Translate/SessionEnd: engine-side, not injected
        }
    }

    // -- run ------------------------------------------------------------------
    std::optional<engine::SessionRecord> replayed;
    engine.onSessionComplete = [&replayed, &engine](const engine::SessionRecord& record) {
        if (replayed) return;
        replayed = record;
        // Stop before any leftover injections (scheduled past the terminal
        // event) can open a SECOND session on the pooled engine.
        engine.stop();
    };
    scheduler.runUntilIdle(maxEvents);

    // -- diff -----------------------------------------------------------------
    ReplayComparison result;
    if (!replayed) {
        result.detail = "replay produced no terminal session record";
        return result;
    }
    result.ran = true;
    result.completed = replayed->completed;
    result.abortCode = errc::to_error_code(replayed->code);
    result.messagesIn = static_cast<std::uint32_t>(replayed->messagesIn);
    result.messagesOut = static_cast<std::uint32_t>(replayed->messagesOut);
    result.retransmits = static_cast<std::uint32_t>(replayed->retransmits);

    const telemetry::WireEvent* captured = nullptr;
    for (const telemetry::WireEvent& event : events) {
        if (event.kind == telemetry::WireEvent::Kind::SessionEnd) captured = &event;
    }
    if (captured == nullptr) {
        result.detail = "capture has no SessionEnd event";
        return result;
    }
    result.recordMatches = (captured->completed != 0) == replayed->completed &&
                           captured->code == errc::to_error_code(replayed->code) &&
                           captured->cause == static_cast<std::uint8_t>(replayed->cause) &&
                           captured->messagesIn == replayed->messagesIn &&
                           captured->messagesOut == replayed->messagesOut &&
                           captured->retransmits == replayed->retransmits;
    if (!result.recordMatches) result.detail = describeRecordMismatch(*captured, *replayed);

    // Wire comparison: the ordered (color, payload) Tx sequence must be
    // byte-identical. Timestamps are deliberately NOT compared -- connect
    // handshakes run faster on the zero-latency island.
    std::vector<const telemetry::WireEvent*> wantTx;
    for (const telemetry::WireEvent& event : events) {
        if (event.kind == telemetry::WireEvent::Kind::Tx) wantTx.push_back(&event);
    }
    const telemetry::FlightRecorder::SessionLog* log = engine.recorder().last();
    std::vector<telemetry::WireEvent> gotEvents =
        log ? telemetry::decodeEvents(log->events) : std::vector<telemetry::WireEvent>{};
    std::vector<const telemetry::WireEvent*> gotTx;
    for (const telemetry::WireEvent& event : gotEvents) {
        if (event.kind == telemetry::WireEvent::Kind::Tx) gotTx.push_back(&event);
    }
    result.originalTx = wantTx.size();
    result.replayedTx = gotTx.size();
    result.wireMatches = wantTx.size() == gotTx.size();
    if (!result.wireMatches) {
        if (result.detail.empty()) {
            result.detail = "outbound message count diverged: captured " +
                            std::to_string(wantTx.size()) + " tx, replayed " +
                            std::to_string(gotTx.size());
        }
    } else {
        for (std::size_t i = 0; i < wantTx.size(); ++i) {
            if (wantTx[i]->color == gotTx[i]->color && wantTx[i]->payload == gotTx[i]->payload) {
                continue;
            }
            result.wireMatches = false;
            if (result.detail.empty()) {
                result.detail = "outbound message " + std::to_string(i) +
                                " diverged (color or payload bytes differ)";
            }
            break;
        }
    }
    return result;
}

}  // namespace starlink::bridge
