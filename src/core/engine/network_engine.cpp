#include "core/engine/network_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"

namespace starlink::engine {

using automata::Color;

NetworkEngine::NetworkEngine(net::Network& network, std::string host, Options options)
    : network_(network), host_(std::move(host)), options_(options) {
    auto& registry = options_.metrics != nullptr ? *options_.metrics
                                                 : telemetry::MetricsRegistry::global();
    connectAttempts_ = &registry.counter("starlink_net_connect_attempts_total");
    connectFailures_ = &registry.counter("starlink_net_connect_failures_total");
    backlogDroppedBytes_ = &registry.counter("starlink_net_backlog_dropped_bytes_total");
}

NetworkEngine::Endpoint& NetworkEngine::endpoint(std::uint64_t k, const char* operation) {
    const auto it = endpoints_.find(k);
    if (it == endpoints_.end()) {
        throw SpecError(std::string("network engine: ") + operation + " on unattached color " +
                        std::to_string(k));
    }
    return it->second;
}

NetworkEngine::Slot& NetworkEngine::slot(std::size_t index) {
    while (slots_.size() <= index) slots_.emplace_back();
    return slots_[index];
}

void NetworkEngine::bindSession(std::size_t index, telemetry::SessionTracer* tracer,
                                telemetry::FlightRecorder::OpenLog* log) {
    Slot& s = slot(index);
    s.tracer = tracer;
    s.log = log;
}

void NetworkEngine::noteReceived(std::uint64_t k, std::size_t bytes) {
    if (!telemetry::enabled()) return;
    const auto it = endpoints_.find(k);
    if (it == endpoints_.end()) return;
    it->second.messagesIn->add();
    it->second.bytesIn->add(bytes);
}

void NetworkEngine::noteSent(Endpoint& endpoint, std::size_t bytes) {
    if (!telemetry::enabled()) return;
    endpoint.messagesOut->add();
    endpoint.bytesOut->add(bytes);
}

void NetworkEngine::endConnectSpan(Slot& s, Leg& leg, const char* result, int attempts) {
    if (s.tracer == nullptr || leg.connectSpan == 0) return;
    s.tracer->attr(leg.connectSpan, "result", result);
    s.tracer->attr(leg.connectSpan, "attempts", std::to_string(attempts));
    s.tracer->end(leg.connectSpan, network_.now());
    leg.connectSpan = 0;
}

void NetworkEngine::reportFault(const Fault& fault) {
    STARLINK_LOG(Warn, "net-engine") << "color " << fault.color << " session fault: "
                                     << fault.detail;
    telemetry::FlightRecorder::OpenLog* log =
        fault.slot != kUnowned ? slot(fault.slot).log : nullptr;
    if (log != nullptr && log->inSession()) {
        log->recordFault(network_.now().time_since_epoch().count(), fault.color,
                         fault.fault == NetworkFault::ConnectRefused
                             ? telemetry::WireEvent::kFaultConnectRefused
                             : telemetry::WireEvent::kFaultPeerClosed,
                         fault.detail);
    }
    if (faultHandler_) faultHandler_(fault);
}

std::string NetworkEngine::endpointAddress(std::uint64_t k) const {
    const auto it = endpoints_.find(k);
    if (it == endpoints_.end()) return {};
    if (it->second.udp) return it->second.udp->localAddress().toString();
    if (it->second.listener) return it->second.listener->localAddress().toString();
    return {};
}

/// The session slot whose leg holds `connection` for color k, kUnowned when
/// no session has claimed it.
std::size_t NetworkEngine::ownerOf(std::uint64_t k,
                                   const std::shared_ptr<net::TcpConnection>& connection) {
    for (std::size_t index = 0; index < slots_.size(); ++index) {
        const auto it = slots_[index].legs.find(k);
        if (it != slots_[index].legs.end() && it->second.tcp == connection) return index;
    }
    return kUnowned;
}

/// Wires data/close callbacks on a live connection. Ownership is looked up
/// per chunk rather than captured, so a session can claim an accepted
/// connection without rewiring it from inside its own data callback. The
/// close callback only fires for PEER-initiated closes (our own close()
/// never calls back).
void NetworkEngine::wireConnection(std::uint64_t k,
                                   const std::shared_ptr<net::TcpConnection>& connection,
                                   const net::Address& peer) {
    std::weak_ptr<net::TcpConnection> weak = connection;
    connection->onData([this, k, weak, peer](const Bytes& payload) {
        const std::shared_ptr<net::TcpConnection> live = weak.lock();
        if (!live) return;
        noteReceived(k, payload.size());
        const std::size_t owner = ownerOf(k, live);
        if (owner == kUnowned) {
            inbound_ = live;
            inboundColor_ = k;
        }
        if (handler_) handler_(k, payload, peer, owner);
        inbound_.reset();
    });
    connection->onClose([this, k, weak, peer](errc::ErrorCode cause) {
        onConnectionClosed(k, weak.lock(), peer, cause);
    });
}

void NetworkEngine::onConnectionClosed(std::uint64_t k,
                                       const std::shared_ptr<net::TcpConnection>& connection,
                                       const net::Address& peer, errc::ErrorCode cause) {
    const auto it = endpoints_.find(k);
    if (it == endpoints_.end() || !connection) return;
    const std::size_t owner = ownerOf(k, connection);
    if (owner == kUnowned) {
        // An accepted connection no session claimed: the automata engine
        // routes the close by peer, like a first chunk would have been.
        std::erase(it->second.unclaimed, connection);
    } else {
        Leg& leg = slots_[owner].legs[k];
        leg.tcp.reset();
        leg.peerClosed = true;
    }
    std::string detail = "tcp peer " + peer.toString() + " closed mid-session";
    if (cause != errc::ErrorCode::NetPeerClosed) {
        detail += std::string(" (") + errc::to_string(cause) + ")";
    }
    reportFault({k, NetworkFault::PeerClosed, cause, detail, owner, peer});
}

void NetworkEngine::attach(std::uint64_t k, const Color& color, bool serverRole) {
    if (endpoints_.contains(k)) return;
    Endpoint endpoint;
    endpoint.color = color;
    endpoint.serverRole = serverRole;

    auto& registry = options_.metrics != nullptr ? *options_.metrics
                                                 : telemetry::MetricsRegistry::global();
    const auto traffic = [&](std::string_view name) {
        return &registry.counter(telemetry::labeled(
            name, {{"color", std::to_string(k)}, {"transport", color.transport()}}));
    };
    endpoint.bytesIn = traffic("starlink_net_bytes_in_total");
    endpoint.bytesOut = traffic("starlink_net_bytes_out_total");
    endpoint.messagesIn = traffic("starlink_net_messages_in_total");
    endpoint.messagesOut = traffic("starlink_net_messages_out_total");

    if (color.transport() == "tcp" && serverRole) {
        const auto port = color.port();
        if (!port) throw SpecError("network engine: tcp server color without a port");
        endpoint.listener = network_.listenTcp(host_, static_cast<std::uint16_t>(*port));
        endpoint.listener->onAccept([this, k](std::shared_ptr<net::TcpConnection> connection) {
            // Unclaimed until a session accepts a chunk from it (notePeer).
            const net::Address peer = connection->remoteAddress();
            wireConnection(k, connection, peer);
            endpoints_.at(k).unclaimed.push_back(std::move(connection));
        });
    } else if (color.transport() == "udp") {
        const auto port = color.port();
        if (!port) throw SpecError("network engine: udp color without a port");
        endpoint.udp = network_.openUdp(host_, static_cast<std::uint16_t>(*port));
        if (color.isMulticast()) {
            endpoint.udp->joinGroup(
                net::Address{color.group(), static_cast<std::uint16_t>(*port)});
        }
        // A server-role socket is shared; a client-role one is slot 0's.
        const std::size_t owner = serverRole ? kUnowned : 0;
        endpoint.udp->onDatagram([this, k, owner](const Bytes& payload, const net::Address& from) {
            if (owner == 0 && fromOwnSessionSocket(k, from)) return;
            noteReceived(k, payload.size());
            if (handler_) handler_(k, payload, from, owner);
        });
    } else if (color.transport() != "tcp") {
        throw SpecError("network engine: unsupported transport '" + color.transport() + "'");
    }
    endpoints_.emplace(k, std::move(endpoint));
    STARLINK_LOG(Debug, "net-engine") << "attached color " << k << " ("
                                      << endpoints_.at(k).color.canonicalKey() << ")";
}

void NetworkEngine::detach(std::uint64_t k) {
    const auto it = endpoints_.find(k);
    if (it == endpoints_.end()) return;
    // resetSession already closed every session's connection on k.
    for (Slot& s : slots_) {
        const auto leg = s.legs.find(k);
        if (leg != s.legs.end()) leg->second.udp.reset();
    }
    for (const auto& connection : it->second.unclaimed) connection->close();
    endpoints_.erase(it);
}

/// True when `from` is one of color k's session sockets: a multicast query
/// that slot >= 1 sent, looping back to the color's group-joined endpoint.
/// Matched on the port alone, because the OS backend reports the socket's
/// loopback address rather than its logical one; the ports are the bridge
/// host's own ephemeral ports, which legacy services do not reply from.
bool NetworkEngine::fromOwnSessionSocket(std::uint64_t k, const net::Address& from) const {
    for (std::size_t index = 1; index < slots_.size(); ++index) {
        const auto it = slots_[index].legs.find(k);
        if (it != slots_[index].legs.end() && it->second.udp &&
            it->second.udp->localAddress().port == from.port) {
            return true;
        }
    }
    return false;
}

/// The socket session `index` sends color k's datagrams from: the shared
/// endpoint for a server-role color and for slot 0, else the slot's own
/// ephemeral-port socket (opened on first use, kept for later sessions).
net::UdpSocket& NetworkEngine::udpFor(std::uint64_t k, Endpoint& endpoint, Leg& leg,
                                      std::size_t index) {
    if (endpoint.serverRole || index == 0) return *endpoint.udp;
    if (!leg.udp) {
        leg.udp = network_.openUdp(host_, 0);
        leg.udp->onDatagram([this, k, index](const Bytes& payload, const net::Address& from) {
            noteReceived(k, payload.size());
            if (handler_) handler_(k, payload, from, index);
        });
    }
    return *leg.udp;
}

void NetworkEngine::send(std::uint64_t k, const Bytes& payload, std::size_t index) {
    Endpoint& endpoint = this->endpoint(k, "send");
    const Color& color = endpoint.color;
    Slot& s = slot(index);
    Leg& leg = s.legs[k];

    if (color.transport() == "udp") {
        net::UdpSocket& socket = udpFor(k, endpoint, leg, index);
        if (leg.lastPeer) {
            // We received earlier in this session: reply unicast.
            socket.sendTo(*leg.lastPeer, payload);
        } else if (color.isMulticast()) {
            const auto port = color.port();
            socket.sendTo(net::Address{color.group(), static_cast<std::uint16_t>(*port)},
                          payload);
        } else {
            const auto host = color.get(automata::keys::host);
            const auto port = color.port();
            if (!host || !port) {
                throw NetError("network engine: unicast udp color " + std::to_string(k) +
                               " has no target host/port");
            }
            socket.sendTo(net::Address{*host, static_cast<std::uint16_t>(*port)}, payload);
        }
        if (s.log != nullptr && s.log->inSession()) {
            s.log->recordTx(network_.now().time_since_epoch().count(), k, payload);
        }
        noteSent(endpoint, payload.size());
        return;
    }

    // tcp: (re)use one connection per session towards the set_host target or
    // the color's static host/port.
    if (leg.tcp && leg.tcp->isOpen()) {
        try {
            leg.tcp->send(payload);
            if (s.log != nullptr && s.log->inSession()) {
                s.log->recordTx(network_.now().time_since_epoch().count(), k, payload);
            }
            noteSent(endpoint, payload.size());
        } catch (const NetError& error) {
            // The connection raced a peer close; attribute it instead of
            // leaking a bare NetError through a scheduler callback.
            leg.tcp.reset();
            leg.peerClosed = true;
            throw PeerClosedError("network engine: tcp color " + std::to_string(k) +
                                  " lost its peer mid-session: " + error.what());
        }
        return;
    }
    if (endpoint.serverRole) {
        if (leg.peerClosed) {
            throw PeerClosedError("network engine: tcp server color " + std::to_string(k) +
                                  " cannot reply -- peer closed mid-session");
        }
        throw NetError("network engine: tcp server color " + std::to_string(k) +
                       " has no accepted connection to reply on");
    }
    // Bound the pre-connect queue by BYTES: a peer that never finishes its
    // connect must not let queued sends grow the heap without limit. Past
    // the cap the send is shed loudly with a coded error.
    if (options_.maxBacklogBytes != 0 &&
        leg.tcpBacklogBytes + payload.size() > options_.maxBacklogBytes) {
        if (telemetry::enabled()) backlogDroppedBytes_->add(payload.size());
        throw NetError(errc::ErrorCode::NetBacklogOverflow,
                       "network engine: tcp color " + std::to_string(k) +
                           " pre-connect backlog at " + std::to_string(leg.tcpBacklogBytes) +
                           "/" + std::to_string(options_.maxBacklogBytes) +
                           " bytes; shedding " + std::to_string(payload.size()) +
                           "-byte send");
    }
    leg.tcpBacklog.push_back(payload);
    leg.tcpBacklogBytes += payload.size();
    if (leg.tcpConnecting) return;
    net::Address target;
    if (leg.hostOverride) {
        target = *leg.hostOverride;
    } else {
        const auto host = color.get(automata::keys::host);
        const auto port = color.port();
        if (!host || !port) {
            leg.tcpBacklog.pop_back();
            leg.tcpBacklogBytes -= payload.size();
            throw NetError("network engine: tcp color " + std::to_string(k) +
                           " has no target; did the bridge spec forget set_host?");
        }
        target = net::Address{*host, static_cast<std::uint16_t>(*port)};
    }
    leg.tcpConnecting = true;
    if (s.tracer != nullptr && s.tracer->enabled() && leg.connectSpan == 0) {
        leg.connectSpan = s.tracer->begin("tcp-connect", network_.now());
        s.tracer->attr(leg.connectSpan, "target", target.toString());
        s.tracer->attr(leg.connectSpan, "color", std::to_string(k));
    }
    startConnect(k, index, target, 1);
}

void NetworkEngine::startConnect(std::uint64_t k, std::size_t index, const net::Address& target,
                                 int attempt) {
    if (telemetry::enabled()) connectAttempts_->add();
    const std::uint64_t generation = slot(index).legs[k].generation;
    network_.connectTcp(host_, target,
                        [this, k, index, generation, target,
                         attempt](std::shared_ptr<net::TcpConnection> connection) {
        Slot& s = slots_[index];
        Leg& leg = s.legs[k];
        if (leg.generation != generation) {
            // The session that asked for this connection has ended.
            if (connection) connection->close();
            return;
        }
        if (!connection) {
            if (attempt < options_.connectAttempts) {
                // Retry with a doubling delay; the backlog stays queued. The
                // shift exponent is clamped (a large configured attempt
                // budget used to shift past 31 -- signed-overflow UB) and
                // the delay saturates at connectRetryMaxDelay.
                const int shift = std::min(attempt - 1, 20);
                net::Duration delay = options_.connectRetryDelay * (std::int64_t{1} << shift);
                if (options_.connectRetryMaxDelay.count() > 0) {
                    delay = std::min(delay, options_.connectRetryMaxDelay);
                }
                STARLINK_LOG(Debug, "net-engine")
                    << "tcp connect to " << target.toString() << " refused (attempt "
                    << attempt << "/" << options_.connectAttempts << "), retrying";
                network_.scheduler().schedule(delay, [this, k, index, generation, target,
                                                      attempt] {
                    const Leg& current = slots_[index].legs[k];
                    if (current.generation != generation || !current.tcpConnecting) return;
                    startConnect(k, index, target, attempt + 1);
                });
                return;
            }
            leg.tcpConnecting = false;
            if (telemetry::enabled() && leg.tcpBacklogBytes > 0) {
                backlogDroppedBytes_->add(leg.tcpBacklogBytes);
            }
            leg.tcpBacklog.clear();
            leg.tcpBacklogBytes = 0;
            if (telemetry::enabled()) connectFailures_->add();
            endConnectSpan(s, leg, "refused", attempt);
            if (s.log != nullptr && s.log->inSession()) {
                s.log->recordConnect(network_.now().time_since_epoch().count(), k,
                                     target.toString(), telemetry::WireEvent::kConnectRefused,
                                     attempt);
            }
            reportFault({k, NetworkFault::ConnectRefused, errc::ErrorCode::NetConnectRefused,
                         "tcp connect to " + target.toString() + " refused after " +
                             std::to_string(attempt) + " attempts",
                         index, target});
            return;
        }
        leg.tcpConnecting = false;
        leg.tcp = connection;
        leg.peerClosed = false;
        wireConnection(k, connection, target);
        endConnectSpan(s, leg, "connected", attempt);
        if (s.log != nullptr && s.log->inSession()) {
            s.log->recordConnect(network_.now().time_since_epoch().count(), k, target.toString(),
                                 telemetry::WireEvent::kConnectConnected, attempt);
        }
        std::vector<Bytes> backlog;
        backlog.swap(leg.tcpBacklog);
        leg.tcpBacklogBytes = 0;
        Endpoint& endpoint = endpoints_.at(k);
        try {
            for (const Bytes& queued : backlog) {
                connection->send(queued);
                // Queued sends reach the wire only now: this is their tx
                // moment as far as the capture is concerned.
                if (s.log != nullptr && s.log->inSession()) {
                    s.log->recordTx(network_.now().time_since_epoch().count(), k, queued);
                }
                noteSent(endpoint, queued.size());
            }
        } catch (const NetError& error) {
            // Peer accepted then slammed the door before the backlog drained.
            leg.tcp.reset();
            leg.peerClosed = true;
            reportFault({k, NetworkFault::PeerClosed, errc::ErrorCode::NetPeerClosed,
                         "tcp peer " + target.toString() +
                             " closed while flushing queued sends: " + error.what(),
                         index, target});
        }
    });
}

void NetworkEngine::notePeer(std::uint64_t k, const net::Address& peer, std::size_t index) {
    Endpoint& endpoint = this->endpoint(k, "notePeer");
    Leg& leg = slot(index).legs[k];
    leg.lastPeer = peer;
    if (inbound_ && inboundColor_ == k) {
        // The accepted chunk came on an unclaimed connection: it becomes
        // this session's reply path.
        leg.tcp = inbound_;
        leg.peerClosed = false;
        std::erase(endpoint.unclaimed, inbound_);
        inbound_.reset();
    }
}

void NetworkEngine::setHost(std::uint64_t k, const std::string& host, int port,
                            std::size_t index) {
    endpoint(k, "set_host");
    slot(index).legs[k].hostOverride = net::Address{host, static_cast<std::uint16_t>(port)};
    STARLINK_LOG(Debug, "net-engine") << "set_host color " << k << " -> " << host << ":" << port;
}

void NetworkEngine::resetSession(std::size_t index) {
    for (auto& [k, leg] : slot(index).legs) {
        leg.lastPeer.reset();
        leg.hostOverride.reset();
        leg.tcpBacklog.clear();
        leg.tcpBacklogBytes = 0;
        leg.tcpConnecting = false;
        leg.peerClosed = false;
        ++leg.generation;
        // An in-flight connect span is force-closed by the session tracer at
        // session end; the handle just must not leak into the next session.
        leg.connectSpan = 0;
        if (leg.tcp) {
            leg.tcp->close();
            leg.tcp.reset();
        }
    }
}

}  // namespace starlink::engine
