#include "net/sim_network.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/telemetry/metrics.hpp"

namespace starlink::net {

namespace {

// Process-wide wire/fault counters, mirroring the per-instance tallies so an
// exported Prometheus snapshot can attribute drops to their injected cause.
// Resolved lazily on first (telemetry-enabled) use.
struct WireCounters {
    telemetry::Counter* datagramsSent;
    telemetry::Counter* lossDrops;
    telemetry::Counter* partitionDrops;
    telemetry::Counter* latencySpikes;
    telemetry::Counter* connectsRefused;
    telemetry::Counter* blackholes;
};

const WireCounters& wireCounters() {
    static const WireCounters counters = [] {
        auto& r = telemetry::MetricsRegistry::global();
        const auto fault = [&r](const char* kind) {
            return &r.counter(
                telemetry::labeled("starlink_net_fault_injections_total", {{"kind", kind}}));
        };
        return WireCounters{&r.counter("starlink_net_datagrams_sent_total"),
                            fault("loss"),
                            fault("partition"),
                            fault("latency-spike"),
                            &r.counter("starlink_net_connects_refused_total"),
                            fault("blackhole")};
    }();
    return counters;
}

}  // namespace

// ---------------------------------------------------------------------------
// SimUdpSocket

SimUdpSocket::~SimUdpSocket() {
    for (const Address& group : std::set<Address>(groups_)) {
        net_.leaveGroup(this, group);
    }
    net_.udpUnbind(this);
}

void SimUdpSocket::joinGroup(const Address& group) {
    if (!group.isMulticast()) {
        throw NetError(errc::ErrorCode::NetMisuse,
                       "joinGroup: " + group.toString() + " is not a multicast address");
    }
    net_.joinGroup(this, group);
    groups_.insert(group);
}

void SimUdpSocket::leaveGroup(const Address& group) {
    net_.leaveGroup(this, group);
    groups_.erase(group);
}

void SimUdpSocket::sendTo(const Address& dest, const Bytes& payload) {
    net_.udpSend(*this, dest, payload);
}

void SimUdpSocket::deliver(const Bytes& payload, const Address& from) {
    if (handler_) handler_(payload, from);
}

// ---------------------------------------------------------------------------
// SimTcpConnection

void SimTcpConnection::send(const Bytes& payload) {
    if (!open_) {
        throw NetError(errc::ErrorCode::NetClosedSend,
                       "send on closed connection to " + remote_.toString());
    }
    net_.tcpSend(*this, payload);
}

void SimTcpConnection::close() {
    if (!open_) return;
    open_ = false;
    net_.tcpClose(*this);
    // Handlers commonly capture a shared_ptr to this connection; a closed
    // connection never fires them again, so drop them to break the cycle.
    // (Invocation sites call through a copy, so a handler that closes its
    // own connection never destroys the closure it is executing.)
    dataHandler_ = nullptr;
    closeHandler_ = nullptr;
}

// ---------------------------------------------------------------------------
// SimTcpListener

SimTcpListener::~SimTcpListener() { net_.tcpUnbind(this); }

// ---------------------------------------------------------------------------
// SimNetwork

namespace {
std::pair<std::string, std::string> linkKey(const std::string& a, const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

// ---------------------------------------------------------------------------
// FaultSchedule

FaultSchedule& FaultSchedule::lossBurst(TimePoint start, Duration length, double probability,
                                        std::string host) {
    FaultEpisode episode;
    episode.kind = FaultEpisode::Kind::LossBurst;
    episode.start = start;
    episode.length = length;
    episode.lossProbability = probability;
    episode.host = std::move(host);
    return add(std::move(episode));
}

FaultSchedule& FaultSchedule::latencySpike(TimePoint start, Duration length, Duration extra,
                                           std::string host) {
    FaultEpisode episode;
    episode.kind = FaultEpisode::Kind::LatencySpike;
    episode.start = start;
    episode.length = length;
    episode.extraLatency = extra;
    episode.host = std::move(host);
    return add(std::move(episode));
}

FaultSchedule& FaultSchedule::partition(TimePoint start, Duration length, std::string host) {
    FaultEpisode episode;
    episode.kind = FaultEpisode::Kind::Partition;
    episode.start = start;
    episode.length = length;
    episode.host = std::move(host);
    return add(std::move(episode));
}

FaultSchedule& FaultSchedule::blackhole(TimePoint start, Duration length, std::string host) {
    FaultEpisode episode;
    episode.kind = FaultEpisode::Kind::ConnectBlackhole;
    episode.start = start;
    episode.length = length;
    episode.host = std::move(host);
    return add(std::move(episode));
}

FaultSchedule FaultSchedule::shiftedBy(Duration offset) const {
    FaultSchedule out;
    for (FaultEpisode episode : episodes_) {
        episode.start += offset;
        out.add(std::move(episode));
    }
    return out;
}

FaultSchedule FaultSchedule::chaos(std::uint64_t seed, Duration horizon,
                                   const std::vector<std::string>& hosts) {
    Rng rng(seed);
    FaultSchedule out;
    const std::int64_t horizonUs = horizon.count();
    if (horizonUs <= 0) return out;
    const int episodes = static_cast<int>(6 + rng.range(0, 6));
    for (int i = 0; i < episodes; ++i) {
        const TimePoint start = TimePoint{} + us(rng.range(0, horizonUs));
        const Duration length = us(rng.range(horizonUs / 100 + 1, horizonUs / 10 + 1));
        const std::string host =
            hosts.empty() ? std::string{}
                          : hosts[static_cast<std::size_t>(
                                rng.range(0, static_cast<std::int64_t>(hosts.size()) - 1))];
        switch (rng.range(0, 3)) {
            case 0:
                out.lossBurst(start, length, 0.5 + rng.uniform() * 0.5, host);
                break;
            case 1:
                out.latencySpike(start, length, ms(rng.range(50, 500)), host);
                break;
            case 2:
                out.partition(start, length, host);
                break;
            default:
                out.blackhole(start, length, host);
                break;
        }
    }
    return out;
}

void SimNetwork::setLinkLatency(const std::string& hostA, const std::string& hostB,
                                const LatencyModel& model) {
    linkLatency_[linkKey(hostA, hostB)] = model;
}

void SimNetwork::clearLinkLatency(const std::string& hostA, const std::string& hostB) {
    linkLatency_.erase(linkKey(hostA, hostB));
}

const LatencyModel& SimNetwork::modelFor(const std::string& from, const std::string& to) const {
    const auto it = linkLatency_.find(linkKey(from, to));
    return it == linkLatency_.end() ? latency_ : it->second;
}

Duration SimNetwork::sampleLatency() {
    const auto jitterUs = latency_.jitter.count();
    const Duration jitter = jitterUs > 0 ? us(rng_.range(0, jitterUs)) : us(0);
    return latency_.base + jitter;
}

Duration SimNetwork::sampleLatency(const std::string& from, const std::string& to) {
    const LatencyModel& model = modelFor(from, to);
    const auto jitterUs = model.jitter.count();
    const Duration jitter = jitterUs > 0 ? us(rng_.range(0, jitterUs)) : us(0);
    const Duration extra = faultExtraLatency(from, to);
    if (extra.count() > 0 && telemetry::enabled()) wireCounters().latencySpikes->add();
    return model.base + jitter + extra;
}

bool SimNetwork::pathUp(const std::string& a, const std::string& b) const {
    if (partitioned_.contains(a) || partitioned_.contains(b)) return false;
    const TimePoint t = now();
    for (const FaultEpisode& episode : faults_.episodes()) {
        if (episode.kind != FaultEpisode::Kind::Partition || !episode.activeAt(t)) continue;
        if (episode.covers(a) || episode.covers(b)) return false;
    }
    return true;
}

double SimNetwork::effectiveLoss(const std::string& a, const std::string& b) const {
    double loss = modelFor(a, b).lossProbability;
    const TimePoint t = now();
    for (const FaultEpisode& episode : faults_.episodes()) {
        if (episode.kind != FaultEpisode::Kind::LossBurst || !episode.activeAt(t)) continue;
        if (episode.covers(a) || episode.covers(b)) loss = std::max(loss, episode.lossProbability);
    }
    return loss;
}

Duration SimNetwork::faultExtraLatency(const std::string& a, const std::string& b) const {
    Duration extra = us(0);
    const TimePoint t = now();
    for (const FaultEpisode& episode : faults_.episodes()) {
        if (episode.kind != FaultEpisode::Kind::LatencySpike || !episode.activeAt(t)) continue;
        if (episode.covers(a) || episode.covers(b)) extra += episode.extraLatency;
    }
    return extra;
}

bool SimNetwork::faultBlackholed(const std::string& host) const {
    const TimePoint t = now();
    for (const FaultEpisode& episode : faults_.episodes()) {
        if (episode.kind != FaultEpisode::Kind::ConnectBlackhole || !episode.activeAt(t)) continue;
        if (episode.covers(host)) return true;
    }
    return false;
}

std::uint16_t SimNetwork::ephemeralPort(const std::string& host) {
    std::uint16_t& next = nextEphemeral_[host];
    if (next < 49152) next = 49152;
    // Skip ports that are already bound (either protocol) on this host.
    for (int attempts = 0; attempts < 16384; ++attempts) {
        const std::uint16_t candidate = next++;
        const Address addr{host, candidate};
        if (!udpBindings_.contains(addr) && !tcpBindings_.contains(addr)) return candidate;
    }
    throw NetError(errc::ErrorCode::NetBindConflict,
                   "ephemeral port space exhausted on " + host);
}

std::unique_ptr<UdpSocket> SimNetwork::openUdp(const std::string& host, std::uint16_t port) {
    if (port == 0) port = ephemeralPort(host);
    const Address local{host, port};
    if (udpBindings_.contains(local)) {
        throw NetError(errc::ErrorCode::NetBindConflict,
                       "udp bind: " + local.toString() + " already in use");
    }
    auto socket = std::unique_ptr<SimUdpSocket>(new SimUdpSocket(*this, local));
    udpBindings_[local] = socket.get();
    return socket;
}

void SimNetwork::udpUnbind(SimUdpSocket* socket) { udpBindings_.erase(socket->localAddress()); }

void SimNetwork::joinGroup(SimUdpSocket* socket, const Address& group) {
    groups_[group].insert(socket);
}

void SimNetwork::leaveGroup(SimUdpSocket* socket, const Address& group) {
    const auto it = groups_.find(group);
    if (it == groups_.end()) return;
    it->second.erase(socket);
    if (it->second.empty()) groups_.erase(it);
}

void SimNetwork::udpSend(SimUdpSocket& from, const Address& dest, const Bytes& payload) {
    ++datagramsSent_;
    if (telemetry::enabled()) wireCounters().datagramsSent->add();
    const Address source = from.localAddress();

    // Determine recipients now (membership at send time), deliver later.
    std::vector<SimUdpSocket*> recipients;
    if (dest.isMulticast()) {
        const auto it = groups_.find(dest);
        if (it != groups_.end()) {
            for (SimUdpSocket* member : it->second) {
                if (member != &from) recipients.push_back(member);
            }
        }
    } else {
        const auto it = udpBindings_.find(dest);
        if (it != udpBindings_.end()) recipients.push_back(it->second);
    }

    for (SimUdpSocket* recipient : recipients) {
        if (!pathUp(source.host, recipient->localAddress().host)) {
            ++partitionDrops_;
            if (telemetry::enabled()) wireCounters().partitionDrops->add();
            continue;
        }
        const double loss = effectiveLoss(source.host, recipient->localAddress().host);
        if (loss > 0.0 && rng_.chance(loss)) {
            ++lossDrops_;
            if (telemetry::enabled()) wireCounters().lossDrops->add();
            continue;
        }
        const Address target = recipient->localAddress();
        scheduler_.schedule(sampleLatency(source.host, target.host),
                            [this, target, payload, source] {
            // Re-resolve: the socket may have been closed in flight.
            const auto it = udpBindings_.find(target);
            if (it != udpBindings_.end()) it->second->deliver(payload, source);
        });
    }
}

std::unique_ptr<TcpListener> SimNetwork::listenTcp(const std::string& host, std::uint16_t port) {
    const Address local{host, port};
    if (tcpBindings_.contains(local)) {
        throw NetError(errc::ErrorCode::NetBindConflict,
                       "tcp bind: " + local.toString() + " already in use");
    }
    auto listener = std::unique_ptr<SimTcpListener>(new SimTcpListener(*this, local));
    tcpBindings_[local] = listener.get();
    return listener;
}

void SimNetwork::tcpUnbind(SimTcpListener* listener) { tcpBindings_.erase(listener->localAddress()); }

void SimNetwork::connectTcp(const std::string& host, const Address& dest,
                            ConnectCallback onResult, ConnectErrorCallback onError) {
    scheduler_.schedule(sampleLatency(host, dest.host),
                        [this, host, dest, onResult = std::move(onResult),
                         onError = std::move(onError)] {
        const auto it = tcpBindings_.find(dest);
        const bool blackholed = faultBlackholed(host) || faultBlackholed(dest.host);
        if (it == tcpBindings_.end() || !pathUp(host, dest.host) || blackholed) {
            ++connectsRefused_;
            if (telemetry::enabled()) {
                wireCounters().connectsRefused->add();
                if (blackholed) wireCounters().blackholes->add();
            }
            if (onError) {
                onError(errc::ErrorCode::NetConnectRefused,
                        blackholed ? "connect to " + dest.toString() + " blackholed"
                                   : "connect to " + dest.toString() + " refused");
            }
            onResult(nullptr);
            return;
        }
        const Address clientAddr{host, ephemeralPort(host)};
        auto client =
            std::shared_ptr<SimTcpConnection>(new SimTcpConnection(*this, clientAddr, dest));
        auto server =
            std::shared_ptr<SimTcpConnection>(new SimTcpConnection(*this, dest, clientAddr));
        client->peer_ = server;
        server->peer_ = client;
        aliveTcp_.insert(client);
        aliveTcp_.insert(server);
        if (it->second->handler_) it->second->handler_(server);
        onResult(client);
    });
}

bool SimNetwork::runUntil(std::function<bool()> done, Duration timeout) {
    const TimePoint deadline = now() + timeout;
    while (!done()) {
        if (now() >= deadline) break;
        if (!scheduler_.runOneBefore(deadline)) break;  // idle: clock is at deadline
    }
    return done();
}

void SimNetwork::tcpSend(SimTcpConnection& from, const Bytes& payload) {
    auto peer = from.peer_.lock();
    if (!peer || !peer->open_) return;  // peer already gone; data vanishes as on RST
    if (!pathUp(from.local_.host, peer->local_.host)) return;
    TimePoint deliverAt =
        scheduler_.clock().now() + sampleLatency(from.local_.host, peer->local_.host);
    if (deliverAt < peer->earliestDelivery_) deliverAt = peer->earliestDelivery_;
    peer->earliestDelivery_ = deliverAt;  // ties keep insertion order in the scheduler
    scheduler_.scheduleAt(deliverAt, [peer, payload] {
        if (!peer->open_) return;
        const auto handler = peer->dataHandler_;  // copy: handler may close() the connection
        if (handler) handler(payload);
    });
}

void SimNetwork::tcpClose(SimTcpConnection& from) {
    auto peer = from.peer_.lock();
    aliveTcp_.erase(std::static_pointer_cast<SimTcpConnection>(from.shared_from_this()));
    if (!peer) return;
    if (!peer->open_) {
        aliveTcp_.erase(peer);
        return;
    }
    // A close is a FIN: it must not overtake data already in flight on the
    // same connection.
    TimePoint deliverAt =
        scheduler_.clock().now() + sampleLatency(from.local_.host, peer->local_.host);
    if (deliverAt < peer->earliestDelivery_) deliverAt = peer->earliestDelivery_;
    peer->earliestDelivery_ = deliverAt;
    scheduler_.scheduleAt(deliverAt, [this, peer] {
        aliveTcp_.erase(peer);
        if (!peer->open_) return;
        peer->open_ = false;
        const auto handler = peer->closeHandler_;
        peer->dataHandler_ = nullptr;  // break handler -> shared_ptr -> connection cycles
        peer->closeHandler_ = nullptr;
        if (handler) handler(errc::ErrorCode::NetPeerClosed);
    });
}

SimNetwork::~SimNetwork() {
    for (const auto& connection : aliveTcp_) {
        connection->open_ = false;
        connection->dataHandler_ = nullptr;
        connection->closeHandler_ = nullptr;
    }
}

void SimNetwork::partitionHost(const std::string& host) { partitioned_.insert(host); }
void SimNetwork::healHost(const std::string& host) { partitioned_.erase(host); }
bool SimNetwork::isPartitioned(const std::string& host) const { return partitioned_.contains(host); }

}  // namespace starlink::net
