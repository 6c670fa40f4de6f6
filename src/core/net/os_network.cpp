#include "core/net/os_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"

namespace starlink::net {

namespace {

constexpr std::uint32_t kReadEvents = EPOLLIN;
constexpr std::uint32_t kReadWriteEvents = EPOLLIN | EPOLLOUT;

std::string errnoText(int err) { return std::string(std::strerror(err)); }

errc::ErrorCode bindErrorCode(int err) {
    if (err == EADDRINUSE) return errc::ErrorCode::NetBindConflict;
    if (err == EMFILE || err == ENFILE) return errc::ErrorCode::NetFdExhausted;
    return errc::ErrorCode::NetBindFailed;
}

bool toSockaddr(const std::string& host, std::uint16_t port, sockaddr_in& out) {
    std::memset(&out, 0, sizeof out);
    out.sin_family = AF_INET;
    out.sin_port = htons(port);
    const char* ip = host == "localhost" ? "127.0.0.1" : host.c_str();
    return ::inet_pton(AF_INET, ip, &out.sin_addr) == 1;
}

Address fromSockaddr(const sockaddr_in& sa) {
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &sa.sin_addr, ip, sizeof ip);
    return Address{ip, ntohs(sa.sin_port)};
}

void appendFrameHeader(Bytes& out, std::size_t length) {
    out.push_back(static_cast<std::uint8_t>((length >> 24) & 0xff));
    out.push_back(static_cast<std::uint8_t>((length >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((length >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>(length & 0xff));
}

/// Calls the handler held in `slot` without copying it: it is moved out for
/// the call, so it may replace itself or destroy its owner, and goes back
/// (also when it throws) only when `alive()` still holds and nothing
/// replaced it. Clearing the slot from inside the call is not seen.
template <typename Handler, typename Alive, typename... Args>
void callInPlace(Handler& slot, Alive alive, Args&&... args) {
    if (!slot) return;
    struct Restore {
        Handler& slot;
        Alive& alive;
        Handler handler;
        ~Restore() {
            if (alive() && !slot) slot = std::move(handler);
        }
    } restore{slot, alive, std::move(slot)};
    slot = nullptr;
    restore.handler(std::forward<Args>(args)...);
}

}  // namespace

// ---------------------------------------------------------------------------
// OsNetwork lifecycle

OsNetwork::OsNetwork() : OsNetwork(Options{}) {}

OsNetwork::OsNetwork(Options options)
    : options_(std::move(options)), timers_([this] { return now(); }) {
    start_ = std::chrono::time_point_cast<Duration>(std::chrono::steady_clock::now());
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) {
        throw NetError(errc::ErrorCode::NetIo, "epoll_create1: " + errnoText(errno));
    }
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wakeFd_ < 0) {
        ::close(epollFd_);
        throw NetError(errc::ErrorCode::NetIo, "eventfd: " + errnoText(errno));
    }
    registerFd(wakeFd_, FdKind::Wake, kReadEvents);
}

OsNetwork::~OsNetwork() {
    // Mirror ~SimNetwork: mark surviving connections closed and drop their
    // handlers so user-held shared_ptrs do not keep cycles (or dead fds).
    for (FdEntry& entry : fds_) {
        switch (entry.kind) {
            case FdKind::Udp:
                entry.udp->fd_ = -1;
                entry.udp->net_ = nullptr;
                break;
            case FdKind::Listener:
                entry.listener->fd_ = -1;
                entry.listener->net_ = nullptr;
                break;
            case FdKind::Tcp: {
                OsTcpConnection& conn = *entry.tcp;
                conn.open_ = false;
                conn.dataHandler_ = nullptr;
                conn.closeHandler_ = nullptr;
                conn.fd_ = -1;
                conn.net_ = nullptr;
                break;
            }
            case FdKind::Free:
                continue;
            case FdKind::Wake:
            case FdKind::Membership:
            case FdKind::Connecting:
                break;
        }
        ::close(static_cast<int>(&entry - fds_.data()));
    }
    fds_.clear();
    ::close(epollFd_);
}

TaskScheduler& OsNetwork::scheduler() { return timers_; }

TimePoint OsNetwork::now() const {
    const auto elapsed = std::chrono::time_point_cast<Duration>(std::chrono::steady_clock::now()) -
                         start_;
    return TimePoint{} + elapsed;
}

// ---------------------------------------------------------------------------
// fd bookkeeping

void OsNetwork::reserveFd(const char* what) {
    if (options_.maxOpenSockets != 0 && openFds_ >= options_.maxOpenSockets) {
        throw NetError(errc::ErrorCode::NetFdExhausted,
                       std::string(what) + ": socket budget exhausted (" +
                           std::to_string(options_.maxOpenSockets) + " open)");
    }
}

int OsNetwork::makeSocket(int type, const char* what) {
    reserveFd(what);
    const int fd = ::socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        const int err = errno;
        if (err == EMFILE || err == ENFILE) {
            throw NetError(errc::ErrorCode::NetFdExhausted,
                           std::string(what) + ": " + errnoText(err));
        }
        throw NetError(errc::ErrorCode::NetIo, std::string(what) + ": " + errnoText(err));
    }
    ++openFds_;
    return fd;
}

OsNetwork::FdEntry& OsNetwork::registerFd(int fd, FdKind kind, std::uint32_t events) {
    if (static_cast<std::size_t>(fd) >= fds_.size()) fds_.resize(static_cast<std::size_t>(fd) + 1);
    FdEntry& entry = entryOf(fd);
    entry.kind = kind;
    entry.generation = nextGeneration_++;
    if (nextGeneration_ == 0) nextGeneration_ = 1;  // 0 marks a free slot
    epollCtl(EPOLL_CTL_ADD, fd, events);
    return entry;
}

void OsNetwork::epollCtl(int op, int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = (static_cast<std::uint64_t>(entryOf(fd).generation) << 32) |
                  static_cast<std::uint32_t>(fd);
    ::epoll_ctl(epollFd_, op, fd, &ev);
}

void OsNetwork::unregisterFd(int fd) {
    if (static_cast<std::size_t>(fd) >= fds_.size() || entryOf(fd).kind == FdKind::Free) return;
    entryOf(fd) = FdEntry{};
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
}

void OsNetwork::closeFd(int fd) {
    if (fd < 0) return;
    unregisterFd(fd);
    ::close(fd);
    if (openFds_ > 0) --openFds_;
}

bool OsNetwork::live(int fd, std::uint32_t generation) const {
    return generation != 0 && static_cast<std::size_t>(fd) < fds_.size() &&
           fds_[static_cast<std::size_t>(fd)].generation == generation;
}

// ---------------------------------------------------------------------------
// event loop

bool OsNetwork::poll(Duration maxWait) {
    if (dispatching_) {
        throw NetError(errc::ErrorCode::NetMisuse, "OsNetwork::poll re-entered from a callback");
    }
    Duration wait = maxWait;
    if (const auto next = timers_.nextDeadline()) wait = std::min(wait, *next - now());
    if (wait.count() < 0) wait = us(0);
    const int timeoutMs = static_cast<int>(
        std::min<std::int64_t>((wait.count() + 999) / 1000, 60'000));

    epoll_event events[64];
    const int n = ::epoll_wait(epollFd_, events, 64, timeoutMs);
    dispatching_ = true;
    struct Done {
        bool& flag;
        ~Done() { flag = false; }
    } done{dispatching_};
    bool ran = false;
    for (int i = 0; i < n; ++i) {
        const int fd = static_cast<int>(events[i].data.u64 & 0xffffffffu);
        const auto generation = static_cast<std::uint32_t>(events[i].data.u64 >> 32);
        if (!live(fd, generation)) continue;  // closed, or its number reused, meanwhile
        dispatch(fd, events[i].events);
        ran = true;
    }
    if (timers_.runDue() > 0) ran = true;
    return ran;
}

void OsNetwork::dispatch(int fd, std::uint32_t events) {
    FdEntry& entry = entryOf(fd);
    const std::uint32_t generation = entry.generation;
    switch (entry.kind) {
        case FdKind::Wake: {
            std::uint64_t drained = 0;
            while (::read(fd, &drained, sizeof drained) > 0) {
            }
            break;
        }
        case FdKind::Udp:
            if (events & EPOLLIN) onUdpReadable(fd, generation);
            break;
        case FdKind::Membership:
            if (events & EPOLLIN) onMembershipReadable(fd, generation);
            break;
        case FdKind::Listener:
            if (events & EPOLLIN) onListenerReadable(fd, generation);
            break;
        case FdKind::Tcp: {
            const std::shared_ptr<OsTcpConnection> guard = entry.tcp;  // handlers may drop it
            onTcpEvents(guard, events);
            break;
        }
        case FdKind::Connecting: {
            int socketError = 0;
            socklen_t len = sizeof socketError;
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &socketError, &len);
            settleConnect(fd, generation, socketError);
            break;
        }
        case FdKind::Free:
            break;
    }
}

bool OsNetwork::runUntil(std::function<bool()> done, Duration timeout) {
    const TimePoint deadline = now() + timeout;
    while (!stopRequested_ && !done()) {
        const Duration remain = deadline - now();
        if (remain.count() <= 0) break;
        poll(std::min(remain, ms(500)));
    }
    return done();
}

void OsNetwork::wakeFromSignal() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto written = ::write(wakeFd_, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// address mapping

bool OsNetwork::isLiteralHost(const std::string& host) const {
    return host == options_.bindAddress || host == "localhost" || host.rfind("127.", 0) == 0;
}

std::uint16_t OsNetwork::realPortFor(std::uint16_t logicalPort) const {
    const std::uint32_t real = static_cast<std::uint32_t>(options_.portBase) + logicalPort;
    if (real > 65535) {
        throw NetError(errc::ErrorCode::NetBindFailed,
                       "port base " + std::to_string(options_.portBase) + " + port " +
                           std::to_string(logicalPort) + " exceeds 65535");
    }
    return static_cast<std::uint16_t>(real);
}

Address OsNetwork::bindUdp(int fd, const std::string& host, std::uint16_t port) {
    const std::string bindHost = isLiteralHost(host) ? host : options_.bindAddress;
    std::uint16_t bindPort = 0;
    if (port != 0) {
        bindPort = isLiteralHost(host) ? port
                   : options_.portBase != 0 ? realPortFor(port)
                                            : 0;  // kernel-assigned, recorded below
    }
    if (bindPort != 0 && !isLiteralHost(host) && options_.portBase != 0) {
        // Distinct logical hosts may share a logical port -- the sim allows
        // it (e.g. the bridge's SSDP color and a co-hosted ssdp::Device both
        // bind 1900), but they collapse onto one real port here. The first
        // binder owns the deterministic base+port endpoint (what other
        // processes aim at); later in-process binders take a kernel-assigned
        // port, which in-process sends still find via udpBindings_. A port
        // held by another PROCESS stays a coded net.bind-conflict.
        for (const auto& [addr, socket] : udpBindings_) {
            if (socket->realAddress().port == bindPort) {
                bindPort = 0;
                break;
            }
        }
    }
    sockaddr_in sa{};
    if (!toSockaddr(bindHost, bindPort, sa)) {
        throw NetError(errc::ErrorCode::NetUrlInvalid, "bad bind address " + bindHost);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
        const int err = errno;
        throw NetError(bindErrorCode(err), "bind " + bindHost + ":" + std::to_string(bindPort) +
                                               ": " + errnoText(err));
    }
    socklen_t len = sizeof sa;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    return fromSockaddr(sa);
}

std::optional<Address> OsNetwork::resolveSendTarget(const Address& dest) {
    if (isLiteralHost(dest.host)) return dest;
    const auto it = udpBindings_.find(dest);
    if (it != udpBindings_.end()) return it->second->realAddress();
    if (options_.portBase != 0) return Address{options_.bindAddress, realPortFor(dest.port)};
    return std::nullopt;
}

std::optional<Address> OsNetwork::realEndpoint(const std::string& host,
                                               std::uint16_t port) const {
    const Address logical{host, port};
    if (const auto udp = udpBindings_.find(logical); udp != udpBindings_.end()) {
        return udp->second->realAddress();
    }
    if (const auto tcp = tcpBindings_.find(logical); tcp != tcpBindings_.end()) {
        return tcp->second->realAddress();
    }
    if (const auto member = memberships_.find(logical); member != memberships_.end()) {
        return Address{host, member->second.realPort};
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// UDP

std::unique_ptr<UdpSocket> OsNetwork::openUdp(const std::string& host, std::uint16_t port) {
    if (port != 0) {
        const Address logical{host, port};
        if (udpBindings_.contains(logical)) {
            throw NetError(errc::ErrorCode::NetBindConflict,
                           "udp bind: " + logical.toString() + " already in use");
        }
    }
    const int fd = makeSocket(SOCK_DGRAM, "openUdp");
    Address real;
    try {
        real = bindUdp(fd, host, port);
    } catch (...) {
        ::close(fd);
        --openFds_;
        throw;
    }
    // Ephemeral logical binds adopt the kernel port as their logical port,
    // exactly as the sim adopts its ephemeral allocation.
    const Address logical{host, port != 0 ? port : real.port};
    auto socket = std::unique_ptr<OsUdpSocket>(new OsUdpSocket(this, fd, logical, real));
    udpBindings_[logical] = socket.get();
    registerFd(fd, FdKind::Udp, kReadEvents).udp = socket.get();
    return socket;
}

void OsNetwork::onUdpReadable(int fd, std::uint32_t generation) {
    while (live(fd, generation)) {
        sockaddr_in src{};
        socklen_t len = sizeof src;
        const ssize_t n = ::recvfrom(fd, rxScratch_.data(), rxScratch_.size(), 0,
                                     reinterpret_cast<sockaddr*>(&src), &len);
        if (n < 0) break;  // EAGAIN (or transient error): wait for next wakeup
        rxPayload_.assign(rxScratch_.data(), rxScratch_.data() + n);
        deliverDatagram(fd, generation, fromSockaddr(src));
    }
}

void OsNetwork::deliverDatagram(int fd, std::uint32_t generation, const Address& from) {
    const auto alive = [this, fd, generation] { return live(fd, generation); };
    callInPlace(entryOf(fd).udp->handler_, alive, rxPayload_, from);
}

void OsUdpSocket::sendTo(const Address& dest, const Bytes& payload) {
    if (net_ == nullptr) return;  // network torn down; match sim's dead-fabric no-op
    net_->udpSend(*this, dest, payload);
}

void OsNetwork::udpSend(OsUdpSocket& from, const Address& dest, const Bytes& payload) {
    sockaddr_in target{};
    if (dest.isMulticast()) {
        from.configureMulticastEgress();
        std::uint16_t realGroupPort = 0;
        if (options_.portBase != 0) {
            realGroupPort = realPortFor(dest.port);
        } else if (const auto it = groupPorts_.find(dest); it != groupPorts_.end()) {
            realGroupPort = it->second;
        } else {
            ++unrouted_;  // no membership anywhere we can reach: drop, like the sim
            return;
        }
        toSockaddr(dest.host, realGroupPort, target);
    } else {
        const auto resolved = resolveSendTarget(dest);
        if (!resolved) {
            ++unrouted_;
            return;
        }
        if (!toSockaddr(resolved->host, resolved->port, target)) {
            ++unrouted_;
            return;
        }
    }
    ssize_t sent = ::sendto(from.fd_, payload.data(), payload.size(), MSG_NOSIGNAL,
                            reinterpret_cast<sockaddr*>(&target), sizeof target);
    if (sent < 0 && errno == ECONNREFUSED) {
        // A previous datagram to a dead port left an ICMP error on the socket;
        // clear it with one retry (standard unconnected-UDP Linux behaviour).
        sent = ::sendto(from.fd_, payload.data(), payload.size(), MSG_NOSIGNAL,
                        reinterpret_cast<sockaddr*>(&target), sizeof target);
    }
    if (sent < 0) ++unrouted_;
}

void OsUdpSocket::joinGroup(const Address& group) {
    if (!group.isMulticast()) {
        throw NetError(errc::ErrorCode::NetMisuse,
                       "joinGroup: " + group.toString() + " is not a multicast address");
    }
    if (net_ == nullptr) return;
    auto& membership = net_->ensureMembership(group);
    if (std::find(membership.members.begin(), membership.members.end(), this) ==
        membership.members.end()) {
        membership.members.push_back(this);
    }
    groups_.insert(group);
    configureMulticastEgress();
}

// Group egress goes out this socket's own fd so replies reach us and the
// datagram is attributable to this member (self-exclusion keys on our real
// source port). Pinned to loopback explicitly: without IP_MULTICAST_IF the
// kernel routes group traffic out the default multicast interface, which on
// a CI runner is NOT lo.
void OsUdpSocket::configureMulticastEgress() {
    if (mcastEgressConfigured_) return;
    mcastEgressConfigured_ = true;
    in_addr ifaddr{};
    ::inet_pton(AF_INET, "127.0.0.1", &ifaddr);
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_IF, &ifaddr, sizeof ifaddr);
    const unsigned char loop = 1;
    const unsigned char ttl = 1;
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl);
}

void OsUdpSocket::leaveGroup(const Address& group) {
    if (net_ != nullptr) net_->dropMember(this, group);
    groups_.erase(group);
}

OsUdpSocket::~OsUdpSocket() {
    if (net_ == nullptr) {
        if (fd_ >= 0) ::close(fd_);
        return;
    }
    while (!groups_.empty()) {
        net_->dropMember(this, *groups_.begin());
        groups_.erase(groups_.begin());
    }
    net_->udpBindings_.erase(logical_);
    net_->closeFd(fd_);
}

OsNetwork::Membership& OsNetwork::ensureMembership(const Address& group) {
    const auto existing = memberships_.find(group);
    if (existing != memberships_.end()) return existing->second;

    const int fd = makeSocket(SOCK_DGRAM, "joinGroup");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    // Bind to the group address itself: no overlap with unicast binds on the
    // same port, and other processes sharing the port base can bind the same
    // (group, port) pair thanks to SO_REUSEADDR.
    std::uint16_t realPort = 0;
    if (options_.portBase != 0) {
        realPort = realPortFor(group.port);
    } else if (const auto it = groupPorts_.find(group); it != groupPorts_.end()) {
        realPort = it->second;
    }
    sockaddr_in sa{};
    toSockaddr(group.host, realPort, sa);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
        const int err = errno;
        ::close(fd);
        --openFds_;
        throw NetError(bindErrorCode(err),
                       "multicast bind " + group.toString() + ": " + errnoText(err));
    }
    socklen_t len = sizeof sa;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    realPort = ntohs(sa.sin_port);

    ip_mreq mreq{};
    ::inet_pton(AF_INET, group.host.c_str(), &mreq.imr_multiaddr);
    ::inet_pton(AF_INET, "127.0.0.1", &mreq.imr_interface);
    if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0) {
        const int err = errno;
        ::close(fd);
        --openFds_;
        throw NetError(errc::ErrorCode::NetBindFailed,
                       "IP_ADD_MEMBERSHIP " + group.toString() + ": " + errnoText(err));
    }

    groupPorts_[group] = realPort;
    Membership& membership = memberships_[group];
    membership.fd = fd;
    membership.realPort = realPort;
    registerFd(fd, FdKind::Membership, kReadEvents).membership = &membership;
    return membership;
}

void OsNetwork::dropMember(OsUdpSocket* socket, const Address& group) {
    const auto it = memberships_.find(group);
    if (it == memberships_.end()) return;
    auto& members = it->second.members;
    members.erase(std::remove(members.begin(), members.end(), socket), members.end());
    if (members.empty()) {
        closeFd(it->second.fd);
        memberships_.erase(it);
    }
}

void OsNetwork::onMembershipReadable(int fd, std::uint32_t generation) {
    while (live(fd, generation)) {
        sockaddr_in src{};
        socklen_t len = sizeof src;
        const ssize_t n = ::recvfrom(fd, rxScratch_.data(), rxScratch_.size(), 0,
                                     reinterpret_cast<sockaddr*>(&src), &len);
        if (n < 0) break;
        const Address from = fromSockaddr(src);
        rxPayload_.assign(rxScratch_.data(), rxScratch_.data() + n);
        // Deliver to the members at arrival (as the sim fixes recipients at
        // send time); one that closes meanwhile is skipped by its generation.
        fanout_.clear();
        for (const OsUdpSocket* member : entryOf(fd).membership->members) {
            fanout_.emplace_back(member->fd_, entryOf(member->fd_).generation);
        }
        for (const auto& [memberFd, memberGeneration] : fanout_) {
            if (!live(memberFd, memberGeneration)) continue;
            if (entryOf(memberFd).udp->realAddress().port == from.port) continue;  // the sender
            deliverDatagram(memberFd, memberGeneration, from);
        }
    }
}

// ---------------------------------------------------------------------------
// TCP

std::unique_ptr<TcpListener> OsNetwork::listenTcp(const std::string& host, std::uint16_t port) {
    return listenTcpInternal(host, port, /*framed=*/true);
}

std::unique_ptr<TcpListener> OsNetwork::listenTcpRaw(const std::string& host,
                                                     std::uint16_t port) {
    return listenTcpInternal(host, port, /*framed=*/false);
}

std::unique_ptr<TcpListener> OsNetwork::listenTcpInternal(const std::string& host,
                                                          std::uint16_t port, bool framed) {
    const Address logical{host, port};
    if (port != 0 && tcpBindings_.contains(logical)) {
        throw NetError(errc::ErrorCode::NetBindConflict,
                       "tcp bind: " + logical.toString() + " already in use");
    }
    const int fd = makeSocket(SOCK_STREAM, "listenTcp");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    const std::string bindHost = isLiteralHost(host) ? host : options_.bindAddress;
    std::uint16_t bindPort = 0;
    if (port != 0) {
        bindPort = isLiteralHost(host)         ? port
                   : options_.portBase != 0 ? realPortFor(port)
                                               : 0;
    }
    if (bindPort != 0 && !isLiteralHost(host) && options_.portBase != 0) {
        // Same logical-port-sharing rule as bindUdp: a later in-process
        // listener on an already-claimed base+port falls back to a
        // kernel-assigned port that connectTcp resolves via tcpBindings_.
        for (const auto& [addr, listener] : tcpBindings_) {
            if (listener->realAddress().port == bindPort) {
                bindPort = 0;
                break;
            }
        }
    }
    sockaddr_in sa{};
    if (!toSockaddr(bindHost, bindPort, sa)) {
        ::close(fd);
        --openFds_;
        throw NetError(errc::ErrorCode::NetUrlInvalid, "bad bind address " + bindHost);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 || ::listen(fd, 64) != 0) {
        const int err = errno;
        ::close(fd);
        --openFds_;
        throw NetError(bindErrorCode(err), "tcp listen " + bindHost + ":" +
                                               std::to_string(bindPort) + ": " + errnoText(err));
    }
    socklen_t len = sizeof sa;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    const Address real = fromSockaddr(sa);
    const Address effectiveLogical{host, port != 0 ? port : real.port};

    auto listener = std::unique_ptr<OsTcpListener>(
        new OsTcpListener(this, fd, effectiveLogical, real, framed));
    tcpBindings_[effectiveLogical] = listener.get();
    registerFd(fd, FdKind::Listener, kReadEvents).listener = listener.get();
    return listener;
}

OsTcpListener::~OsTcpListener() {
    if (net_ == nullptr) {
        if (fd_ >= 0) ::close(fd_);
        return;
    }
    net_->tcpBindings_.erase(logical_);
    net_->closeFd(fd_);
}

void OsNetwork::onListenerReadable(int listenFd, std::uint32_t generation) {
    while (live(listenFd, generation)) {
        OsTcpListener* listener = entryOf(listenFd).listener;
        sockaddr_in peer{};
        socklen_t len = sizeof peer;
        const int fd = ::accept4(listenFd, reinterpret_cast<sockaddr*>(&peer), &len,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EMFILE || errno == ENFILE) {
                STARLINK_LOG(Warn, "os-net")
                    << "accept on " << listener->localAddress().toString()
                    << " dropped a connection: " << errnoText(errno);
            }
            break;
        }
        if (options_.maxOpenSockets != 0 && openFds_ >= options_.maxOpenSockets) {
            STARLINK_LOG(Warn, "os-net")
                << "accept on " << listener->localAddress().toString()
                << " dropped a connection: socket budget exhausted";
            ::close(fd);
            continue;
        }
        ++openFds_;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_shared<OsTcpConnection>(OsTcpConnection::Key{}, this, fd,
                                                      listener->localAddress(),
                                                      fromSockaddr(peer), listener->framed_);
        adoptConnection(conn);
        callInPlace(
            listener->handler_, [this, listenFd, generation] { return live(listenFd, generation); },
            std::move(conn));
    }
}

void OsNetwork::adoptConnection(std::shared_ptr<OsTcpConnection> conn) {
    const int fd = conn->fd_;
    registerFd(fd, FdKind::Tcp, kReadEvents).tcp = std::move(conn);
}

void OsNetwork::connectTcp(const std::string& /*host*/, const Address& dest,
                           ConnectCallback onResult, ConnectErrorCallback onError) {
    const auto fail = [&](errc::ErrorCode code, std::string what) {
        // Deliver asynchronously so the caller observes the same
        // callback-later contract as the sim backend.
        timers_.schedule(us(0), [onResult = std::move(onResult), onError = std::move(onError),
                                 code, what = std::move(what)] {
            if (onError) onError(code, what);
            onResult(nullptr);
        });
    };

    Address target;
    if (isLiteralHost(dest.host)) {
        target = dest;
    } else if (const auto it = tcpBindings_.find(dest); it != tcpBindings_.end()) {
        target = it->second->realAddress();
    } else if (options_.portBase != 0) {
        target = Address{options_.bindAddress, realPortFor(dest.port)};
    } else {
        fail(errc::ErrorCode::NetConnectRefused,
             "connect to " + dest.toString() + " refused: no listener bound");
        return;
    }

    if (options_.maxOpenSockets != 0 && openFds_ >= options_.maxOpenSockets) {
        fail(errc::ErrorCode::NetFdExhausted, "connect to " + dest.toString() +
                                                  ": socket budget exhausted");
        return;
    }
    int fd = -1;
    try {
        fd = makeSocket(SOCK_STREAM, "connectTcp");
    } catch (const NetError& error) {
        fail(error.code(), error.what());
        return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    sockaddr_in sa{};
    if (!toSockaddr(target.host, target.port, sa)) {
        closeFd(fd);
        fail(errc::ErrorCode::NetUrlInvalid, "bad connect address " + target.toString());
        return;
    }
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
    if (rc != 0 && errno != EINPROGRESS) {
        const int err = errno;
        closeFd(fd);
        fail(err == ECONNREFUSED ? errc::ErrorCode::NetConnectRefused
                                 : errc::ErrorCode::NetIo,
             "connect to " + dest.toString() + ": " + errnoText(err));
        return;
    }

    FdEntry& entry = registerFd(fd, FdKind::Connecting, kReadWriteEvents);
    const std::uint32_t generation = entry.generation;
    entry.connect.onResult = std::move(onResult);
    entry.connect.onError = std::move(onError);
    entry.connect.dest = dest;
    entry.connect.timer = timers_.schedule(options_.connectTimeout, [this, fd, generation] {
        settleConnect(fd, generation, ETIMEDOUT);
    });
}

void OsNetwork::settleConnect(int fd, std::uint32_t generation, int socketError) {
    if (!live(fd, generation)) return;
    PendingConnect pending = std::move(entryOf(fd).connect);
    timers_.cancel(pending.timer);
    unregisterFd(fd);
    if (socketError != 0) {
        ::close(fd);
        if (openFds_ > 0) --openFds_;
        if (pending.onError) {
            // A timed-out or refused connect is "refused" to the engine (its
            // bounded retry loop handles both identically).
            const bool refused = socketError == ECONNREFUSED || socketError == ETIMEDOUT;
            pending.onError(
                refused ? errc::ErrorCode::NetConnectRefused : errc::ErrorCode::NetIo,
                "connect to " + pending.dest.toString() + ": " + errnoText(socketError));
        }
        pending.onResult(nullptr);
        return;
    }
    sockaddr_in local{};
    socklen_t len = sizeof local;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len);
    auto conn = std::make_shared<OsTcpConnection>(OsTcpConnection::Key{}, this, fd,
                                                  fromSockaddr(local), std::move(pending.dest),
                                                  /*framed=*/true);
    adoptConnection(conn);
    pending.onResult(std::move(conn));
}

void OsTcpConnection::send(const Bytes& payload) {
    if (!open_) {
        throw NetError(errc::ErrorCode::NetClosedSend,
                       "send on closed connection to " + remote_.toString());
    }
    if (net_ == nullptr) return;
    net_->tcpQueueSend(*this, payload);
}

void OsNetwork::tcpQueueSend(OsTcpConnection& conn, const Bytes& payload) {
    Bytes& tx = conn.txBuffer_;
    if (conn.framed_) appendFrameHeader(tx, payload.size());
    tx.insert(tx.end(), payload.begin(), payload.end());
    tcpFlush(conn);
}

void OsNetwork::tcpFlush(OsTcpConnection& conn) {
    Bytes& tx = conn.txBuffer_;
    while (!tx.empty()) {
        const ssize_t n = ::send(conn.fd_, tx.data(), tx.size(), MSG_NOSIGNAL);
        if (n > 0) {
            tx.erase(tx.begin(), tx.begin() + n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            armWrite(conn, true);
            return;
        }
        // EPIPE / ECONNRESET: the peer is gone; surface it as a close.
        tcpPeerClosed(conn);
        return;
    }
    armWrite(conn, false);
    if (!conn.open_) tcpTeardown(conn);  // close() was waiting for the drain
}

void OsNetwork::armWrite(OsTcpConnection& conn, bool on) {
    if (conn.writeArmed_ == on) return;
    conn.writeArmed_ = on;
    epollCtl(EPOLL_CTL_MOD, conn.fd_, on ? kReadWriteEvents : kReadEvents);
}

void OsNetwork::onTcpEvents(const std::shared_ptr<OsTcpConnection>& conn, std::uint32_t events) {
    if (events & EPOLLIN) {
        for (;;) {
            const ssize_t n = ::recv(conn->fd_, rxScratch_.data(), rxScratch_.size(), 0);
            if (n > 0) {
                conn->rxBuffer_.insert(conn->rxBuffer_.end(), rxScratch_.data(),
                                       rxScratch_.data() + n);
                // Framed: hand out whole frames after every read, so the
                // buffer never holds more than one (capped) partial frame.
                if (conn->framed_) {
                    tcpDeliver(*conn);
                    if (!conn->open_) return;
                }
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            // n == 0 (orderly FIN) or a hard error: deliver what we have,
            // then report the close.
            tcpDeliver(*conn);
            if (conn->open_) tcpPeerClosed(*conn);
            return;
        }
        tcpDeliver(*conn);
        if (!conn->open_) return;  // a data handler closed us
    }
    if (events & EPOLLOUT) tcpFlush(*conn);
    if ((events & (EPOLLERR | EPOLLHUP)) && conn->open_) tcpPeerClosed(*conn);
}

void OsNetwork::tcpDeliver(OsTcpConnection& conn) {
    const auto stillOpen = [&conn] { return conn.open_; };
    Bytes& rx = conn.rxBuffer_;
    if (!conn.framed_) {
        if (!conn.open_ || rx.empty()) return;
        rxPayload_.assign(rx.begin(), rx.end());
        rx.clear();
        callInPlace(conn.dataHandler_, stillOpen, rxPayload_);
        return;
    }
    std::size_t offset = 0;
    while (conn.open_ && rx.size() - offset >= 4) {
        const std::size_t length = (static_cast<std::size_t>(rx[offset]) << 24) |
                                   (static_cast<std::size_t>(rx[offset + 1]) << 16) |
                                   (static_cast<std::size_t>(rx[offset + 2]) << 8) |
                                   static_cast<std::size_t>(rx[offset + 3]);
        if (length > kMaxWireMessageBytes) {
            ++framesOversize_;
            STARLINK_LOG(Warn, "os-net")
                << errc::to_string(errc::ErrorCode::NetFrameOversize) << ": "
                << conn.remote_.toString() << " announced a " << length
                << "-byte frame (cap " << kMaxWireMessageBytes << "); closing";
            rx.clear();
            tcpPeerClosed(conn, errc::ErrorCode::NetFrameOversize);
            return;
        }
        if (rx.size() - offset < 4 + length) break;
        const auto begin = rx.begin() + static_cast<long>(offset) + 4;
        rxPayload_.assign(begin, begin + static_cast<long>(length));
        offset += 4 + length;
        callInPlace(conn.dataHandler_, stillOpen, rxPayload_);
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<long>(offset));  // compact once per read
}

void OsNetwork::tcpPeerClosed(OsTcpConnection& conn, errc::ErrorCode cause) {
    const auto self = conn.shared_from_this();
    conn.open_ = false;
    const CloseHandler handler = std::move(conn.closeHandler_);
    conn.dataHandler_ = nullptr;
    conn.closeHandler_ = nullptr;
    tcpTeardown(conn);
    if (handler) handler(cause);
}

void OsNetwork::tcpTeardown(OsTcpConnection& conn) {
    const auto self = conn.shared_from_this();  // the fd table may hold the last reference
    if (conn.fd_ >= 0) {
        closeFd(conn.fd_);
        conn.fd_ = -1;
    }
}

void OsTcpConnection::close() {
    if (!open_) return;
    open_ = false;
    dataHandler_ = nullptr;
    closeHandler_ = nullptr;
    if (net_ == nullptr) return;
    if (!txBuffer_.empty()) return;  // tcpFlush tears down once drained
    net_->tcpTeardown(*this);
}

OsTcpConnection::~OsTcpConnection() {
    if (net_ == nullptr && fd_ >= 0) ::close(fd_);
}

// ---------------------------------------------------------------------------
// capability probe

bool OsNetwork::loopbackMulticastUsable() {
    static const bool usable = [] {
        const int rx = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        const int tx = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
        if (rx < 0 || tx < 0) {
            if (rx >= 0) ::close(rx);
            if (tx >= 0) ::close(tx);
            return false;
        }
        bool delivered = false;
        const char* group = "239.255.42.42";
        sockaddr_in sa{};
        do {
            const int one = 1;
            ::setsockopt(rx, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
            if (!toSockaddr(group, 0, sa)) break;
            if (::bind(rx, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) break;
            socklen_t len = sizeof sa;
            ::getsockname(rx, reinterpret_cast<sockaddr*>(&sa), &len);
            const std::uint16_t port = ntohs(sa.sin_port);
            ip_mreq mreq{};
            ::inet_pton(AF_INET, group, &mreq.imr_multiaddr);
            ::inet_pton(AF_INET, "127.0.0.1", &mreq.imr_interface);
            if (::setsockopt(rx, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) != 0) break;
            in_addr ifaddr{};
            ::inet_pton(AF_INET, "127.0.0.1", &ifaddr);
            ::setsockopt(tx, IPPROTO_IP, IP_MULTICAST_IF, &ifaddr, sizeof ifaddr);
            const unsigned char loop = 1;
            ::setsockopt(tx, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);
            sockaddr_in dest{};
            toSockaddr(group, port, dest);
            if (::sendto(tx, "probe", 5, 0, reinterpret_cast<sockaddr*>(&dest), sizeof dest) !=
                5) {
                break;
            }
            // Poll for up to ~200ms.
            for (int i = 0; i < 40 && !delivered; ++i) {
                char buf[16];
                if (::recv(rx, buf, sizeof buf, 0) > 0) {
                    delivered = true;
                    break;
                }
                ::usleep(5000);
            }
        } while (false);
        ::close(rx);
        ::close(tx);
        return delivered;
    }();
    return usable;
}

}  // namespace starlink::net
