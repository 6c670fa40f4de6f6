// The transport abstraction every engine layer programs against.
//
// Two backends implement it (DESIGN.md section 5j, docs/TRANSPORT.md):
//  - net::SimNetwork  -- the in-memory discrete-event fabric over virtual
//    time; deterministic, supports chaos injection, drives all benches.
//  - net::OsNetwork   -- real non-blocking UDP/TCP sockets on an epoll event
//    loop over the wall clock (src/core/net/), used by the live daemon.
//
// The interface is deliberately the *intersection* the engines need: socket
// factories, a clock, and deferred-task scheduling. Backend-specific powers
// (fault schedules, latency knobs, reseeding on the sim side; bind addresses
// and port bases on the OS side) stay on the concrete classes -- code that
// needs them must name the backend, which keeps the determinism contract
// auditable: anything typed `Network&` runs identically on both.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "core/error/error_code.hpp"
#include "net/clock.hpp"

namespace starlink::net {

/// An (ip, port) endpoint. Multicast groups are addresses in 224.0.0.0/4.
/// On the sim backend hosts are free-form labels ("10.0.0.9"); on the OS
/// backend such logical hosts are mapped onto loopback endpoints, while
/// literal loopback addresses pass through untouched.
struct Address {
    std::string host;
    std::uint16_t port = 0;

    bool operator==(const Address&) const = default;
    bool operator<(const Address& other) const {
        return host != other.host ? host < other.host : port < other.port;
    }
    std::string toString() const { return host + ":" + std::to_string(port); }

    /// True for 224.0.0.0 - 239.255.255.255.
    bool isMulticast() const;
};

using EventId = std::uint64_t;

/// Deferred-task scheduling, over whichever clock the backend runs on.
/// EventScheduler (virtual time) and the OS backend (wall clock) both
/// implement it over one TimerQueue, so protocol agents and engines
/// schedule timeouts without knowing which world they live in.
class TaskScheduler {
public:
    virtual ~TaskScheduler() = default;

    /// Schedules `fn` to run `delay` after the current backend time.
    virtual EventId schedule(Duration delay, std::function<void()> fn) = 0;

    /// Cancels a pending task; returns false if it already ran or is unknown.
    virtual bool cancel(EventId id) = 0;
};

/// A bound UDP socket. Obtained from Network::openUdp(); closing happens via
/// RAII. Handler storage lives here so every backend shares the registration
/// semantics (replacing any previous handler).
class UdpSocket {
public:
    using DatagramHandler = std::function<void(const Bytes&, const Address& from)>;

    virtual ~UdpSocket() = default;
    UdpSocket(const UdpSocket&) = delete;
    UdpSocket& operator=(const UdpSocket&) = delete;

    virtual const Address& localAddress() const = 0;

    /// Registers the receive callback (replaces any previous one).
    void onDatagram(DatagramHandler handler) { handler_ = std::move(handler); }

    /// Joins a multicast group; datagrams sent to (group, this socket's port)
    /// will be delivered here. Never to the sending socket itself, on either
    /// backend.
    virtual void joinGroup(const Address& group) = 0;
    virtual void leaveGroup(const Address& group) = 0;

    /// Sends a datagram to a unicast or multicast destination.
    virtual void sendTo(const Address& dest, const Bytes& payload) = 0;

protected:
    UdpSocket() = default;
    DatagramHandler handler_;
};

/// The upcall a TcpConnection makes when its PEER closes it, carrying why:
/// net.peer-closed for an orderly FIN or a reset, net.frame-oversize when the
/// OS backend's framed reader refused a frame over the wire cap. A handler
/// that takes no argument is accepted too and simply ignores the cause, and
/// a caller that invokes it without one reports net.peer-closed -- so
/// decorators written against the older no-argument form keep working.
class CloseHandler {
public:
    CloseHandler() = default;
    CloseHandler(std::nullptr_t) {}
    template <typename F>
        requires std::invocable<F&, errc::ErrorCode>
    CloseHandler(F fn) : fn_(std::move(fn)) {}
    template <typename F>
        requires(std::invocable<F&> && !std::invocable<F&, errc::ErrorCode>)
    CloseHandler(F fn) : fn_([fn = std::move(fn)](errc::ErrorCode) mutable { fn(); }) {}

    explicit operator bool() const { return static_cast<bool>(fn_); }
    void operator()(errc::ErrorCode cause = errc::ErrorCode::NetPeerClosed) const { fn_(cause); }

private:
    std::function<void(errc::ErrorCode)> fn_;
};

/// One side of an established TCP connection. Both backends deliver data as
/// ordered message chunks: the sim models one chunk per send(), the OS
/// backend length-prefixes frames on the wire to preserve the same boundary
/// semantics (docs/TRANSPORT.md).
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
public:
    using DataHandler = std::function<void(const Bytes&)>;
    using CloseHandler = net::CloseHandler;

    virtual ~TcpConnection() = default;

    /// Sends one ordered chunk to the peer. Throws NetError if closed.
    virtual void send(const Bytes& payload) = 0;

    void onData(DataHandler handler) { dataHandler_ = std::move(handler); }
    void onClose(CloseHandler handler) { closeHandler_ = std::move(handler); }

    /// Closes both directions; the peer's onClose fires asynchronously.
    virtual void close() = 0;

    virtual bool isOpen() const = 0;
    virtual const Address& localAddress() const = 0;
    virtual const Address& remoteAddress() const = 0;

protected:
    TcpConnection() = default;
    DataHandler dataHandler_;
    CloseHandler closeHandler_;
};

/// A TCP listener bound to an (ip, port).
class TcpListener {
public:
    using AcceptHandler = std::function<void(std::shared_ptr<TcpConnection>)>;

    virtual ~TcpListener() = default;
    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    virtual const Address& localAddress() const = 0;
    void onAccept(AcceptHandler handler) { handler_ = std::move(handler); }

protected:
    TcpListener() = default;
    AcceptHandler handler_;
};

/// The transport backend: socket factory + clock + scheduler + event pump.
class Network {
public:
    using ConnectCallback = std::function<void(std::shared_ptr<TcpConnection>)>;
    /// Optional observer for coded connect failures (net.* block). The
    /// primary callback still receives nullptr on failure, so call sites
    /// that only care about success/failure need not register one.
    using ConnectErrorCallback = std::function<void(errc::ErrorCode, const std::string&)>;

    virtual ~Network() = default;

    /// Deferred tasks over this backend's clock.
    virtual TaskScheduler& scheduler() = 0;

    /// Current backend time: virtual for the sim, monotonic wall clock
    /// (relative to backend construction) for the OS backend, so telemetry
    /// stamps mean the same thing in both worlds.
    virtual TimePoint now() const = 0;

    /// Binds a UDP socket. port==0 picks an ephemeral port. Throws NetError
    /// (net.bind-conflict / net.bind-failed / net.fd-exhausted) on failure.
    virtual std::unique_ptr<UdpSocket> openUdp(const std::string& host,
                                               std::uint16_t port = 0) = 0;

    /// Binds a TCP listener; same binding rules and error codes as openUdp.
    virtual std::unique_ptr<TcpListener> listenTcp(const std::string& host,
                                                   std::uint16_t port) = 0;

    /// Initiates a connection from `host` to `dest`. `onResult` receives the
    /// client-side connection on success or nullptr on refusal; `onError`,
    /// when given, additionally receives the taxonomy code of the failure.
    virtual void connectTcp(const std::string& host, const Address& dest,
                            ConnectCallback onResult,
                            ConnectErrorCallback onError = nullptr) = 0;

    /// Pumps the backend until `done()` holds, the backend goes idle (sim) or
    /// `timeout` of backend time elapses. Returns done()'s final value. This
    /// is how tests and tools drive either backend generically.
    virtual bool runUntil(std::function<bool()> done, Duration timeout) = 0;

    /// "sim" or "os" -- for logs, test names and the conformance matrix.
    virtual const char* backendName() const = 0;
};

}  // namespace starlink::net
