// Real-socket backend of net::Network: non-blocking UDP (unicast + loopback
// multicast) and TCP on an epoll-driven event loop over the wall clock.
//
// The engines were grown on SimNetwork's logical topology ("10.0.0.9:427");
// this backend maps that topology onto loopback endpoints so the same bridge
// models serve real traffic (docs/TRANSPORT.md):
//
//  - Logical hosts collapse onto `Options::bindAddress` (default 127.0.0.1).
//    A logical bind (host, port != 0) gets a real port: `portBase + port`
//    when a port base is configured (deterministic, shared across processes,
//    which is what the daemon + scripted clients use), otherwise a
//    kernel-assigned port recorded in an in-process map (collision-free,
//    parallel-ctest-safe). Literal loopback hosts ("127.x", "localhost", or
//    the bind address itself) pass through untranslated, so replying to a
//    datagram's real source address just works.
//  - Multicast groups are joined on the loopback interface through one
//    shared membership socket per (group, port) bound to the group address
//    itself (so it never collides with unicast binds on the same port) with
//    SO_REUSEADDR; received group datagrams fan out to every in-process
//    member except the sender (matching the sim's no-self-delivery rule),
//    while the send itself goes out the member's own unicast socket with
//    IP_MULTICAST_IF=loopback + IP_MULTICAST_LOOP so *other processes*
//    receive it too -- real cross-process interop.
//  - TCP preserves the message-boundary contract the engines rely on by
//    length-prefix framing each send() (4-byte big-endian). A peer announcing
//    a frame over the 1 MiB wire cap (kMaxWireMessageBytes) -- e.g. plain
//    HTTP, whose "GET " reads as a 1.1 GB length -- is closed with
//    net.frame-oversize instead of being buffered. Raw byte-stream
//    listeners (listenTcpRaw) exist for plain-text endpoints such as the
//    daemon's /metrics HTTP port.
//
// Failures carry net.* taxonomy codes: EADDRINUSE -> net.bind-conflict,
// other bind/listen errors -> net.bind-failed, EMFILE/ENFILE or the soft
// socket cap -> net.fd-exhausted, refused/timed-out connects ->
// net.connect-refused, anything else -> net.io.
//
// Single-threaded like the sim: all callbacks fire inside runUntil()/poll(),
// which must not be re-entered from a callback. Steady-state dispatch does
// not allocate: the fd table is typed (no stored closure per fd), payloads
// land in one reused buffer, and timers live in the TimerQueue the sim also
// runs on (the "OS event loop" section of docs/TRANSPORT.md).
// Chaos (FaultSchedule, latency models, partitions) is sim-only by design.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"
#include "net/timer_queue.hpp"

namespace starlink::net {

class OsNetwork;

/// The OS backend's UDP socket: a non-blocking AF_INET datagram socket.
class OsUdpSocket final : public UdpSocket {
public:
    ~OsUdpSocket() override;

    /// The logical address this socket was opened with (sim-compatible);
    /// see realAddress() for the wire endpoint.
    const Address& localAddress() const override { return logical_; }
    const Address& realAddress() const { return real_; }

    void joinGroup(const Address& group) override;
    void leaveGroup(const Address& group) override;
    void sendTo(const Address& dest, const Bytes& payload) override;

private:
    friend class OsNetwork;
    OsUdpSocket(OsNetwork* net, int fd, Address logical, Address real)
        : net_(net), fd_(fd), logical_(std::move(logical)), real_(std::move(real)) {}

    void configureMulticastEgress();

    OsNetwork* net_;  // nulled if the network dies first
    int fd_ = -1;
    Address logical_;
    Address real_;
    std::set<Address> groups_;
    bool mcastEgressConfigured_ = false;
};

/// One side of a real TCP connection (framed or raw; see header comment).
class OsTcpConnection final : public TcpConnection {
    struct Key {
        explicit Key() = default;
    };

public:
    /// Only OsNetwork can make a Key; public so std::make_shared can build
    /// the connection and its control block in one allocation.
    OsTcpConnection(Key, OsNetwork* net, int fd, Address local, Address remote, bool framed)
        : net_(net), fd_(fd), local_(std::move(local)), remote_(std::move(remote)),
          framed_(framed) {}
    ~OsTcpConnection() override;

    void send(const Bytes& payload) override;
    void close() override;
    bool isOpen() const override { return open_; }
    const Address& localAddress() const override { return local_; }
    const Address& remoteAddress() const override { return remote_; }

private:
    friend class OsNetwork;

    OsNetwork* net_;
    int fd_ = -1;
    Address local_;
    Address remote_;
    bool framed_ = true;
    bool open_ = true;
    bool writeArmed_ = false;  // EPOLLOUT registered while txBuffer_ waits
    Bytes rxBuffer_;
    Bytes txBuffer_;  // bytes the kernel would not take yet
};

/// The OS backend's TCP listener.
class OsTcpListener final : public TcpListener {
public:
    ~OsTcpListener() override;

    const Address& localAddress() const override { return logical_; }
    const Address& realAddress() const { return real_; }

private:
    friend class OsNetwork;
    OsTcpListener(OsNetwork* net, int fd, Address logical, Address real, bool framed)
        : net_(net), fd_(fd), logical_(std::move(logical)), real_(std::move(real)),
          framed_(framed) {}

    OsNetwork* net_;
    int fd_ = -1;
    Address logical_;
    Address real_;
    bool framed_ = true;
};

/// The epoll event loop + socket factory.
class OsNetwork final : public Network {
public:
    struct Options {
        /// Loopback address every logical host collapses onto.
        std::string bindAddress = "127.0.0.1";
        /// When non-zero, logical port P binds (and resolves) to real port
        /// portBase + P in every process sharing the base; when zero, real
        /// ports are kernel-assigned and resolved through an in-process map.
        std::uint16_t portBase = 0;
        /// Soft cap on sockets this backend may hold open (0 = unlimited).
        /// Exceeding it surfaces net.fd-exhausted exactly like EMFILE.
        std::size_t maxOpenSockets = 0;
        /// Wall-clock budget for a TCP connect before it reports refused.
        Duration connectTimeout = ms(3000);
    };

    OsNetwork();  // default Options
    explicit OsNetwork(Options options);
    ~OsNetwork() override;

    // -- net::Network --------------------------------------------------------
    TaskScheduler& scheduler() override;
    TimePoint now() const override;
    std::unique_ptr<UdpSocket> openUdp(const std::string& host, std::uint16_t port = 0) override;
    std::unique_ptr<TcpListener> listenTcp(const std::string& host, std::uint16_t port) override;
    void connectTcp(const std::string& host, const Address& dest, ConnectCallback onResult,
                    ConnectErrorCallback onError = nullptr) override;
    bool runUntil(std::function<bool()> done, Duration timeout) override;
    const char* backendName() const override { return "os"; }

    // -- backend-specific ----------------------------------------------------
    /// A listener whose accepted connections deliver raw recv() chunks
    /// instead of length-prefixed frames (for plain-text protocols, e.g. the
    /// daemon's /metrics HTTP endpoint).
    std::unique_ptr<TcpListener> listenTcpRaw(const std::string& host, std::uint16_t port);

    /// Runs one event-loop iteration: waits up to `maxWait` for I/O or a due
    /// timer and dispatches everything ready. Returns true if anything ran.
    /// Throws net.misuse when called from inside one of its own callbacks.
    bool poll(Duration maxWait);

    /// Makes runUntil() return at the next loop iteration. Safe to pair with
    /// wakeFromSignal() from a signal handler.
    void requestStop() { stopRequested_ = true; }
    bool stopRequested() const { return stopRequested_; }

    /// Async-signal-safe nudge: wakes a blocked poll()/runUntil() so a
    /// signal handler can request a clean shutdown without races.
    void wakeFromSignal();

    /// The real wire endpoint a logical (host, port) currently resolves to,
    /// if any -- what the daemon prints so clients know where to aim.
    std::optional<Address> realEndpoint(const std::string& host, std::uint16_t port) const;

    /// True when the kernel delivers multicast on the loopback interface
    /// (probed once with a throwaway group); conformance tests skip the OS
    /// rows in sandboxes where this fails.
    static bool loopbackMulticastUsable();

    const Options& options() const { return options_; }
    std::size_t openSockets() const { return openFds_; }
    /// Datagrams dropped because their logical destination had no binding
    /// (the sim silently drops these too) or the kernel rejected the send.
    std::size_t datagramsUnrouted() const { return unrouted_; }
    /// Framed TCP connections closed with net.frame-oversize.
    std::size_t framesOversize() const { return framesOversize_; }

private:
    friend class OsUdpSocket;
    friend class OsTcpConnection;
    friend class OsTcpListener;

    /// Shared per-(group, logical port) membership socket: bound to the
    /// group address itself (so it never collides with unicast binds on the
    /// same port) with SO_REUSEADDR + IP_ADD_MEMBERSHIP on loopback; fans
    /// received datagrams out to in-process members.
    struct Membership {
        int fd = -1;
        std::uint16_t realPort = 0;
        std::vector<OsUdpSocket*> members;
    };

    /// A connect in flight: its fd waits for EPOLLOUT or the timeout timer.
    struct PendingConnect {
        ConnectCallback onResult;
        ConnectErrorCallback onError;
        Address dest;  // logical
        EventId timer = 0;
    };

    /// What an fd is; poll() dispatches on it with a switch.
    enum class FdKind : std::uint8_t { Free, Wake, Udp, Membership, Listener, Tcp, Connecting };

    /// One slot of the fd-indexed table. `generation` is unique per
    /// registration and rides in the epoll event, so an event for a closed
    /// fd, or for an fd number reused within one dispatch, is skipped.
    struct FdEntry {
        std::uint32_t generation = 0;
        FdKind kind = FdKind::Free;
        OsUdpSocket* udp = nullptr;
        Membership* membership = nullptr;
        OsTcpListener* listener = nullptr;
        std::shared_ptr<OsTcpConnection> tcp;  // the table keeps open connections alive
        PendingConnect connect;
    };

    // fd bookkeeping
    int makeSocket(int type, const char* what);
    FdEntry& registerFd(int fd, FdKind kind, std::uint32_t events);
    void epollCtl(int op, int fd, std::uint32_t events);  // ADD/MOD, tagged with the generation
    void unregisterFd(int fd);
    void closeFd(int fd);
    void reserveFd(const char* what);  // soft-cap guard; throws net.fd-exhausted
    FdEntry& entryOf(int fd) { return fds_[static_cast<std::size_t>(fd)]; }
    /// True while the registration (fd, generation) is still the current one.
    bool live(int fd, std::uint32_t generation) const;
    void dispatch(int fd, std::uint32_t events);

    // address mapping
    bool isLiteralHost(const std::string& host) const;
    Address bindUdp(int fd, const std::string& host, std::uint16_t port);
    std::optional<Address> resolveSendTarget(const Address& dest);
    std::uint16_t realPortFor(std::uint16_t logicalPort) const;  // portBase mode

    // multicast
    Membership& ensureMembership(const Address& group);
    void dropMember(OsUdpSocket* socket, const Address& group);
    void onMembershipReadable(int fd, std::uint32_t generation);

    // udp / tcp plumbing
    void onUdpReadable(int fd, std::uint32_t generation);
    /// Hands rxPayload_ to the handler of the UDP socket registered at fd.
    void deliverDatagram(int fd, std::uint32_t generation, const Address& from);
    void udpSend(OsUdpSocket& from, const Address& dest, const Bytes& payload);
    std::unique_ptr<TcpListener> listenTcpInternal(const std::string& host, std::uint16_t port,
                                                   bool framed);
    void onListenerReadable(int fd, std::uint32_t generation);
    void adoptConnection(std::shared_ptr<OsTcpConnection> conn);
    void settleConnect(int fd, std::uint32_t generation, int socketError);
    void onTcpEvents(const std::shared_ptr<OsTcpConnection>& conn, std::uint32_t events);
    void tcpQueueSend(OsTcpConnection& conn, const Bytes& payload);
    void tcpFlush(OsTcpConnection& conn);
    void armWrite(OsTcpConnection& conn, bool on);
    void tcpDeliver(OsTcpConnection& conn);
    /// Reports a peer-side close to the connection's handler with `cause`.
    void tcpPeerClosed(OsTcpConnection& conn,
                       errc::ErrorCode cause = errc::ErrorCode::NetPeerClosed);
    void tcpTeardown(OsTcpConnection& conn);

    Options options_;
    int epollFd_ = -1;
    int wakeFd_ = -1;  // eventfd written by wakeFromSignal()
    TimePoint start_{};
    TimerQueue timers_;
    std::uint32_t nextGeneration_ = 1;
    std::vector<FdEntry> fds_;  // indexed by fd
    std::size_t openFds_ = 0;
    std::size_t unrouted_ = 0;
    std::size_t framesOversize_ = 0;
    bool dispatching_ = false;
    /// Every recv() lands here first.
    std::vector<std::uint8_t> rxScratch_ = std::vector<std::uint8_t>(65536);
    /// The payload handed to handlers: one datagram or frame at a time,
    /// valid only for the duration of the handler call.
    Bytes rxPayload_;
    /// Multicast fan-out snapshot (fd, generation) of the group's members.
    std::vector<std::pair<int, std::uint32_t>> fanout_;
    volatile bool stopRequested_ = false;

    std::map<Address, OsUdpSocket*> udpBindings_;     // logical addr -> socket
    std::map<Address, OsTcpListener*> tcpBindings_;   // logical addr -> listener
    std::map<Address, Membership> memberships_;       // (group ip, logical port)
    std::map<Address, std::uint16_t> groupPorts_;     // group addr -> real port
};

}  // namespace starlink::net
