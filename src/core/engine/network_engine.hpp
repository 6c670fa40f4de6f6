// The Network Engine (paper Fig 6, section IV-B).
//
// "The Network Engine receives messages from the network and sends messages
//  based upon the protocol properties provided by the Automata Engine."
//
// Each color k of the merged automaton is attached to one network endpoint
// whose behaviour follows the color's key-value descriptor:
//
//   transport_protocol=udp            -- a UDP socket on the bridge host;
//     multicast=yes, group, port      -- joined to (group, port); an
//                                        initiating send goes to the group,
//                                        a send after a receive replies
//                                        unicast to the requester
//   transport_protocol=tcp, mode=sync -- a connection per session to the
//                                        target set by the set_host lambda
//                                        action (or the color's host/port)
//
// The engine is deliberately role-free: whether the bridge acts as server
// (SLP side: receive first, reply later) or client (mDNS side: send first,
// await response) falls out of the order of sends and receives, exactly as
// the colored automaton prescribes.
//
// Sessions. The automata engine runs several conversations at once, each in
// a numbered session slot. Everything a conversation owns on the wire lives
// per (slot, color): the reply peer, the set_host target, the tcp connection
// and its pre-connect backlog, and -- for a client-role udp color -- the
// socket its requests leave from. Slot 0 sends from the color's own endpoint
// socket; every further slot opens one ephemeral-port socket per client-role
// udp color the first time it sends, and keeps it for later sessions. Legacy
// services answer the source port (SSDP's unicast M-SEARCH response, RFC 6762
// section 6.7 legacy unicast, SLP and WS-Discovery replies), so a reply's
// socket names the session it belongs to. Arrivals on a server-role color's
// shared endpoint -- a datagram on its well-known socket, a chunk on a
// connection its listener accepted -- carry kUnowned; the automata engine
// routes them by key and claims the connection through notePeer().
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "core/automata/color.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/recorder.hpp"
#include "core/telemetry/span.hpp"
#include "net/network.hpp"

namespace starlink::engine {

/// Session-fatal transport events the network engine surfaces to the
/// automata engine (instead of stalling silently or leaking a NetError
/// through a scheduler callback).
enum class NetworkFault {
    ConnectRefused,  ///< tcp connect failed after the bounded retry budget
    PeerClosed,      ///< the tcp peer closed (or reset) mid-session
};

struct NetworkEngineOptions {
    /// Total tcp connect attempts before the failure is terminal.
    int connectAttempts = 3;
    /// Delay before the first reconnect attempt; doubles per attempt (capped
    /// by connectRetryMaxDelay).
    net::Duration connectRetryDelay = net::ms(50);
    /// Registry the per-color traffic counters land in; nullptr = the
    /// process-wide registry. The sharded driver passes each shard's private
    /// registry (see EngineOptions::metrics). Must outlive the engine.
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Ceiling on the doubling reconnect backoff (0 = uncapped exponent
    /// growth, though the shift itself is always clamped to stay defined).
    /// Large connectAttempts used to left-shift past 31 -- signed-overflow
    /// UB; the delay now saturates here instead.
    net::Duration connectRetryMaxDelay = net::ms(5000);
    /// Byte cap on sends queued per tcp color while its connect is pending
    /// (0 = unbounded, the old behaviour). Past the cap send() sheds with
    /// net.backlog-overflow and counts the bytes in
    /// starlink_net_backlog_dropped_bytes_total.
    std::size_t maxBacklogBytes = 256 * 1024;
};

class NetworkEngine {
public:
    /// Session slot of an arrival no session owns yet: a datagram on a
    /// server-role color's shared socket, or a chunk on an accepted
    /// connection that no session has claimed.
    static constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);

    /// colorK, payload, sender address, owning session slot (or kUnowned).
    using Handler =
        std::function<void(std::uint64_t, const Bytes&, const net::Address&, std::size_t)>;
    /// A session-fatal transport event.
    struct Fault {
        std::uint64_t color = 0;
        NetworkFault fault = NetworkFault::PeerClosed;
        /// The transport's cause: net.peer-closed for an ordinary close,
        /// net.frame-oversize when the OS backend refused a frame, ...
        errc::ErrorCode cause = errc::ErrorCode::NetPeerClosed;
        std::string detail;
        /// The session slot it hit, or kUnowned for a connection no session
        /// had claimed (the automata engine then routes it by `peer`).
        std::size_t slot = kUnowned;
        net::Address peer;
    };
    using FaultHandler = std::function<void(const Fault&)>;

    using Options = NetworkEngineOptions;

    NetworkEngine(net::Network& network, std::string host, Options options = {});

    const std::string& host() const { return host_; }
    net::Network& network() { return network_; }

    /// Creates the endpoint for color k. Idempotent per k. `serverRole`
    /// decides who owns the endpoint: a server-role udp socket and a tcp
    /// listener on the color's port are shared by every session (arrivals
    /// are kUnowned), while a client-role udp socket is session slot 0's. A
    /// client-role tcp color CONNECTS per session to the set_host target.
    /// (The automata engine infers the role from whether the component
    /// automaton opens with a receive.)
    void attach(std::uint64_t k, const automata::Color& color, bool serverRole = false);

    /// Closes color k's endpoint and sockets; a later attach(k) binds afresh.
    /// Call only once no live session uses k, never from one of its callbacks.
    void detach(std::uint64_t k);

    /// Installs the single upcall for every attached color.
    void setHandler(Handler handler) { handler_ = std::move(handler); }

    /// Installs the upcall for session-fatal transport events (terminal
    /// connect failure, mid-session peer close). Without a handler the
    /// events are logged and dropped.
    void setFaultHandler(FaultHandler handler) { faultHandler_ = std::move(handler); }

    /// Sends one protocol message with color-k semantics for session `slot`.
    /// Throws SpecError when k is not attached, NetError when a tcp target is
    /// missing.
    void send(std::uint64_t k, const Bytes& payload, std::size_t slot = 0);

    /// The set_host lambda action: directs color k's next tcp connection of
    /// session `slot`.
    void setHost(std::uint64_t k, const std::string& host, int port, std::size_t slot = 0);

    /// Records session `slot`'s reply route for color k. Called by the
    /// automata engine when it ACCEPTS a received message -- datagrams the
    /// automaton rejects must not steal a session's reply address. When the
    /// accepted message arrived on an unclaimed accepted connection, the
    /// session claims that connection as its reply path.
    void notePeer(std::uint64_t k, const net::Address& peer, std::size_t slot = 0);

    /// Ends session `slot` on the wire: forgets its reply peers and set_host
    /// targets, closes its tcp connections. Endpoints and the slot's own udp
    /// sockets stay open for the next session in the slot.
    void resetSession(std::size_t slot = 0);

    /// Lends session `slot`'s tracer (so tcp-connect legs land in its span
    /// tree) and open flight-recorder log (so tx/connect/fault events are
    /// captured at the moment they hit the network). Both must outlive the
    /// engine or be cleared (pass nullptr) before they die.
    void bindSession(std::size_t slot, telemetry::SessionTracer* tracer,
                     telemetry::FlightRecorder::OpenLog* log);

    /// The local address color k receives on ("host:port"): the endpoint udp
    /// socket's or tcp listener's bound address, "" for client-mode tcp
    /// colors (their rx arrives on an outbound connection with no stable
    /// local name).
    std::string endpointAddress(std::uint64_t k) const;

private:
    /// Per color, shared by every session.
    struct Endpoint {
        automata::Color color;
        bool serverRole = false;
        std::unique_ptr<net::UdpSocket> udp;
        std::unique_ptr<net::TcpListener> listener;
        /// Accepted connections no session has claimed yet.
        std::vector<std::shared_ptr<net::TcpConnection>> unclaimed;
        // Per-color traffic counters, resolved once at attach (null until
        // then); recording is gated on telemetry::enabled().
        telemetry::Counter* bytesIn = nullptr;
        telemetry::Counter* bytesOut = nullptr;
        telemetry::Counter* messagesIn = nullptr;
        telemetry::Counter* messagesOut = nullptr;
    };

    /// One session slot's hold on one color.
    struct Leg {
        std::unique_ptr<net::UdpSocket> udp;        // client-role udp, slots >= 1
        std::optional<net::Address> lastPeer;       // reply target after a receive
        std::optional<net::Address> hostOverride;   // from set_host
        std::shared_ptr<net::TcpConnection> tcp;
        std::vector<Bytes> tcpBacklog;              // sends queued while connecting
        std::size_t tcpBacklogBytes = 0;            // queued payload bytes (capped)
        bool tcpConnecting = false;
        bool peerClosed = false;                    // peer vanished this session
        std::uint64_t generation = 0;               // bumped per reset: stale connects
        telemetry::SpanId connectSpan = 0;          // open tcp-connect leg
    };

    struct Slot {
        std::map<std::uint64_t, Leg> legs;
        telemetry::SessionTracer* tracer = nullptr;
        telemetry::FlightRecorder::OpenLog* log = nullptr;
    };

    Endpoint& endpoint(std::uint64_t k, const char* operation);
    Slot& slot(std::size_t index);
    net::UdpSocket& udpFor(std::uint64_t k, Endpoint& endpoint, Leg& leg, std::size_t slot);
    bool fromOwnSessionSocket(std::uint64_t k, const net::Address& from) const;
    void wireConnection(std::uint64_t k, const std::shared_ptr<net::TcpConnection>& connection,
                        const net::Address& peer);
    std::size_t ownerOf(std::uint64_t k, const std::shared_ptr<net::TcpConnection>& connection);
    void onConnectionClosed(std::uint64_t k, const std::shared_ptr<net::TcpConnection>& connection,
                            const net::Address& peer, errc::ErrorCode cause);
    void startConnect(std::uint64_t k, std::size_t slot, const net::Address& target,
                      int attempt);
    void reportFault(const Fault& fault);
    void noteReceived(std::uint64_t k, std::size_t bytes);
    void noteSent(Endpoint& endpoint, std::size_t bytes);
    void endConnectSpan(Slot& slot, Leg& leg, const char* result, int attempts);

    net::Network& network_;
    std::string host_;
    Options options_;
    Handler handler_;
    FaultHandler faultHandler_;
    std::map<std::uint64_t, Endpoint> endpoints_;
    std::deque<Slot> slots_;  // deque: references stay valid as slots are added
    /// The unclaimed connection the current upcall's chunk arrived on, so
    /// notePeer can hand it to the session that accepted the chunk.
    std::shared_ptr<net::TcpConnection> inbound_;
    std::uint64_t inboundColor_ = 0;
    telemetry::Counter* connectAttempts_ = nullptr;
    telemetry::Counter* connectFailures_ = nullptr;
    /// Payload bytes shed from pre-connect backlogs (cap overflow or
    /// terminal connect failure).
    telemetry::Counter* backlogDroppedBytes_ = nullptr;
};

}  // namespace starlink::engine
