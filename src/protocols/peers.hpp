// The legacy peers of the paper's case study (section V): for every bridge
// direction, the unmodified service the bridge queries and the unmodified
// client that discovers it through the bridge -- and the simulated testbed
// (section VI, Fig 12) that puts both on one network with the bridge.
//
// This is the only place that maps a direction to its peer protocols and
// each client protocol to its printer query. A caller builds a Service and a
// Client from a Case (or a Protocol) and passes the agents' own Config
// structs; a default-constructed bundle is every agent's Config{}. Adding a
// direction to Case means adding its row to the peer table in peers.cpp.
// Every sim driver builds its testbed as a SimIsland.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/automata_engine.hpp"
#include "net/network.hpp"
#include "net/sim_network.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"

namespace starlink::peers {

enum class Protocol { Slp, Upnp, Bonjour };

/// "slp", "upnp" or "bonjour"; nullopt for anything else.
std::optional<Protocol> protocolBySlug(const std::string& slug);
/// The client's display name: "SLP client", "UPnP control point",
/// "Bonjour browser".
const char* clientName(Protocol p);
/// What every client asks for: "service:printer",
/// "urn:schemas-upnp-org:service:printer:1" or "_printer._tcp.local".
const char* printerQuery(Protocol p);
/// The protocol's well-known discovery group and port.
net::Address discoveryGroup(Protocol p);

/// The protocol a direction's client speaks (the bridge serves it).
Protocol clientProtocol(bridge::models::Case c);
/// The protocol a direction's service speaks (the bridge queries it).
Protocol serviceProtocol(bridge::models::Case c);

/// One agent Config per protocol; a Service or Client reads only the one of
/// the protocol it speaks.
template <class Slp, class Upnp, class Bonjour>
struct Configs {
    Slp slp;
    Upnp upnp;
    Bonjour bonjour;

    /// Applies `f` to all three configs (for the fields they share).
    template <class F>
    void each(F&& f) {
        f(slp);
        f(upnp);
        f(bonjour);
    }
};
using ServiceConfigs = Configs<slp::ServiceAgent::Config, ssdp::Device::Config,
                               mdns::Responder::Config>;
using ClientConfigs = Configs<slp::UserAgent::Config, ssdp::ControlPoint::Config,
                              mdns::Resolver::Config>;

/// A legacy service advertising one printer, bound on construction.
class Service {
public:
    Service(net::Network& network, Protocol protocol, const ServiceConfigs& configs = {});
    Service(net::Network& network, bridge::models::Case c, const ServiceConfigs& configs = {})
        : Service(network, serviceProtocol(c), configs) {}

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// The URL the service advertises.
    const std::string& url() const;

private:
    // Alternatives in Protocol order.
    std::variant<slp::ServiceAgent, ssdp::Device, mdns::Responder> agent_;
};

/// A legacy client; lookups may repeat, one in flight at a time.
class Client {
public:
    struct Result {
        std::vector<std::string> urls;  // empty == nothing discovered
        net::Duration elapsed = net::ms(0);
    };
    using Callback = std::function<void(const Result&)>;

    Client(net::Network& network, Protocol protocol, const ClientConfigs& configs = {});
    Client(net::Network& network, bridge::models::Case c, const ClientConfigs& configs = {})
        : Client(network, clientProtocol(c), configs) {}

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Sends the protocol's printerQuery(); `callback` gets the agent's result.
    void lookup(Callback callback);

private:
    Protocol protocol() const { return static_cast<Protocol>(agent_.index()); }

    // Alternatives in Protocol order.
    std::variant<slp::UserAgent, ssdp::ControlPoint, mdns::Resolver> agent_;
};

/// The resilient engine profile every chaos driver deploys: a 7 s receive
/// deadline, at most 5 retransmits backing off x1.5 with 100 ms jitter, and
/// a 30 s session watchdog. The deadline must clear the slowest healthy
/// legacy reply (the ~6.1 s SLP service), so one profile serves every
/// direction; the watchdog frees the connector for the client's next re-send.
engine::EngineOptions resilientEngineOptions();

/// The chaos client profile: every client re-sends its request every 8 s
/// (clear of the ~6.5 s worst-case healthy conversation) and gives up after
/// two virtual minutes, as real OpenSLP, mDNS and UPnP stacks re-send.
ClientConfigs chaosClientConfigs();

/// The paper's three-party testbed on its own simulated network over
/// virtual time: the legacy client at kClientHost, the legacy service at
/// kServiceHost (both the agents' Config{} defaults) and the Starlink bridge
/// at kBridgeHost. Everything in it runs on the thread that drives it.
struct SimIsland {
    static constexpr const char* kClientHost = "10.0.0.1";
    static constexpr const char* kServiceHost = "10.0.0.3";
    static constexpr const char* kBridgeHost = "10.0.0.9";

    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork network;
    bridge::Starlink starlink{network};
    bridge::DeployedBridge* deployed = nullptr;
    std::optional<Service> service;
    std::optional<Client> client;

    SimIsland() : network(scheduler) {}
    explicit SimIsland(std::uint64_t networkSeed) : network(scheduler, networkSeed) {}

    /// Deploys the direction's built-in models (or `spec`) at kBridgeHost.
    bridge::DeployedBridge& deploy(bridge::models::Case c,
                                   const engine::EngineOptions& options = {});
    bridge::DeployedBridge& deploy(const bridge::models::DeploymentSpec& spec,
                                   const engine::EngineOptions& options = {});

    /// Replaces the peers with the direction's service and then its client.
    void spawn(bridge::models::Case c, const ServiceConfigs& services = {},
               const ClientConfigs& clients = {});

    /// Steady per-hop `loss` plus a seeded FaultSchedule::chaos plan (loss
    /// bursts, latency spikes, partition flaps, connect blackholes) over the
    /// island's three hosts, anchored at the current virtual time.
    void chaos(std::uint64_t seed, double loss);

    /// Sequential lookups from the client, each run to quiescence (at most
    /// two million events, so a livelocked island stops instead of hanging
    /// its caller); returns how many discovered the service.
    int runLookups(int n, const Client::Callback& onResult = {});
};

}  // namespace starlink::peers
