// The legacy peers of the paper's case study (section V) and of its LDAP and
// WS-Discovery extensions: for every bridge direction, the unmodified service
// the bridge queries and the unmodified client that discovers it through the
// bridge -- and the simulated testbed (section VI, Fig 12) that puts both on
// one network with the bridge.
//
// This is the only place that maps each protocol to its agents and its
// printer query. A caller builds a Service and a Client from a direction's
// models::Direction row (or a Protocol) and passes the agents' own Config
// structs; a default-constructed bundle is every agent's Config{}, except
// where ClientConfigs says otherwise. A direction between protocols this
// file already knows needs only its row in models::directions(). Every sim
// driver builds its testbed as a SimIsland.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/automata_engine.hpp"
#include "net/network.hpp"
#include "net/sim_network.hpp"
#include "protocols/ldap/ldap_agents.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "protocols/wsd/wsd_agents.hpp"

namespace starlink::peers {

enum class Protocol { Slp, Upnp, Bonjour, Ldap, Wsd };

/// "slp", "upnp", "bonjour", "ldap" or "wsd"; nullopt for anything else.
std::optional<Protocol> protocolBySlug(std::string_view slug);
/// The client's display name: "SLP client", "UPnP control point",
/// "Bonjour browser", "LDAP client", "WS-Discovery client".
const char* clientName(Protocol p);
/// What every client asks for: "service:printer",
/// "urn:schemas-upnp-org:service:printer:1", "_printer._tcp.local",
/// "service:printer" (the LDAP service class) or "printer" (the WSD type).
const char* printerQuery(Protocol p);
/// Where the protocol's client sends its request: the well-known discovery
/// group and port, or, for LDAP, the directory the bridge poses as
/// (SimIsland::kBridgeHost:389).
net::Address discoveryGroup(Protocol p);

/// The protocol a direction's client speaks (the bridge serves it).
Protocol clientProtocol(const bridge::models::Direction& d);
/// The protocol a direction's service speaks (the bridge queries it).
Protocol serviceProtocol(const bridge::models::Direction& d);

/// The LDAP service's config: the directory's own, plus the one printer
/// entry it holds (the other services advertise theirs through their Config).
struct DirectoryConfig : ldap::DirectoryServer::Config {
    ldap::Entry printer{"cn=printer1,dc=services,dc=local", "service:printer",
                        "service:printer:lpr://10.0.0.3:515/printer1", {}};
};

/// One agent Config per protocol; a Service or Client reads only the one of
/// the protocol it speaks.
template <class Slp, class Upnp, class Bonjour, class Ldap, class Wsd>
struct Configs {
    Slp slp;
    Upnp upnp;
    Bonjour bonjour;
    Ldap ldap;
    Wsd wsd;

    /// Applies `f` to all five configs (for the fields they share).
    template <class F>
    void each(F&& f) {
        f(slp);
        f(upnp);
        f(bonjour);
        f(ldap);
        f(wsd);
    }
};
using ServiceConfigs = Configs<slp::ServiceAgent::Config, ssdp::Device::Config,
                               mdns::Responder::Config, DirectoryConfig, wsd::Target::Config>;
struct ClientConfigs : Configs<slp::UserAgent::Config, ssdp::ControlPoint::Config,
                               mdns::Resolver::Config, ldap::DirectoryClient::Config,
                               wsd::Client::Config> {
    /// wsd-to-slp: the WSD client must outlast the SLP service's ~6.1 s reply
    /// window, which the agent's own 5 s default does not.
    ClientConfigs() { wsd.timeout = net::ms(15000); }
};

/// A legacy service advertising one printer, bound on construction.
class Service {
public:
    Service(net::Network& network, Protocol protocol, const ServiceConfigs& configs = {});
    Service(net::Network& network, const bridge::models::Direction& d,
            const ServiceConfigs& configs = {})
        : Service(network, serviceProtocol(d), configs) {}

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// The URL the service advertises.
    const std::string& url() const;

private:
    // Alternatives in Protocol order.
    std::variant<slp::ServiceAgent, ssdp::Device, mdns::Responder, ldap::DirectoryServer,
                 wsd::Target>
        agent_;
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
    Client(net::Network& network, const bridge::models::Direction& d,
           const ClientConfigs& configs = {})
        : Client(network, clientProtocol(d), configs) {}

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Sends the protocol's printerQuery(); `callback` gets the agent's result.
    void lookup(Callback callback);

private:
    Protocol protocol() const { return static_cast<Protocol>(agent_.index()); }

    // Alternatives in Protocol order.
    std::variant<slp::UserAgent, ssdp::ControlPoint, mdns::Resolver, ldap::DirectoryClient,
                 wsd::Client>
        agent_;
};

/// The resilient engine profile every chaos driver deploys: a 7 s receive
/// deadline, at most 5 retransmits backing off x1.5 with 100 ms jitter, and
/// a 30 s session watchdog. The deadline must clear the slowest healthy
/// legacy reply (the ~6.1 s SLP service), so one profile serves every
/// direction; the watchdog frees the connector for the client's next re-send.
engine::EngineOptions resilientEngineOptions();

/// The chaos client profile: the SLP, UPnP and Bonjour clients re-send their
/// request every 8 s (clear of the ~6.5 s worst-case healthy conversation)
/// and give up after two virtual minutes, as real OpenSLP, mDNS and UPnP
/// stacks re-send. The LDAP and WSD agents ask once.
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
    bridge::DeployedBridge& deploy(const bridge::models::Direction& d,
                                   const engine::EngineOptions& options = {});
    bridge::DeployedBridge& deploy(const bridge::models::DeploymentSpec& spec,
                                   const engine::EngineOptions& options = {});

    /// Replaces the peers with the direction's service and then its client.
    void spawn(const bridge::models::Direction& d, const ServiceConfigs& services = {},
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
