#include "protocols/peers.hpp"

#include <stdexcept>
#include <utility>

namespace starlink::peers {

namespace {

struct ProtocolRow {
    const char* slug;
    const char* clientName;
    const char* query;
    const char* group;
    std::uint16_t port;
};

// Indexed by Protocol.
constexpr ProtocolRow kProtocols[] = {
    {"slp", "SLP client", "service:printer", slp::kGroup, slp::kPort},
    {"upnp", "UPnP control point", "urn:schemas-upnp-org:service:printer:1", ssdp::kGroup,
     ssdp::kPort},
    {"bonjour", "Bonjour browser", "_printer._tcp.local", mdns::kGroup, mdns::kPort},
    {"ldap", "LDAP client", "service:printer", SimIsland::kBridgeHost, ldap::kPort},
    {"wsd", "WS-Discovery client", "printer", wsd::kGroup, wsd::kPort},
};

const ProtocolRow& row(Protocol p) { return kProtocols[static_cast<std::size_t>(p)]; }

Protocol protocolOf(const char* slug) {
    if (const std::optional<Protocol> p = protocolBySlug(slug)) return *p;
    throw std::logic_error(std::string("peers: no legacy peers speak '") + slug + "'");
}

// Builds the variant's alternative for `p` in place (each return is a
// prvalue): agents register socket callbacks on `this` and must never move.
template <class Agent, class Configs>
Agent make(net::Network& network, Protocol p, const Configs& configs) {
    switch (p) {
        case Protocol::Slp: return Agent(std::in_place_index<0>, network, configs.slp);
        case Protocol::Upnp: return Agent(std::in_place_index<1>, network, configs.upnp);
        case Protocol::Bonjour: return Agent(std::in_place_index<2>, network, configs.bonjour);
        case Protocol::Ldap: return Agent(std::in_place_index<3>, network, configs.ldap);
        case Protocol::Wsd: return Agent(std::in_place_index<4>, network, configs.wsd);
    }
    throw std::logic_error("peers: unknown protocol");
}

// Chaos episodes are drawn over this window from the moment they are anchored.
const net::Duration kChaosHorizon = net::ms(60000);

// Events one lookup may run before runLookups gives up on it.
constexpr std::size_t kLookupEventBudget = 2'000'000;

}  // namespace

std::optional<Protocol> protocolBySlug(std::string_view slug) {
    for (std::size_t i = 0; i < std::size(kProtocols); ++i) {
        if (slug == kProtocols[i].slug) return static_cast<Protocol>(i);
    }
    return std::nullopt;
}

const char* clientName(Protocol p) { return row(p).clientName; }

const char* printerQuery(Protocol p) { return row(p).query; }

net::Address discoveryGroup(Protocol p) { return net::Address{row(p).group, row(p).port}; }

Protocol clientProtocol(const bridge::models::Direction& d) { return protocolOf(d.client); }

Protocol serviceProtocol(const bridge::models::Direction& d) { return protocolOf(d.service); }

Service::Service(net::Network& network, Protocol protocol, const ServiceConfigs& configs)
    : agent_(make<decltype(agent_)>(network, protocol, configs)) {
    if (auto* directory = std::get_if<ldap::DirectoryServer>(&agent_)) {
        directory->addEntry(configs.ldap.printer);
    }
}

const std::string& Service::url() const {
    switch (agent_.index()) {
        case 0: return std::get<0>(agent_).config().url;
        case 1: return std::get<1>(agent_).config().serviceUrl;
        case 2: return std::get<2>(agent_).config().url;
        case 3: return std::get<3>(agent_).entries().front().url;
        default: return std::get<4>(agent_).config().xaddrs;
    }
}

Client::Client(net::Network& network, Protocol protocol, const ClientConfigs& configs)
    : agent_(make<decltype(agent_)>(network, protocol, configs)) {}

void Client::lookup(Callback callback) {
    auto forward = [callback = std::move(callback)](const auto& result) {
        callback(Result{result.urls, result.elapsed});
    };
    const char* query = printerQuery(protocol());
    switch (protocol()) {
        case Protocol::Slp: std::get<0>(agent_).lookup(query, std::move(forward)); break;
        case Protocol::Upnp: std::get<1>(agent_).search(query, std::move(forward)); break;
        case Protocol::Bonjour: std::get<2>(agent_).browse(query, std::move(forward)); break;
        case Protocol::Ldap: {
            // Any printer: the empty filter matches every entry.
            const net::Address directory = discoveryGroup(Protocol::Ldap);
            std::get<3>(agent_).search(
                directory.host, directory.port, query, "",
                [forward = std::move(forward)](const ldap::DirectoryClient::Result& r) {
                    forward(Result{r.success ? std::vector<std::string>{r.url}
                                             : std::vector<std::string>{},
                                   r.elapsed});
                });
            break;
        }
        case Protocol::Wsd:
            std::get<4>(agent_).probe(
                query, [forward = std::move(forward)](const wsd::Client::Result& r) {
                    forward(Result{r.xaddrs, r.elapsed});
                });
            break;
    }
}

engine::EngineOptions resilientEngineOptions() {
    engine::EngineOptions options;
    options.receiveTimeout = net::ms(7000);
    options.maxRetransmits = 5;
    options.retransmitBackoff = 1.5;
    options.retransmitJitter = net::ms(100);
    options.sessionTimeout = net::ms(30000);
    return options;
}

ClientConfigs chaosClientConfigs() {
    ClientConfigs configs;
    const auto resend = [](auto& config) {
        config.timeout = net::ms(120000);
        config.retransmitInterval = net::ms(8000);
    };
    resend(configs.slp);
    resend(configs.upnp);
    resend(configs.bonjour);
    return configs;
}

bridge::DeployedBridge& SimIsland::deploy(const bridge::models::Direction& d,
                                          const engine::EngineOptions& options) {
    return deploy(bridge::models::forDirection(d, kBridgeHost), options);
}

bridge::DeployedBridge& SimIsland::deploy(const bridge::models::DeploymentSpec& spec,
                                          const engine::EngineOptions& options) {
    deployed = &starlink.deploy(spec, kBridgeHost, options);
    return *deployed;
}

void SimIsland::spawn(const bridge::models::Direction& d, const ServiceConfigs& services,
                      const ClientConfigs& clients) {
    // The old peers unbind first: the new ones reuse their well-known ports.
    client.reset();
    service.reset();
    service.emplace(network, d, services);
    client.emplace(network, d, clients);
}

void SimIsland::chaos(std::uint64_t seed, double loss) {
    network.latency().lossProbability = loss;
    network.setFaultSchedule(
        net::FaultSchedule::chaos(seed, kChaosHorizon, {kClientHost, kServiceHost, kBridgeHost})
            .shiftedBy(network.now() - net::TimePoint{}));
}

int SimIsland::runLookups(int n, const Client::Callback& onResult) {
    int successes = 0;
    for (int i = 0; i < n; ++i) {
        bool success = false;
        client->lookup([&success, &onResult](const Client::Result& r) {
            success = !r.urls.empty();
            if (onResult) onResult(r);
        });
        scheduler.runUntilIdle(kLookupEventBudget);
        if (success) ++successes;
    }
    return successes;
}

}  // namespace starlink::peers
