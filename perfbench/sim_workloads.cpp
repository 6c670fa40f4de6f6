// The sim workloads: sim-mixed and sim-chaos.
//
// A fleet holds one pooled simulation island per direction (clock, event
// scheduler, SimNetwork, a Starlink with the direction's bridge deployed).
// A lookup reseeds its island from the lookup seed, binds fresh legacy peers
// whose service URL is drawn from that seed, issues one client request,
// and runs the island to idle. Lookups go round-robin over the directions,
// closed loop, one at a time, on one thread.
//
// In a traced fleet the bridge gets the timing decorator instead of the raw
// SimNetwork, the engine keeps spans, and the decorator captures traffic for
// the codec replay. The legacy peers always use the raw SimNetwork.
#include <algorithm>
#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/registry.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/telemetry/metrics.hpp"
#include "net/scheduler.hpp"
#include "net/sim_network.hpp"
#include "perfbench.hpp"
#include "protocols/ldap/ldap_agents.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "protocols/wsd/wsd_agents.hpp"

namespace perfbench {

using namespace starlink;
using bridge::models::Case;

namespace {

/// The ten shipped directions. The first six line up with models::Case.
enum class Dir {
    SlpToUpnp,
    SlpToBonjour,
    UpnpToSlp,
    UpnpToBonjour,
    BonjourToUpnp,
    BonjourToSlp,
    SlpToLdap,
    LdapToSlp,
    SlpToWsd,
    WsdToSlp,
};

constexpr Dir kPaperDirs[] = {Dir::SlpToUpnp,     Dir::SlpToBonjour, Dir::UpnpToSlp,
                              Dir::UpnpToBonjour, Dir::BonjourToUpnp, Dir::BonjourToSlp};
constexpr Dir kExtensionDirs[] = {Dir::SlpToLdap, Dir::LdapToSlp, Dir::SlpToWsd,
                                  Dir::WsdToSlp};

bool isPaper(Dir d) { return static_cast<int>(d) < 6; }

const char* dirSlug(Dir d) {
    static const char* const kSlugs[] = {"slp-to-upnp",     "slp-to-bonjour", "upnp-to-slp",
                                         "upnp-to-bonjour", "bonjour-to-upnp", "bonjour-to-slp",
                                         "slp-to-ldap",     "ldap-to-slp",    "slp-to-wsd",
                                         "wsd-to-slp"};
    return kSlugs[static_cast<int>(d)];
}
Case caseOf(Dir d) { return static_cast<Case>(d); }

const std::string kClientHost = "10.0.0.1";
const std::string kServiceHost = "10.0.0.3";
const std::string kBridgeHost = "10.0.0.9";

constexpr std::size_t kMaxEventsPerLookup = 2'000'000;
constexpr std::size_t kRecorderBytes = 1024 * 1024;
constexpr double kChaosLoss = 0.10;  // steady per-hop loss under chaos
constexpr std::uint64_t kBlockNs = 10'000'000;  // throughput block: 10 ms
constexpr int kWarmupRounds = 3;
constexpr int kAllocWindowRounds = 500;
constexpr int kDrainEvery = 8;            // lookups per island between span read-outs
constexpr std::size_t kCapturePerIsland = 200;
constexpr int kSetupRepeats = 25;
constexpr std::size_t kDeterminismLookups = 300;

bridge::models::DeploymentSpec specFor(Dir d, const bridge::ModelSet& set) {
    if (isPaper(d)) return set.specFor(caseOf(d));
    switch (d) {
        case Dir::SlpToLdap: return bridge::models::slpToLdap(kServiceHost);
        case Dir::LdapToSlp: return bridge::models::ldapToSlp();
        case Dir::SlpToWsd: return bridge::models::slpToWsd();
        default: return bridge::models::wsdToSlp();
    }
}

struct WorkloadConfig {
    std::vector<Dir> dirs;
    bool chaos = false;
    bool telemetry = false;
    engine::EngineOptions engine;
};

WorkloadConfig mixedConfig() {
    WorkloadConfig config;
    config.dirs.assign(std::begin(kPaperDirs), std::end(kPaperDirs));
    config.dirs.insert(config.dirs.end(), std::begin(kExtensionDirs), std::end(kExtensionDirs));
    return config;
}

WorkloadConfig chaosConfig() {
    WorkloadConfig config;
    config.dirs.assign(std::begin(kPaperDirs), std::end(kPaperDirs));
    config.chaos = true;
    config.telemetry = true;
    config.engine.receiveTimeout = net::ms(7000);
    config.engine.maxRetransmits = 5;
    config.engine.retransmitBackoff = 1.5;
    config.engine.retransmitJitter = net::ms(100);
    config.engine.sessionTimeout = net::ms(30000);
    config.engine.recorderSessionBytes = kRecorderBytes;
    return config;
}

std::uint64_t lookupSeed(std::uint64_t seed, std::uint64_t index) {
    return Rng(seed * 0x9e3779b97f4a7c15ULL ^ (index + 1) * 0xbf58476d1ce4e5b9ULL).next();
}

std::string randomUrl(Rng& rng) {
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    std::string token;
    for (int i = 0; i < 12; ++i) token += kAlphabet[rng.range(0, 35)];
    return "http://" + kServiceHost + ":" + std::to_string(rng.range(1024, 65535)) + "/" + token;
}

engine::SessionOutcome outcomeOf(const engine::SessionRecord& record) {
    engine::SessionOutcome outcome;
    outcome.completed = record.completed;
    outcome.cause = record.cause;
    outcome.code = record.code;
    outcome.messagesIn = record.messagesIn;
    outcome.messagesOut = record.messagesOut;
    outcome.retransmits = record.retransmits;
    outcome.translationUs = record.translationTime().count();
    outcome.sessionUs = record.sessionTime().count();
    return outcome;
}

struct Island {
    Dir dir = Dir::SlpToUpnp;
    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork network{scheduler};
    LayerStats stats;
    std::unique_ptr<net::Network> timed;
    std::unique_ptr<bridge::Starlink> starlink;
    engine::AutomataEngine* engine = nullptr;
    std::vector<engine::SessionOutcome>* sink = nullptr;
    SpanReader spanReader;
    SpanLegs legs;
    int sinceDrain = 0;
};

struct Fleet {
    telemetry::MetricsRegistry metrics;  // outlives the engines that record into it
    std::vector<std::unique_ptr<Island>> islands;
    bool traced = false;
    double registryMs = 0;
    double deployMs = 0;
    double setupS = 0;
};

std::unique_ptr<Fleet> buildFleet(const WorkloadConfig& config, bool traced) {
    const std::uint64_t start = nowNs();
    auto fleet = std::make_unique<Fleet>();
    fleet->traced = traced;
    bridge::ModelRegistryOptions registryOptions;
    registryOptions.metrics = &fleet->metrics;
    bridge::ModelRegistry registry(registryOptions);
    const auto set = registry.loadBuiltins();
    const std::uint64_t loaded = nowNs();
    for (const Dir dir : config.dirs) {
        auto island = std::make_unique<Island>();
        island->dir = dir;
        net::Network* bridgeNet = &island->network;
        if (traced) {
            island->timed = makeTimedNetwork(island->network, island->stats);
            island->stats.captureLimit = kCapturePerIsland;
            bridgeNet = island->timed.get();
        }
        island->starlink = std::make_unique<bridge::Starlink>(*bridgeNet);
        engine::EngineOptions options = config.engine;
        options.metrics = &fleet->metrics;
        if (traced) options.spanCapacity = 4096;
        island->engine =
            &island->starlink->deploy(specFor(dir, *set), kBridgeHost, options).engine();
        Island* raw = island.get();
        island->engine->onSessionComplete = [raw](const engine::SessionRecord& record) {
            if (raw->sink != nullptr) raw->sink->push_back(outcomeOf(record));
        };
        fleet->islands.push_back(std::move(island));
    }
    const std::uint64_t end = nowNs();
    fleet->registryMs = static_cast<double>(loaded - start) / 1e6;
    fleet->deployMs = static_cast<double>(end - loaded) / 1e6;
    fleet->setupS = static_cast<double>(end - start) / 1e9;
    return fleet;
}

struct LookupResult {
    bool settled = false;
    bool discovered = false;
    bool correct = true;
    double latencyUs = 0;
};

/// Legacy peers of one lookup, torn down when it ends so the next lookup
/// binds the same well-known ports from a clean slate.
struct Peers {
    std::optional<slp::ServiceAgent> slpService;
    std::optional<mdns::Responder> mdnsService;
    std::optional<ssdp::Device> upnpService;
    std::optional<ldap::DirectoryServer> directory;
    std::optional<wsd::Target> wsdTarget;
    std::optional<slp::UserAgent> slpClient;
    std::optional<mdns::Resolver> mdnsClient;
    std::optional<ssdp::ControlPoint> upnpClient;
    std::optional<ldap::DirectoryClient> ldapClient;
    std::optional<wsd::Client> wsdClient;
    std::unique_ptr<net::UdpSocket> rawSlp;
};

LookupResult runLookup(Island& island, std::uint64_t seed, const WorkloadConfig& config,
                       std::vector<engine::SessionOutcome>* outcomes) {
    net::SimNetwork& network = island.network;
    engine::AutomataEngine& engine = *island.engine;
    Rng seeds(seed);
    network.reseed(seeds.next());
    engine.reseedRetry(seeds.next());
    engine.noteSessionSeed(seed);
    const std::uint64_t chaosSeed = seeds.next();
    const std::uint64_t serviceSeed = seeds.next();
    const std::uint64_t clientSeed = seeds.next();
    Rng inputs(seeds.next());
    std::string expected = randomUrl(inputs);
    if (config.chaos) {
        network.latency().lossProbability = kChaosLoss;
        network.setFaultSchedule(
            net::FaultSchedule::chaos(chaosSeed, net::ms(60000),
                                      {kClientHost, kServiceHost, kBridgeHost})
                .shiftedBy(network.now() - net::TimePoint{}));
    }
    island.sink = outcomes;

    Peers peers;
    LookupResult result;
    std::uint64_t start = 0;
    const auto finish = [&result, &start, &expected](const std::vector<std::string>& urls) {
        if (result.settled) return;
        result.settled = true;
        result.latencyUs = static_cast<double>(nowNs() - start) / 1e3;
        result.discovered = !urls.empty();
        result.correct = urls.empty() || urls.front() == expected;
    };

    // The heterogeneous legacy service.
    switch (island.dir) {
        case Dir::UpnpToSlp:
        case Dir::BonjourToSlp:
        case Dir::LdapToSlp:
        case Dir::WsdToSlp: {
            slp::ServiceAgent::Config service;
            service.host = kServiceHost;
            service.url = expected;
            service.seed = serviceSeed;
            if (island.dir == Dir::LdapToSlp) service.attributes = {{"color", "true"}};
            peers.slpService.emplace(network, service);
            break;
        }
        case Dir::SlpToBonjour:
        case Dir::UpnpToBonjour: {
            mdns::Responder::Config service;
            service.host = kServiceHost;
            service.url = expected;
            service.seed = serviceSeed;
            peers.mdnsService.emplace(network, service);
            break;
        }
        case Dir::SlpToUpnp:
        case Dir::BonjourToUpnp: {
            ssdp::Device::Config service;
            service.host = kServiceHost;
            service.serviceUrl = expected;
            service.seed = serviceSeed;
            peers.upnpService.emplace(network, service);
            break;
        }
        case Dir::SlpToLdap: {
            // Four printers; the request's attribute predicate picks one.
            ldap::DirectoryServer::Config service;
            service.host = kServiceHost;
            service.seed = serviceSeed;
            peers.directory.emplace(network, service);
            const std::int64_t wanted = inputs.range(0, 3);
            for (int i = 0; i < 4; ++i) {
                const std::string url = expected + "-p" + std::to_string(i);
                peers.directory->addEntry({"cn=p" + std::to_string(i) + ",dc=services,dc=local",
                                           "service:printer", url,
                                           {{"queue", "p" + std::to_string(i)}}});
            }
            expected += "-p" + std::to_string(wanted);
            break;
        }
        case Dir::SlpToWsd: {
            wsd::Target::Config service;
            service.host = kServiceHost;
            service.xaddrs = expected;
            service.seed = serviceSeed;
            peers.wsdTarget.emplace(network, service);
            break;
        }
    }

    // The legacy client and its one request.
    start = nowNs();
    switch (island.dir) {
        case Dir::SlpToUpnp:
        case Dir::SlpToBonjour:
        case Dir::SlpToWsd: {
            slp::UserAgent::Config client;
            client.host = kClientHost;
            if (config.chaos) {
                client.timeout = net::ms(120000);
                client.retransmitInterval = net::ms(8000);
            }
            peers.slpClient.emplace(network, client);
            peers.slpClient->lookup("service:printer", [&finish](const slp::UserAgent::Result& r) {
                finish(r.urls);
            });
            break;
        }
        case Dir::UpnpToSlp:
        case Dir::UpnpToBonjour: {
            ssdp::ControlPoint::Config client;
            client.host = kClientHost;
            client.seed = clientSeed;
            if (config.chaos) {
                client.timeout = net::ms(120000);
                client.retransmitInterval = net::ms(8000);
            }
            peers.upnpClient.emplace(network, client);
            peers.upnpClient->search("urn:schemas-upnp-org:service:printer:1",
                                     [&finish](const ssdp::ControlPoint::Result& r) {
                                         finish(r.urls);
                                     });
            break;
        }
        case Dir::BonjourToUpnp:
        case Dir::BonjourToSlp: {
            mdns::Resolver::Config client;
            client.host = kClientHost;
            client.seed = clientSeed;
            if (config.chaos) {
                client.timeout = net::ms(120000);
                client.retransmitInterval = net::ms(8000);
            }
            peers.mdnsClient.emplace(network, client);
            peers.mdnsClient->browse("_printer._tcp.local",
                                     [&finish](const mdns::Resolver::Result& r) {
                                         finish(r.urls);
                                     });
            break;
        }
        case Dir::SlpToLdap: {
            // slp::UserAgent has no predicate parameter: drive the codec.
            peers.rawSlp = network.openUdp(kClientHost);
            peers.rawSlp->onDatagram([&finish](const Bytes& payload, const net::Address&) {
                if (const auto reply = slp::decodeReply(payload)) finish({reply->url});
            });
            slp::SrvRequest request;
            request.xid = static_cast<std::uint16_t>(clientSeed);
            request.serviceType = "service:printer";
            const std::string suffix = expected.substr(expected.rfind("-p") + 2);
            request.predicate = "(queue=p" + suffix + ")";
            peers.rawSlp->sendTo(net::Address{slp::kGroup, slp::kPort}, slp::encode(request));
            break;
        }
        case Dir::LdapToSlp: {
            peers.ldapClient.emplace(network, kClientHost);
            peers.ldapClient->search(kBridgeHost, ldap::kPort, "service:printer", "(color=true)",
                                     [&finish](const ldap::DirectoryClient::Result& r) {
                                         finish(r.success ? std::vector<std::string>{r.url}
                                                          : std::vector<std::string>{});
                                     });
            break;
        }
        case Dir::WsdToSlp: {
            wsd::Client::Config client;
            client.host = kClientHost;
            client.timeout = net::ms(15000);  // outlasts the SLP service's ~6 s reply
            peers.wsdClient.emplace(network, client);
            peers.wsdClient->probe("printer", [&finish](const wsd::Client::Result& r) {
                finish(r.xaddrs);
            });
            break;
        }
    }

    const std::uint64_t loopStart = nowNs();
    island.scheduler.runUntilIdle(kMaxEventsPerLookup);
    island.stats.loopNs += nowNs() - loopStart;
    if (!result.settled) result.latencyUs = static_cast<double>(nowNs() - start) / 1e3;
    network.clearFaultSchedule();
    island.sink = nullptr;
    return result;
}

struct PassOutput {
    std::uint64_t attempted = 0;
    std::uint64_t discovered = 0;
    std::uint64_t empty = 0;
    std::uint64_t unsettled = 0;
    std::uint64_t wrong = 0;
    std::uint64_t unclassified = 0;
    std::map<std::string, std::uint64_t> undiscoveredByDir;
    /// Per lookup and per throughput block, as measured (raw) and scaled to
    /// the reference host speed by the calibration loop run on either side
    /// of the block.
    std::vector<double> rawLatencyUs;
    std::vector<double> latencyUs;
    std::vector<double> rawRates;  ///< discovered lookups per second
    std::vector<double> rates;
    TracedPass totals;
    std::vector<engine::SessionOutcome> keptOutcomes;  ///< of the first keepLookups
    std::vector<CapturedMessage> captured;

    double usPerLookup() const {
        const double rate = median(rates);
        return rate > 0 ? 1e6 / rate : 0;
    }
};

/// Runs lookups round-robin over the fleet, after kWarmupRounds unmeasured
/// rounds: for `seconds` of measured wall, or exactly `fixedLookups`.
PassOutput runPass(Fleet& fleet, const WorkloadConfig& config, std::uint64_t seed,
                   double seconds, std::size_t keepLookups = 0, std::uint64_t fixedLookups = 0) {
    const std::size_t n = fleet.islands.size();
    std::vector<engine::SessionOutcome> outcomes;
    outcomes.reserve(64);
    std::uint64_t index = 0;
    for (int round = 0; round < kWarmupRounds; ++round) {
        for (auto& island : fleet.islands) {
            outcomes.clear();
            runLookup(*island, lookupSeed(seed, index++), config, &outcomes);
        }
    }
    for (auto& island : fleet.islands) {
        const std::size_t captureLimit = island->stats.captureLimit;
        island->stats = LayerStats{};
        island->stats.captureLimit = captureLimit;
        SpanLegs warmup;
        island->spanReader.drain(*island->engine, warmup);
    }

    PassOutput out;
    const std::uint64_t windowLookups = static_cast<std::uint64_t>(kAllocWindowRounds) * n;
    const std::uint64_t budgetNs = static_cast<std::uint64_t>(seconds * 1e9);
    setAllocCounting(true);
    const AllocCounts totalStart = allocTotal();
    const AllocCounts bridgeStart = allocBridge();
    bool windowOpen = true;
    const auto closeWindow = [&](std::uint64_t lookups) {
        out.totals.windowLookups = static_cast<double>(lookups);
        out.totals.windowTotal = {allocTotal().count - totalStart.count,
                                  allocTotal().bytes - totalStart.bytes};
        out.totals.windowBridge = {allocBridge().count - bridgeStart.count,
                                   allocBridge().bytes - bridgeStart.bytes};
        windowOpen = false;
    };
    const std::uint64_t passStart = nowNs();
    std::uint64_t excluded = 0;
    std::uint64_t blockStart = passStart;
    std::uint64_t blockExcluded = 0;
    std::uint64_t blockDiscovered = 0;
    std::uint64_t calibrationBefore = calibrationNs();
    for (std::uint64_t i = 0;; ++i) {
        if (fixedLookups != 0 ? i >= fixedLookups
                              : nowNs() - passStart - excluded >= budgetNs) {
            break;
        }
        Island& island = *fleet.islands[i % n];
        outcomes.clear();
        const LookupResult result = runLookup(island, lookupSeed(seed, index++), config, &outcomes);
        AllocPause bookkeeping;  // until the end of this iteration
        ++out.attempted;
        out.rawLatencyUs.push_back(result.latencyUs);
        if (result.discovered) {
            ++out.discovered;
            ++blockDiscovered;
        } else {
            ++(result.settled ? out.empty : out.unsettled);
            ++out.undiscoveredByDir[dirSlug(island.dir)];
        }
        if (!result.correct) ++out.wrong;
        for (const engine::SessionOutcome& outcome : outcomes) {
            ++out.totals.sessions;
            out.totals.retransmits += outcome.retransmits;
            out.totals.messagesIn += outcome.messagesIn;
            if (!outcome.completed) ++out.totals.aborts;
            if (outcome.code == errc::ErrorCode::Unclassified) ++out.unclassified;
        }
        if (i < keepLookups) {
            out.keptOutcomes.insert(out.keptOutcomes.end(), outcomes.begin(), outcomes.end());
        }
        if (windowOpen && i + 1 == windowLookups) closeWindow(windowLookups);
        if (fleet.traced && ++island.sinceDrain == kDrainEvery) {
            const std::uint64_t drainStart = nowNs();
            island.spanReader.drain(*island.engine, island.legs);
            island.sinceDrain = 0;
            const std::uint64_t spent = nowNs() - drainStart;
            excluded += spent;
            blockExcluded += spent;
        }
        const std::uint64_t now = nowNs();
        const std::uint64_t blockWall = now - blockStart - blockExcluded;
        if (blockWall >= kBlockNs) {
            const std::uint64_t calibrationAfter = calibrationNs();
            const double speed = hostSlowdown(calibrationBefore, calibrationAfter);
            calibrationBefore = calibrationAfter;
            out.rawRates.push_back(static_cast<double>(blockDiscovered) /
                                   (static_cast<double>(blockWall) / 1e9));
            out.rates.push_back(out.rawRates.back() * speed);
            for (std::size_t k = out.latencyUs.size(); k < out.rawLatencyUs.size(); ++k) {
                out.latencyUs.push_back(out.rawLatencyUs[k] / speed);
            }
            const std::uint64_t after = nowNs();
            excluded += after - now;
            blockStart = after;
            blockExcluded = 0;
            blockDiscovered = 0;
        }
    }
    out.totals.wallNs = static_cast<double>(nowNs() - passStart - excluded);
    if (windowOpen) closeWindow(out.attempted);  // the pass ended inside the window
    setAllocCounting(false);
    // Lookups after the last block boundary: their latencies still count.
    const double tailSpeed = hostSlowdown(calibrationBefore, calibrationNs());
    for (std::size_t k = out.latencyUs.size(); k < out.rawLatencyUs.size(); ++k) {
        out.latencyUs.push_back(out.rawLatencyUs[k] / tailSpeed);
    }
    if (out.rates.empty() && out.totals.wallNs > 0) {  // shorter than one block
        out.rawRates.push_back(static_cast<double>(out.discovered) / (out.totals.wallNs / 1e9));
        out.rates.push_back(out.rawRates.back() * tailSpeed);
    }
    out.totals.lookups = static_cast<double>(out.attempted);
    for (auto& island : fleet.islands) {
        if (fleet.traced) island->spanReader.drain(*island->engine, island->legs);
        out.totals.layers.add(island->stats);
        out.totals.legs.parseNs += island->legs.parseNs;
        out.totals.legs.translationLogicNs += island->legs.translationLogicNs;
        out.totals.legs.composeNs += island->legs.composeNs;
        out.totals.legs.sendNs += island->legs.sendNs;
        out.totals.legs.overruns += island->legs.overruns;
        for (Bytes& payload : island->stats.captured) {
            out.captured.push_back({island->engine, std::move(payload)});
        }
        island->stats.captured.clear();
    }
    return out;
}

/// Fig 12(b) as bench_fig12b_starlink measures it: per paper direction, one
/// island with default peers, 100 sequential lookups from one client, the
/// median virtual translation time of completed sessions.
bool fig12bMediansHold(std::vector<std::string>& notes) {
    constexpr int kRepetitions = 100;
    constexpr long kExpectedMs[] = {338, 275, 6043, 275, 338, 6043};
    bool ok = true;
    std::string line = "fig12b virtual medians (ms):";
    for (int i = 0; i < 6; ++i) {
        const Case c = bridge::models::kAllCases[i];
        net::VirtualClock clock;
        net::EventScheduler scheduler(clock);
        net::SimNetwork network(scheduler);
        bridge::Starlink starlink(network);
        auto& deployed = starlink.deploy(bridge::models::forCase(c, kBridgeHost), kBridgeHost);
        Peers peers;
        switch (c) {
            case Case::UpnpToSlp:
            case Case::BonjourToSlp:
                peers.slpService.emplace(network, slp::ServiceAgent::Config{});
                break;
            case Case::SlpToBonjour:
            case Case::UpnpToBonjour:
                peers.mdnsService.emplace(network, mdns::Responder::Config{});
                break;
            case Case::SlpToUpnp:
            case Case::BonjourToUpnp:
                peers.upnpService.emplace(network, ssdp::Device::Config{});
                break;
        }
        // One client per direction, reused across the lookups.
        switch (c) {
            case Case::SlpToUpnp:
            case Case::SlpToBonjour:
                peers.slpClient.emplace(network, slp::UserAgent::Config{});
                break;
            case Case::UpnpToSlp:
            case Case::UpnpToBonjour:
                peers.upnpClient.emplace(network, ssdp::ControlPoint::Config{});
                break;
            case Case::BonjourToUpnp:
            case Case::BonjourToSlp:
                peers.mdnsClient.emplace(network, mdns::Resolver::Config{});
                break;
        }
        for (int r = 0; r < kRepetitions; ++r) {
            if (peers.slpClient) {
                peers.slpClient->lookup("service:printer", [](const slp::UserAgent::Result&) {});
            } else if (peers.upnpClient) {
                peers.upnpClient->search("urn:schemas-upnp-org:service:printer:1",
                                         [](const ssdp::ControlPoint::Result&) {});
            } else {
                peers.mdnsClient->browse("_printer._tcp.local",
                                         [](const mdns::Resolver::Result&) {});
            }
            scheduler.runUntilIdle();
        }
        std::vector<double> samples;
        for (const auto& session : deployed.engine().sessions()) {
            if (!session.completed) continue;
            samples.push_back(std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                                  session.translationTime())
                                  .count());
        }
        std::sort(samples.begin(), samples.end());
        const long got = samples.empty() ? -1 : std::lround(samples[samples.size() / 2]);
        line += " " + std::to_string(got);
        if (got != kExpectedMs[i] || samples.size() != kRepetitions) ok = false;
    }
    notes.push_back(line + (ok ? " (match 338/275/6043/275/338/6043)" : " MISMATCH"));
    return ok;
}

/// Recorder on against off over the same lookups, alternating blocks so
/// drift hits both sides; % change of the median wall per lookup.
double recorderOverheadPct(WorkloadConfig config, std::uint64_t seed, double seconds) {
    WorkloadConfig off = config;
    off.engine.recorderSessionBytes = 0;
    WorkloadConfig on = config;
    on.engine.recorderSessionBytes = kRecorderBytes;
    auto fleetOff = buildFleet(off, false);
    auto fleetOn = buildFleet(on, false);
    const std::uint64_t block = fleetOff->islands.size() * 20;
    std::vector<double> offUs;
    std::vector<double> onUs;
    std::vector<engine::SessionOutcome> outcomes;
    const auto runBlock = [&](Fleet& fleet, const WorkloadConfig& cfg, std::uint64_t first) {
        const std::uint64_t start = nowNs();
        for (std::uint64_t i = 0; i < block; ++i) {
            outcomes.clear();
            runLookup(*fleet.islands[i % fleet.islands.size()], lookupSeed(seed, first + i), cfg,
                      &outcomes);
        }
        return static_cast<double>(nowNs() - start) / 1e3 / static_cast<double>(block);
    };
    runBlock(*fleetOff, off, 0);
    runBlock(*fleetOn, on, 0);
    const std::uint64_t deadline = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t round = 1; nowNs() < deadline || round <= 4; ++round) {
        if (round % 2 == 0) {
            offUs.push_back(runBlock(*fleetOff, off, round * block));
            onUs.push_back(runBlock(*fleetOn, on, round * block));
        } else {
            onUs.push_back(runBlock(*fleetOn, on, round * block));
            offUs.push_back(runBlock(*fleetOff, off, round * block));
        }
    }
    const double offMedian = median(offUs);
    return offMedian > 0 ? 100.0 * (median(onUs) - offMedian) / offMedian : 0;
}

void addEndToEnd(RunResult& out, const PassOutput& pass, double setupS) {
    const double attempted = static_cast<double>(pass.attempted);
    out.metrics = {
        {"lookups_per_s", median(pass.rates), "1/s"},
        {"lookup_us.p50", slicedQuantile(pass.latencyUs, 0.50), "us"},
        {"lookup_us.p99", slicedQuantile(pass.latencyUs, 0.99), "us"},
        {"lookup_ok_share", static_cast<double>(pass.discovered) / attempted, "share"},
        {"allocs_per_lookup",
         static_cast<double>(pass.totals.windowTotal.count) / pass.totals.windowLookups, "count"},
        {"heap_kib_per_lookup",
         static_cast<double>(pass.totals.windowTotal.bytes) / 1024.0 / pass.totals.windowLookups,
         "KiB"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"setup_s", setupS, "s"},
    };
    out.notes.push_back("raw wall (before host-speed scaling): " +
                        std::to_string(median(pass.rawRates)) + " lookups/s, p50 " +
                        std::to_string(slicedQuantile(pass.rawLatencyUs, 0.50)) + " us, p99 " +
                        std::to_string(slicedQuantile(pass.rawLatencyUs, 0.99)) + " us");
}

double failShare(const PassOutput& pass) {
    return static_cast<double>(pass.empty + pass.unsettled + pass.totals.aborts) /
           static_cast<double>(pass.attempted);
}

std::string passSummary(const char* label, const PassOutput& pass) {
    std::string line = std::string(label) + ": " + std::to_string(pass.attempted) +
                       " lookups, " + std::to_string(pass.discovered) + " discovered, " +
                       std::to_string(pass.empty) + " empty, " +
                       std::to_string(pass.unsettled) + " unsettled, " +
                       std::to_string(pass.totals.aborts) + " aborted sessions, " +
                       std::to_string(pass.wrong) + " wrong URLs; latency samples " +
                       std::to_string(pass.latencyUs.size()) + ", throughput blocks " +
                       std::to_string(pass.rates.size());
    for (const auto& [slug, count] : pass.undiscoveredByDir) {
        line += "\n    undiscovered " + slug + ": " + std::to_string(count);
    }
    return line;
}

/// Checks shared by both modes; counts failed operations into `out`.
void checkPass(RunResult& out, const PassOutput& pass, bool mustDiscover) {
    const std::uint64_t undiscovered = mustDiscover ? pass.attempted - pass.discovered : 0;
    const std::uint64_t failed = pass.wrong + pass.unclassified + undiscovered;
    out.attempted += pass.attempted;
    out.failed += failed;
    if (failed != 0) {
        out.correct = false;
        out.notes.push_back("check FAILED: " + std::to_string(pass.wrong) + " wrong URLs, " +
                            std::to_string(pass.unclassified) + " Unclassified aborts, " +
                            std::to_string(undiscovered) + " undiscovered lookups");
    }
}

}  // namespace

std::map<std::string, CodecCost> referenceCodecs(std::uint64_t seed, double secondsPerDialect) {
    const WorkloadConfig config = mixedConfig();
    auto fleet = buildFleet(config, true);
    const PassOutput pass = runPass(*fleet, config, seed ^ 0x7265666572656e63ULL, 0, 0,
                                    config.dirs.size() * 4);
    return replayCodecs(pass.captured, secondsPerDialect);
}

double slpToUpnpRecorderOverheadPct(std::uint64_t seed, double seconds) {
    WorkloadConfig config;
    config.dirs = {Dir::SlpToUpnp};
    config.telemetry = true;
    return recorderOverheadPct(config, seed, seconds);
}

RunResult runSimWorkload(const RunOptions& options) {
    const bool chaos = options.workload == "sim-chaos";
    const WorkloadConfig config = chaos ? chaosConfig() : mixedConfig();
    telemetry::setEnabled(config.telemetry);
    RunResult out;

    // Set-up, repeated: registry load with its lint gate, then deploying
    // every direction's island. The last fleet serves the untraced pass.
    std::vector<double> setupS, registryMs, deployMs;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < kSetupRepeats; ++i) {
        fleet.reset();  // tear the previous fleet down before timing the next
        const std::uint64_t before = calibrationNs();
        fleet = buildFleet(config, false);
        const double speed = hostSlowdown(before, calibrationNs());
        setupS.push_back(fleet->setupS / speed);
        registryMs.push_back(fleet->registryMs / speed);
        deployMs.push_back(fleet->deployMs / speed);
    }

    const double untracedSeconds = options.trace ? options.seconds * 0.35 : options.seconds;
    const PassOutput untraced =
        runPass(*fleet, config, options.seed, untracedSeconds, kDeterminismLookups);
    out.notes.push_back(passSummary("untraced pass", untraced));
    checkPass(out, untraced, !chaos);

    if (chaos) {
        // Same seed, fresh islands: the per-session outcome vectors of the
        // first lookups must match exactly.
        auto fresh = buildFleet(config, false);
        const PassOutput again = runPass(*fresh, config, options.seed, 0, kDeterminismLookups,
                                         kDeterminismLookups);
        const bool same = again.keptOutcomes == untraced.keptOutcomes;
        out.notes.push_back("determinism: " + std::to_string(again.keptOutcomes.size()) +
                            " session outcomes of the first " +
                            std::to_string(kDeterminismLookups) + " lookups " +
                            (same ? "identical across two passes" : "DIFFER between two passes"));
        if (!same) out.correct = false;
    } else if (!fig12bMediansHold(out.notes)) {
        out.correct = false;
    }

    if (!options.trace) {
        addEndToEnd(out, untraced, median(setupS));
        return out;
    }

    auto tracedFleet = buildFleet(config, true);
    const PassOutput traced = runPass(*tracedFleet, config, options.seed, options.seconds * 0.35);
    out.notes.push_back(passSummary("traced pass", traced));
    checkPass(out, traced, !chaos);
    if (!closureHolds(traced.totals, out.notes)) out.correct = false;
    out.notes.push_back(accountingIdentity(traced.totals));

    LayerContext context;
    context.registryMs = median(registryMs);
    context.deployMs = median(deployMs);
    const double untracedUs = untraced.usPerLookup();
    context.traceOverheadPct =
        untracedUs > 0 ? 100.0 * (traced.usPerLookup() - untracedUs) / untracedUs : 0;
    context.recorderOverheadPct = recorderOverheadPct(config, options.seed, options.seconds * 0.2);
    context.failShare = failShare(traced);
    context.codecs = replayCodecs(traced.captured, options.seconds * 0.03);
    if (!context.codecs.contains("xml")) {
        const auto reference = referenceCodecs(options.seed, options.seconds * 0.03);
        for (const auto& [dialect, cost] : reference) {
            if (context.codecs.emplace(dialect, cost).second) {
                out.notes.push_back("mdl." + dialect +
                                    ": not in this workload's traffic; replayed over the "
                                    "reference capture of all ten directions");
            }
        }
    }
    out.metrics = perLayerMetrics(traced.totals, context);
    return out;
}

}  // namespace perfbench
