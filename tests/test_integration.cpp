// End-to-end case-study tests (paper section V, experiment E3): every legacy
// client discovers the heterogeneous legacy service through a runtime-
// deployed Starlink bridge, across all six protocol pairs (and, for the
// concurrency test, the four LDAP and WS-Discovery directions too).
//
// Topology per test: legacy client at 10.0.0.1, legacy service at 10.0.0.3,
// Starlink bridge at 10.0.0.9. Neither legacy application knows the bridge
// exists (transparency requirement).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/recorder.hpp"
#include "protocols/ldap/ldap_agents.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/peers.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "sim_fixture.hpp"

namespace starlink {
namespace {

using bridge::models::Case;
using testing::SimTest;

constexpr const char* kBridgeHost = "10.0.0.9";

class InteropTest : public SimTest {
protected:
    bridge::Starlink starlink{network};

    bridge::DeployedBridge& deployCase(Case c) {
        return starlink.deploy(bridge::models::forCase(c, kBridgeHost), kBridgeHost);
    }

    // Fast legacy services (latency realism is benchmarked separately; the
    // integration tests only verify behaviour).
    slp::ServiceAgent::Config fastSlpService() {
        slp::ServiceAgent::Config config;
        config.responseDelayBase = net::ms(5);
        config.responseDelayJitter = net::ms(1);
        return config;
    }
    mdns::Responder::Config fastResponder() {
        mdns::Responder::Config config;
        config.responseDelayBase = net::ms(5);
        config.responseDelayJitter = net::ms(1);
        return config;
    }
    ssdp::Device::Config fastDevice() {
        ssdp::Device::Config config;
        config.responseDelayBase = net::ms(5);
        config.responseDelayJitter = net::ms(1);
        return config;
    }
    ssdp::ControlPoint::Config fastControlPoint() {
        ssdp::ControlPoint::Config config;
        config.mxWindowBase = net::ms(30);
        config.mxWindowJitter = net::ms(3);
        return config;
    }
};

/// One lookup of `c`'s legacy client through its bridge on a fresh
/// peers::SimIsland: the client must discover the service's URL through one
/// completed bridge session.
void discoverOnce(Case c) {
    const bridge::models::Direction& direction = bridge::models::direction(c);
    peers::SimIsland island;
    const bridge::DeployedBridge& bridge = island.deploy(direction);
    island.spawn(direction);
    std::vector<std::string> urls;
    island.runLookups(1, [&urls](const peers::Client::Result& r) { urls = r.urls; });
    EXPECT_EQ(urls, std::vector<std::string>{island.service->url()});
    ASSERT_EQ(bridge.engine().sessions().size(), 1u);
    EXPECT_TRUE(bridge.engine().sessions()[0].completed);
}

// --- case 1 -----------------------------------------------------------------

TEST_F(InteropTest, SlpClientDiscoversUpnpDevice) {
    auto& bridge = deployCase(Case::SlpToUpnp);
    ssdp::Device device(network, fastDevice());
    slp::UserAgent client(network, {});

    std::vector<std::string> urls;
    client.lookup("service:printer", [&urls](const slp::UserAgent::Result& result) {
        urls = result.urls;
    });
    run();

    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], device.config().serviceUrl);
    EXPECT_EQ(device.searchesAnswered(), 1u);
    ASSERT_EQ(bridge.engine().sessions().size(), 1u);
    EXPECT_TRUE(bridge.engine().sessions()[0].completed);
    EXPECT_EQ(bridge.engine().sessions()[0].messagesIn, 3u);   // SrvReq, SSDP resp, HTTP OK
    EXPECT_EQ(bridge.engine().sessions()[0].messagesOut, 3u);  // M-SEARCH, GET, SrvReply
}

// --- case 2 -----------------------------------------------------------------

TEST_F(InteropTest, SlpClientDiscoversBonjourService) { discoverOnce(Case::SlpToBonjour); }

// --- case 3 -----------------------------------------------------------------

TEST_F(InteropTest, UpnpControlPointDiscoversSlpService) {
    auto& bridge = deployCase(Case::UpnpToSlp);
    slp::ServiceAgent service(network, fastSlpService());
    ssdp::ControlPoint client(network, fastControlPoint());

    std::vector<std::string> urls;
    client.search("urn:schemas-upnp-org:service:printer:1",
                  [&urls](const ssdp::ControlPoint::Result& result) { urls = result.urls; });
    run();

    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], service.config().url);
    EXPECT_EQ(service.requestsServed(), 1u);
    ASSERT_EQ(bridge.engine().sessions().size(), 1u);
    EXPECT_TRUE(bridge.engine().sessions()[0].completed);
    EXPECT_EQ(bridge.engine().sessions()[0].messagesIn, 3u);   // M-SEARCH, SrvReply, GET
    EXPECT_EQ(bridge.engine().sessions()[0].messagesOut, 3u);  // SrvReq, SSDP resp, HTTP OK
}

// --- cases 4 to 6 ------------------------------------------------------------

TEST_F(InteropTest, UpnpControlPointDiscoversBonjourService) {
    discoverOnce(Case::UpnpToBonjour);
}

TEST_F(InteropTest, BonjourBrowserDiscoversUpnpDevice) { discoverOnce(Case::BonjourToUpnp); }

TEST_F(InteropTest, BonjourBrowserDiscoversSlpService) { discoverOnce(Case::BonjourToSlp); }

// --- repeated sessions --------------------------------------------------------

TEST_F(InteropTest, BridgeServesConsecutiveConversations) {
    auto& bridge = deployCase(Case::SlpToBonjour);
    mdns::Responder responder(network, fastResponder());
    slp::UserAgent client(network, {});

    int successes = 0;
    for (int i = 0; i < 5; ++i) {
        client.lookup("service:printer", [&successes](const slp::UserAgent::Result& result) {
            if (!result.urls.empty()) ++successes;
        });
        run();
    }
    EXPECT_EQ(successes, 5);
    EXPECT_EQ(bridge.engine().sessions().size(), 5u);
    for (const auto& session : bridge.engine().sessions()) {
        EXPECT_TRUE(session.completed);
    }
}

// --- transparency -------------------------------------------------------------

TEST_F(InteropTest, LookupFailsWithoutBridge) {
    // No bridge deployed: the SLP client cannot reach the Bonjour service.
    mdns::Responder responder(network, fastResponder());
    slp::UserAgent::Config quickTimeout;
    quickTimeout.timeout = net::ms(200);
    slp::UserAgent client(network, quickTimeout);

    std::optional<slp::UserAgent::Result> outcome;
    client.lookup("service:printer",
                  [&outcome](const slp::UserAgent::Result& result) { outcome = result; });
    run();

    ASSERT_TRUE(outcome);
    EXPECT_TRUE(outcome->urls.empty());
}

// --- fault injection -----------------------------------------------------------

TEST_F(InteropTest, SessionTimesOutWhenServiceIsPartitioned) {
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(500);
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToBonjour, kBridgeHost),
                                   kBridgeHost, options);
    mdns::Responder responder(network, fastResponder());
    network.partitionHost(responder.config().host);

    slp::UserAgent::Config quickTimeout;
    quickTimeout.timeout = net::ms(2000);
    slp::UserAgent client(network, quickTimeout);

    std::optional<slp::UserAgent::Result> outcome;
    client.lookup("service:printer",
                  [&outcome](const slp::UserAgent::Result& result) { outcome = result; });
    run();

    ASSERT_TRUE(outcome);
    EXPECT_TRUE(outcome->urls.empty());
    ASSERT_EQ(bridge.engine().sessions().size(), 1u);
    EXPECT_FALSE(bridge.engine().sessions()[0].completed);
}

TEST_F(InteropTest, BridgeRecoversAfterPartitionHeals) {
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(500);
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToBonjour, kBridgeHost),
                                   kBridgeHost, options);
    mdns::Responder responder(network, fastResponder());
    slp::UserAgent::Config quickTimeout;
    quickTimeout.timeout = net::ms(2000);
    slp::UserAgent client(network, quickTimeout);

    network.partitionHost(responder.config().host);
    bool firstFailed = false;
    client.lookup("service:printer", [&firstFailed](const slp::UserAgent::Result& result) {
        firstFailed = result.urls.empty();
    });
    run();
    EXPECT_TRUE(firstFailed);

    network.healHost(responder.config().host);
    std::vector<std::string> urls;
    client.lookup("service:printer", [&urls](const slp::UserAgent::Result& result) {
        urls = result.urls;
    });
    run();
    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], responder.config().url);
    ASSERT_EQ(bridge.engine().sessions().size(), 2u);
    EXPECT_FALSE(bridge.engine().sessions()[0].completed);
    EXPECT_TRUE(bridge.engine().sessions()[1].completed);
}

TEST_F(InteropTest, LossyNetworkLookupEventuallySucceeds) {
    // Discovery protocols tolerate datagram loss by retrying at the client;
    // the bridge must stay consistent across lost conversations.
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(400);
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToBonjour, kBridgeHost),
                                   kBridgeHost, options);
    mdns::Responder responder(network, fastResponder());
    network.latency().lossProbability = 0.25;

    slp::UserAgent::Config config;
    config.timeout = net::ms(1000);
    slp::UserAgent client(network, config);

    int successes = 0;
    for (int attempt = 0; attempt < 20; ++attempt) {
        client.lookup("service:printer", [&successes](const slp::UserAgent::Result& result) {
            if (!result.urls.empty()) ++successes;
        });
        run();
    }
    // Four datagram hops at 25% loss each: ~32% of attempts survive end to
    // end; the seeded rng makes the exact count stable.
    EXPECT_GE(successes, 3);
    // The bridge never wedged: every started session is accounted for.
    for (const auto& session : bridge.engine().sessions()) {
        EXPECT_TRUE(session.messagesIn >= 1);
    }
    EXPECT_EQ(bridge.engine().currentState(), "s10");
}

TEST_F(InteropTest, DuplicatedResponsesAreHarmless) {
    // Two identical Bonjour responders answer the same question; the bridge
    // takes the first response and ignores the duplicate.
    auto& bridge = deployCase(Case::SlpToBonjour);
    mdns::Responder responderA(network, fastResponder());
    mdns::Responder::Config otherConfig = fastResponder();
    otherConfig.host = "10.0.0.4";
    otherConfig.url = "http://10.0.0.4:631/ipp";
    mdns::Responder responderB(network, otherConfig);

    std::vector<std::string> urls;
    slp::UserAgent client(network, {});
    client.lookup("service:printer", [&urls](const slp::UserAgent::Result& result) {
        urls = result.urls;
    });
    run();
    ASSERT_EQ(urls.size(), 1u);  // exactly one reply reached the client
    ASSERT_EQ(bridge.engine().sessions().size(), 1u);
    EXPECT_TRUE(bridge.engine().sessions()[0].completed);
    EXPECT_EQ(bridge.engine().sessions()[0].messagesIn, 2u);  // duplicate dropped
}

TEST_F(InteropTest, OverlappingClientsServedConcurrently) {
    // B's request lands while A's session is mid-flight. The engine keeps
    // one session per (color, peer), so B is served on its first try
    // alongside A instead of waiting for A to finish.
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(2000);
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToBonjour, kBridgeHost),
                                   kBridgeHost, options);
    mdns::Responder::Config slowResponder = fastResponder();
    slowResponder.responseDelayBase = net::ms(100);
    mdns::Responder responder(network, slowResponder);

    slp::UserAgent::Config quick;
    quick.timeout = net::ms(500);
    slp::UserAgent clientA(network, quick);
    slp::UserAgent::Config quickB = quick;
    quickB.host = "10.0.0.6";
    slp::UserAgent clientB(network, quickB);

    int aReplies = 0;
    int bReplies = 0;
    clientA.lookup("service:printer", [&aReplies](const slp::UserAgent::Result& result) {
        aReplies += result.urls.empty() ? 0 : 1;
    });
    scheduler.schedule(net::ms(20), [&clientB, &bReplies] {
        clientB.lookup("service:printer", [&bReplies](const slp::UserAgent::Result& result) {
            bReplies += result.urls.empty() ? 0 : 1;
        });
    });
    run();
    EXPECT_EQ(aReplies, 1);
    EXPECT_EQ(bReplies, 1);  // first try, no retry needed
    ASSERT_EQ(bridge.engine().sessions().size(), 2u);
    const engine::SessionRecord& first = bridge.engine().sessions()[0];
    const engine::SessionRecord& second = bridge.engine().sessions()[1];
    EXPECT_TRUE(first.completed);
    EXPECT_TRUE(second.completed);
    // The two conversations really overlapped.
    EXPECT_LT(std::max(first.firstReceive, second.firstReceive),
              std::min(first.lastSend, second.lastSend));
    EXPECT_EQ(bridge.engine().liveSessionCount(), 0u);
}

// --- concurrency across every direction ----------------------------------------

constexpr const char* kQueueUrl = "http://10.0.0.3:631/printer-p";

/// slp-to-ldap's client `i` on `host`: it asks for queue p<i> through a raw
/// SLP predicate (slp::UserAgent has none), so each client has its own
/// answer and a reply crossed into another session would show.
std::shared_ptr<net::UdpSocket> askForQueue(net::Network& network, int i,
                                            const std::string& host,
                                            std::function<void(std::vector<std::string>)> done) {
    std::shared_ptr<net::UdpSocket> socket = network.openUdp(host);
    socket->onDatagram([done](const Bytes& payload, const net::Address&) {
        if (const auto reply = slp::decodeReply(payload)) done({reply->url});
    });
    slp::SrvRequest request;
    request.xid = static_cast<std::uint16_t>(100 + i);
    request.serviceType = "service:printer";
    request.predicate = "(queue=p" + std::to_string(i) + ")";
    socket->sendTo(peers::discoveryGroup(peers::Protocol::Slp), slp::encode(request));
    return socket;
}

TEST_F(InteropTest, ThreeSimultaneousClientsEveryDirection) {
    // Three clients on distinct hosts ask at once; every one is answered
    // with its own result through its own session.
    constexpr int kClients = 3;
    for (const bridge::models::Direction& direction : bridge::models::directions()) {
        SCOPED_TRACE(direction.slug);
        peers::SimIsland island;
        auto& bridge = island.deploy(direction);
        const bool perQueue = std::string_view(direction.slug) == "slp-to-ldap";
        std::optional<ldap::DirectoryServer> queues;
        if (perQueue) {
            queues.emplace(island.network, ldap::DirectoryServer::Config{});
            for (int i = 0; i < kClients; ++i) {
                const std::string queue = "p" + std::to_string(i);
                queues->addEntry({"cn=" + queue + ",dc=services,dc=local", "service:printer",
                                  kQueueUrl + std::to_string(i), {{"queue", queue}}});
            }
        } else {
            island.service.emplace(island.network, direction);
        }

        std::vector<std::vector<std::vector<std::string>>> answers(kClients);
        std::vector<std::unique_ptr<peers::Client>> clients;
        std::vector<std::shared_ptr<net::UdpSocket>> queueClients;
        for (int i = 0; i < kClients; ++i) {
            const std::string host = "10.0.1." + std::to_string(11 + i);
            auto done = [&answers, i](std::vector<std::string> urls) {
                answers[i].push_back(std::move(urls));
            };
            if (perQueue) {
                queueClients.push_back(askForQueue(island.network, i, host, done));
                continue;
            }
            peers::ClientConfigs configs;
            configs.each([&host](auto& config) { config.host = host; });
            clients.push_back(std::make_unique<peers::Client>(island.network, direction, configs));
            clients.back()->lookup([done](const peers::Client::Result& r) { done(r.urls); });
        }
        island.scheduler.runUntilIdle(200000);

        for (int i = 0; i < kClients; ++i) {
            ASSERT_EQ(answers[i].size(), 1u) << "client " << i;
            ASSERT_EQ(answers[i][0].size(), 1u) << "client " << i;
            EXPECT_EQ(answers[i][0][0],
                      perQueue ? kQueueUrl + std::to_string(i) : island.service->url())
                << "client " << i;
        }
        const engine::SessionHistory& history = bridge.engine().sessions();
        ASSERT_EQ(history.size(), static_cast<std::size_t>(kClients));
        for (const engine::SessionRecord& record : history) EXPECT_TRUE(record.completed);
        // Three distinct conversations, all in flight at once.
        net::TimePoint lastStart{};
        net::TimePoint firstEnd = history[0].lastSend;
        for (const engine::SessionRecord& record : history) {
            lastStart = std::max(lastStart, record.firstReceive);
            firstEnd = std::min(firstEnd, record.lastSend);
        }
        EXPECT_LT(lastStart, firstEnd);
        EXPECT_EQ(bridge.engine().liveSessionCount(), 0u);
    }
}

TEST_F(InteropTest, SessionCapShedsOneOpeningMessage) {
    // kMaxLiveSessions + 1 clients ask at once: all but one are served, and
    // the one past the cap is shed with engine.overload and counted.
    constexpr std::size_t kCap = engine::AutomataEngine::kMaxLiveSessions;
    telemetry::setEnabled(true);
    telemetry::MetricsRegistry metrics;
    engine::EngineOptions options;
    options.metrics = &metrics;
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToBonjour, kBridgeHost),
                                   kBridgeHost, options);
    mdns::Responder::Config slowResponder = fastResponder();
    slowResponder.responseDelayBase = net::ms(200);
    mdns::Responder responder(network, slowResponder);

    std::vector<std::unique_ptr<slp::UserAgent>> clients;
    std::size_t answered = 0;
    std::size_t empty = 0;
    for (std::size_t i = 0; i <= kCap; ++i) {
        slp::UserAgent::Config config;
        config.host = "10.0." + std::to_string(2 + i / 200) + "." + std::to_string(10 + i % 200);
        config.timeout = net::ms(1000);
        clients.push_back(std::make_unique<slp::UserAgent>(network, config));
        clients.back()->lookup("service:printer",
                               [&answered, &empty](const slp::UserAgent::Result& result) {
                                   ++(result.urls.empty() ? empty : answered);
                               });
    }
    run(1000000);
    EXPECT_EQ(answered, kCap);
    EXPECT_EQ(empty, 1u);
    EXPECT_EQ(bridge.engine().sessions().size(), kCap);
    const engine::ColorTraffic* slp =
        bridge.engine().traffic(bridge.engine().merged().components()[0]->color());
    ASSERT_NE(slp, nullptr);
    EXPECT_EQ(slp->dropped[static_cast<std::size_t>(engine::DropReason::SessionCap)], 1u);
    EXPECT_EQ(engine::dropReasonCode(engine::DropReason::SessionCap),
              errc::ErrorCode::EngineOverload);
    EXPECT_EQ(metrics
                  .counter(telemetry::labeled("starlink_engine_datagrams_dropped_total",
                                              {{"bridge", "slp-to-bonjour"},
                                               {"reason", "session-cap"}}))
                  .value(),
              1u);
    telemetry::setEnabled(false);
}

TEST_F(InteropTest, MalformedPeerAbortsSessionNotBridge) {
    // A rogue "device" answers the bridge's M-SEARCH with a syntactically
    // valid SSDP response that lacks the LOCATION the translation logic
    // needs. The conversation must abort cleanly and the bridge must keep
    // serving -- a spec-level failure never kills the connector.
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(2000);
    auto& bridge = starlink.deploy(bridge::models::forCase(Case::SlpToUpnp, kBridgeHost),
                                   kBridgeHost, options);

    auto rogue = network.openUdp("10.0.0.3", ssdp::kPort);
    rogue->joinGroup(net::Address{ssdp::kGroup, ssdp::kPort});
    auto* rogueRaw = rogue.get();
    bool rogueActive = true;
    rogue->onDatagram([rogueRaw, &rogueActive](const Bytes&, const net::Address& from) {
        if (!rogueActive) return;
        // No LOCATION header: passes the bridge's parser (the field is just
        // absent) but starves the set_host action.
        rogueRaw->sendTo(from, toBytes("HTTP/1.1 200 OK\r\nST: urn:x\r\nUSN: uuid:rogue\r\n"
                                       "LOCATION-IS-MISSING: yes\r\n\r\n"));
    });

    slp::UserAgent::Config quick;
    quick.timeout = net::ms(3000);
    slp::UserAgent client(network, quick);
    bool firstFailed = false;
    client.lookup("service:printer", [&firstFailed](const slp::UserAgent::Result& result) {
        firstFailed = result.urls.empty();
    });
    run();
    EXPECT_TRUE(firstFailed);
    ASSERT_GE(bridge.engine().sessions().size(), 1u);
    EXPECT_FALSE(bridge.engine().sessions()[0].completed);

    // A real device appears; the same bridge now succeeds.
    rogueActive = false;
    rogue.reset();
    ssdp::Device device(network, fastDevice());
    std::vector<std::string> urls;
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();
    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], device.config().serviceUrl);
}

TEST_F(InteropTest, LongRunStability) {
    // 200 consecutive conversations: no state leaks between sessions, every
    // queue drained, monotone session accounting.
    auto& bridge = deployCase(Case::SlpToBonjour);
    mdns::Responder responder(network, fastResponder());
    slp::UserAgent client(network, {});

    int successes = 0;
    for (int i = 0; i < 200; ++i) {
        client.lookup("service:printer", [&successes](const slp::UserAgent::Result& result) {
            if (!result.urls.empty()) ++successes;
        });
        run();
    }
    EXPECT_EQ(successes, 200);
    EXPECT_EQ(bridge.engine().sessions().size(), 200u);
    // Every session was handed back to the pool; the automata hold no
    // per-session data to leak.
    EXPECT_EQ(bridge.engine().liveSessionCount(), 0u);
    EXPECT_EQ(bridge.engine().currentState(), "s10");
}

TEST_F(InteropTest, JitteryNetworkStillCompletes) {
    network.latency().base = net::ms(5);
    network.latency().jitter = net::ms(20);
    auto& bridge = deployCase(Case::SlpToUpnp);
    ssdp::Device device(network, fastDevice());
    slp::UserAgent client(network, {});
    std::vector<std::string> urls;
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();
    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], device.config().serviceUrl);
    EXPECT_TRUE(bridge.engine().sessions()[0].completed);
}

// --- the shared testbed (peers::SimIsland) ------------------------------------

using peers::SimIsland;

TEST(SimIslandTest, EveryCaseBindsServiceAndClientAtIslandHosts) {
    for (const Case c : bridge::models::kAllCases) {
        const bridge::models::Direction& direction = bridge::models::direction(c);
        // A partition of either peer host leaves nothing to discover, so the
        // peers bind there and nowhere else.
        for (const char* host : {SimIsland::kClientHost, SimIsland::kServiceHost}) {
            SimIsland island;
            island.deploy(direction);
            island.spawn(direction);
            EXPECT_THROW(island.network.openUdp(
                             SimIsland::kServiceHost,
                             peers::discoveryGroup(peers::serviceProtocol(direction)).port),
                         NetError)
                << direction.name;
            island.network.partitionHost(host);
            EXPECT_EQ(island.runLookups(1), 0) << direction.name << " " << host;
        }
    }
}

TEST(SimIslandTest, ChaosEpisodesTargetEachIslandHost) {
    std::set<std::string> targeted;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SimIsland island;
        island.scheduler.runFor(net::ms(5000));
        island.chaos(seed, 0.1);
        EXPECT_EQ(island.network.latency().lossProbability, 0.1);
        ASSERT_FALSE(island.network.faultSchedule().empty());
        for (const net::FaultEpisode& episode : island.network.faultSchedule().episodes()) {
            EXPECT_GE(episode.start, island.network.now()) << "anchored at the current time";
            targeted.insert(episode.host);
        }
    }
    EXPECT_EQ(targeted, (std::set<std::string>{SimIsland::kClientHost, SimIsland::kServiceHost,
                                               SimIsland::kBridgeHost}));
}

TEST(SimIslandTest, RunLookupsCountsDiscoveries) {
    int results = 0;
    const auto count = [&results](const peers::Client::Result&) { ++results; };

    const bridge::models::Direction& slpToBonjour = bridge::models::direction(Case::SlpToBonjour);
    SimIsland island;
    island.deploy(slpToBonjour);
    island.spawn(slpToBonjour);
    EXPECT_EQ(island.runLookups(3, count), 3);
    EXPECT_EQ(results, 3);

    // No bridge: the SLP client meets no SLP service, so every lookup
    // reports back empty.
    results = 0;
    SimIsland bare;
    bare.spawn(slpToBonjour);
    EXPECT_EQ(bare.runLookups(2, count), 0);
    EXPECT_EQ(results, 2);
}

TEST(SimIslandTest, LdapClientHearsOnceWhenTheBridgeFindsNoService) {
    // ldap-to-slp with no SLP service: the bridge accepts the LDAP search,
    // finds nothing to ask and aborts, closing the connection unanswered.
    // The LDAP client must report that as one failed lookup, not wait.
    const bridge::models::Direction& ldapToSlp = *bridge::models::directionBySlug("ldap-to-slp");
    SimIsland island;
    island.deploy(ldapToSlp);
    island.client.emplace(island.network, ldapToSlp);
    std::vector<peers::Client::Result> results;
    EXPECT_EQ(island.runLookups(1, [&results](const peers::Client::Result& r) {
                  results.push_back(r);
              }),
              0);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].urls.empty());
}

// --- model swap: each session keeps the generation it opened on ------------

const bridge::models::Direction& upnpToSlp() { return bridge::models::direction(Case::UpnpToSlp); }

/// UPnP control points in closed loop on an upnp-to-slp island: control point
/// i starts i seconds in, at host 10.0.0.(11+i), and re-asks as soon as its
/// previous lookup settles, `lookups` times in all.
struct ClosedLoopControlPoints {
    ClosedLoopControlPoints(SimIsland& island, int count, int lookups) : island(island) {
        for (int i = 0; i < count; ++i) {
            peers::ClientConfigs configs;
            configs.upnp.host = "10.0.0." + std::to_string(11 + i);
            clients.push_back(
                std::make_unique<peers::Client>(island.network, upnpToSlp(), configs));
            island.scheduler.schedule(net::ms(1000 * i), [this, i, lookups] { ask(i, lookups); });
        }
    }

    void ask(int i, int remaining) {
        clients[i]->lookup([this, i, remaining](const peers::Client::Result& result) {
            ++settled;
            if (!result.urls.empty()) ++discovered;
            if (remaining == 1) return;
            island.scheduler.schedule(net::ms(0), [this, i, remaining] { ask(i, remaining - 1); });
        });
    }

    SimIsland& island;
    std::vector<std::unique_ptr<peers::Client>> clients;
    int settled = 0;
    int discovered = 0;
};

/// One ended session: its record and the virtual time it ended at.
struct Ended {
    engine::SessionRecord record;
    net::TimePoint at;
};

/// Publishes v2 eight seconds into three closed-loop control points (three
/// lookups each) on a upnp-to-slp island deployed as v1, and returns every
/// ended session. By then control point 2's first session and the other two's
/// second sessions are live.
std::vector<Ended> publishUnderLoad(SimIsland& island, bridge::DeployedBridge& bridge,
                                    const bridge::models::DeploymentSpec& v2,
                                    std::size_t* liveAtPublish,
                                    const std::function<void()>& afterPublish = {}) {
    std::vector<Ended> ended;
    bridge.engine().onSessionComplete = [&ended, &island](const engine::SessionRecord& record) {
        ended.push_back({record, island.network.now()});
    };
    island.service.emplace(island.network, upnpToSlp());
    ClosedLoopControlPoints loop(island, 3, 3);
    island.scheduler.schedule(net::ms(8000), [&] {
        *liveAtPublish = bridge.engine().liveSessionCount();
        bridge.publish(v2, 2);
        if (afterPublish) afterPublish();
    });
    island.scheduler.runUntilIdle(2'000'000);
    bridge.engine().onSessionComplete = nullptr;
    EXPECT_EQ(loop.settled, 9);
    EXPECT_EQ(loop.discovered, 9) << "every lookup discovers across the publish";
    return ended;
}

void expectPinnedToOpeningGeneration(const std::vector<Ended>& ended) {
    const net::TimePoint publishAt{net::ms(8000)};
    const Ended* firstAfter = nullptr;
    std::size_t v1EndedAfter = 0;
    for (const Ended& e : ended) {
        const bool openedBefore = e.record.firstReceive < publishAt;
        EXPECT_EQ(e.record.modelVersion, openedBefore ? 1u : 2u)
            << "a session ends on the generation it opened with";
        if (!openedBefore &&
            (firstAfter == nullptr || e.record.firstReceive < firstAfter->record.firstReceive)) {
            firstAfter = &e;
        }
        if (openedBefore && e.at > publishAt) ++v1EndedAfter;
    }
    ASSERT_NE(firstAfter, nullptr);
    EXPECT_EQ(firstAfter->record.modelVersion, 2u);
    EXPECT_GE(v1EndedAfter, 2u) << "v1 sessions must outlive the publish";
}

void expectNoDrops(const engine::AutomataEngine& engine,
                   const std::vector<std::uint64_t>& colors) {
    for (const std::uint64_t k : colors) {
        const engine::ColorTraffic* traffic = engine.traffic(k);
        ASSERT_NE(traffic, nullptr) << k;
        EXPECT_EQ(traffic->droppedTotal(), 0u) << "color " << k;
    }
}

std::vector<std::uint64_t> colorsOf(const engine::ModelGeneration& generation) {
    std::vector<std::uint64_t> colors;
    for (const auto& component : generation.merged->components()) {
        colors.push_back(component->color());
    }
    return colors;
}

TEST(GenerationPin, PublishMidRunKeepsEverySessionOnItsGeneration) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "starlink-generation-pin").string();
    std::filesystem::remove_all(dir);
    telemetry::PostmortemSpool spool(telemetry::PostmortemSpool::Options{dir, 8});
    engine::EngineOptions options;
    options.recorderSessionBytes = 64 * 1024;
    options.postmortemSpool = &spool;

    const auto v1 = bridge::models::forCase(Case::UpnpToSlp, SimIsland::kBridgeHost);
    auto v2 = v1;
    v2.bridgeXml += "\n<!-- v2: the same bridge under another identity -->\n";
    ASSERT_NE(bridge::models::modelSetIdentity(v1), bridge::models::modelSetIdentity(v2));

    SimIsland island;
    bridge::DeployedBridge& bridge = island.starlink.deploy(v1, SimIsland::kBridgeHost, options, 1);
    const std::vector<std::uint64_t> colors = colorsOf(*bridge.engine().generation());
    // A control point that never fetches the description: its v1 session
    // waits out the 30 s watchdog, long after v2 is published, and aborts.
    auto stray = island.network.openUdp("10.0.0.7", 40000);
    island.scheduler.schedule(net::ms(500), [&stray] {
        ssdp::MSearch search;
        search.st = peers::printerQuery(peers::Protocol::Upnp);
        search.mx = 1;
        stray->sendTo(peers::discoveryGroup(peers::Protocol::Upnp), ssdp::encode(search));
    });
    std::size_t liveAtPublish = 0;
    const std::vector<Ended> ended = publishUnderLoad(island, bridge, v2, &liveAtPublish);

    EXPECT_GE(liveAtPublish, 3u);
    ASSERT_EQ(ended.size(), 10u);
    expectPinnedToOpeningGeneration(ended);
    expectNoDrops(bridge.engine(), colors);
    EXPECT_EQ(colorsOf(*bridge.engine().generation()), colors);

    std::vector<telemetry::PostmortemBundle> bundles;
    for (const std::string& path : spool.files()) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        const std::string text = content.str();
        bundles.push_back(telemetry::decodeBundle(Bytes(text.begin(), text.end())));
    }
    std::filesystem::remove_all(dir);
    ASSERT_EQ(bundles.size(), 1u) << "only the stray session aborts";
    EXPECT_EQ(bundles[0].abortCode, errc::to_error_code(errc::ErrorCode::EngineSessionTimeout));
    EXPECT_EQ(bundles[0].caseSlug, "upnp-to-slp");
    EXPECT_EQ(bundles[0].modelIdentity, bridge::models::modelSetIdentity(v1))
        << "the bundle names the generation its session ran on, not the newest";
}

TEST(GenerationPin, ColorChangeKeepsOldEndpointUntilItsLastSessionEnds) {
    const auto v1 = bridge::models::forCase(Case::UpnpToSlp, SimIsland::kBridgeHost, 8085);
    const auto v2 = bridge::models::forCase(Case::UpnpToSlp, SimIsland::kBridgeHost, 8090);
    SimIsland island;
    bridge::DeployedBridge& bridge = island.starlink.deploy(v1, SimIsland::kBridgeHost, {}, 1);
    const std::vector<std::uint64_t> v1Colors = colorsOf(*bridge.engine().generation());

    std::size_t liveAtPublish = 0;
    std::vector<std::uint64_t> v2Colors;
    const std::vector<Ended> ended =
        publishUnderLoad(island, bridge, v2, &liveAtPublish, [&] {
            v2Colors = colorsOf(*bridge.engine().generation());
            // The live v1 sessions still fetch from 8085; v2's 8090 is bound.
            EXPECT_THROW(island.network.listenTcp(SimIsland::kBridgeHost, 8085), NetError);
            EXPECT_THROW(island.network.listenTcp(SimIsland::kBridgeHost, 8090), NetError);
        });

    EXPECT_GE(liveAtPublish, 3u);
    ASSERT_EQ(ended.size(), 9u);
    expectPinnedToOpeningGeneration(ended);
    expectNoDrops(bridge.engine(), v1Colors);
    expectNoDrops(bridge.engine(), v2Colors);

    // Each session fetched its description over its own generation's port.
    const auto httpColor = [&island](const std::vector<std::uint64_t>& colors) {
        for (const std::uint64_t k : colors) {
            if (island.starlink.colors().lookup(k)->transport() == "tcp") return k;
        }
        return std::uint64_t{0};
    };
    const std::uint64_t http8085 = httpColor(v1Colors);
    const std::uint64_t http8090 = httpColor(v2Colors);
    ASSERT_NE(http8085, http8090);
    std::size_t v1Sessions = 0;
    for (const Ended& e : ended) v1Sessions += e.record.modelVersion == 1 ? 1 : 0;
    EXPECT_EQ(bridge.engine().traffic(http8085)->accepted, v1Sessions);
    EXPECT_EQ(bridge.engine().traffic(http8090)->accepted, ended.size() - v1Sessions);

    // After the last v1 session, 8085 is detached and free; 8090 serves on.
    EXPECT_NO_THROW(island.network.listenTcp(SimIsland::kBridgeHost, 8085));
    EXPECT_THROW(island.network.listenTcp(SimIsland::kBridgeHost, 8090), NetError);
}

}  // namespace
}  // namespace starlink
