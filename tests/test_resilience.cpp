// Resilience-layer tests: per-state receive deadlines with bounded
// retransmission, the session watchdog, structured failure causes for
// connect-refused / peer-closed / timeout aborts, the declarative
// FaultSchedule, and determinism of chaos runs. The invariant under test
// throughout: a stuck or failed session NEVER wedges the connector -- the
// next client always finds the bridge listening at q0.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "net/sim_network.hpp"
#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "sim_fixture.hpp"

namespace starlink::engine {
namespace {

using testing::SimTest;

// The toy PING/ECHO pair from test_engine.cpp: one byte kind + 16-bit value,
// both udp multicast, so loss/retransmission can be staged precisely.
const char* kPingMdl = R"(<Mdl protocol="PING" kind="binary">
  <Types><Kind>Integer</Kind><Val>Integer</Val></Types>
  <Header type="PING"><Kind>8</Kind></Header>
  <Message type="Ping"><Rule>Kind=1</Rule><Val mandatory="true">16</Val></Message>
  <Message type="Pong"><Rule>Kind=2</Rule><Val mandatory="true">16</Val></Message>
</Mdl>)";

const char* kEchoMdl = R"(<Mdl protocol="ECHO" kind="binary">
  <Types><Kind>Integer</Kind><Num>Integer</Num></Types>
  <Header type="ECHO"><Kind>8</Kind></Header>
  <Message type="EchoReq"><Rule>Kind=1</Rule><Num mandatory="true">16</Num></Message>
  <Message type="EchoRep"><Rule>Kind=2</Rule><Num mandatory="true">16</Num></Message>
</Mdl>)";

const char* kPingAutomaton = R"(<Automaton name="PING">
  <Color transport_protocol="udp" port="901" mode="async" multicast="yes" group="239.9.9.9"/>
  <State id="p0" initial="true"/>
  <State id="p1"/>
  <State id="p2" accepting="true"/>
  <Transition from="p0" action="receive" message="Ping" to="p1"/>
  <Transition from="p1" action="send" message="Pong" to="p2"/>
</Automaton>)";

const char* kEchoAutomaton = R"(<Automaton name="ECHO">
  <Color transport_protocol="udp" port="902" mode="async" multicast="yes" group="239.8.8.8"/>
  <State id="e0" initial="true"/>
  <State id="e1"/>
  <State id="e2" accepting="true"/>
  <Transition from="e0" action="send" message="EchoReq" to="e1"/>
  <Transition from="e1" action="receive" message="EchoRep" to="e2"/>
</Automaton>)";

const char* kBridgeSpec = R"(<Bridge name="ping-to-echo">
  <Start state="p0"/>
  <Accept state="p2"/>
  <Equivalence message="EchoReq" of="Ping"/>
  <Equivalence message="Pong" of="EchoRep"/>
  <TranslationLogic>
    <Assignment>
      <Field state="e0" message="EchoReq" path="Num"/>
      <Field state="p1" message="Ping" path="Val"/>
    </Assignment>
    <Assignment>
      <Field state="p1" message="Pong" path="Val"/>
      <Field state="e2" message="EchoRep" path="Num"/>
    </Assignment>
  </TranslationLogic>
  <DeltaTransition from="p1" to="e0"/>
  <DeltaTransition from="e2" to="p1"/>
</Bridge>)";

Bytes toyMessage(std::uint8_t kind, std::uint16_t value) {
    Bytes out;
    out.push_back(kind);
    appendUint(out, value, 2);
    return out;
}

bridge::models::DeploymentSpec toySpec() {
    bridge::models::DeploymentSpec spec;
    spec.protocols.push_back({kPingMdl, kPingAutomaton});
    spec.protocols.push_back({kEchoMdl, kEchoAutomaton});
    spec.bridgeXml = kBridgeSpec;
    return spec;
}

std::unique_ptr<net::UdpSocket> makeEchoService(net::SimNetwork& network) {
    auto socket = network.openUdp("10.0.0.3", 902);
    socket->joinGroup(net::Address{"239.8.8.8", 902});
    auto* raw = socket.get();
    socket->onDatagram([raw](const Bytes& payload, const net::Address& from) {
        if (payload.size() == 3 && payload[0] == 1) {
            const std::uint16_t num = static_cast<std::uint16_t>(payload[1] << 8 | payload[2]);
            Bytes reply;
            reply.push_back(2);
            appendUint(reply, static_cast<std::uint16_t>(num + 1), 2);
            raw->sendTo(from, reply);
        }
    });
    return socket;
}

class ResilienceTest : public SimTest {
protected:
    bridge::Starlink starlink{network};
};

// --- retransmission ----------------------------------------------------------

TEST_F(ResilienceTest, RetransmissionRecoversFromTotalLossBurst) {
    EngineOptions options;
    options.receiveTimeout = net::ms(150);
    options.maxRetransmits = 3;
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    auto echo = makeEchoService(network);

    // Every datagram touching the echo service is lost for the first 100 ms:
    // the bridge's EchoReq (sent at ~12 ms after the processing delay) dies
    // in this window; the client's Ping (10.0.0.1 -> bridge) is unaffected.
    net::FaultSchedule schedule;
    schedule.lossBurst(net::TimePoint{}, net::ms(100), 1.0, "10.0.0.3");
    network.setFaultSchedule(schedule);

    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    std::optional<std::uint16_t> pongValue;
    client->onDatagram([&pongValue](const Bytes& payload, const net::Address&) {
        if (payload.size() == 3 && payload[0] == 2) {
            pongValue = static_cast<std::uint16_t>(payload[1] << 8 | payload[2]);
        }
    });
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 41));
    run();

    ASSERT_TRUE(pongValue);
    EXPECT_EQ(*pongValue, 42);
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    const SessionRecord& session = deployed.engine().sessions()[0];
    EXPECT_TRUE(session.completed);
    EXPECT_EQ(session.cause, FailureCause::None);
    EXPECT_GE(session.retransmits, 1u);  // the re-sent EchoReq saved the session
    EXPECT_GE(network.datagramsLost(), 1u);
}

TEST_F(ResilienceTest, RetransmitBudgetExhaustionAbortsWithTimeoutCause) {
    EngineOptions options;
    options.receiveTimeout = net::ms(100);
    options.maxRetransmits = 2;
    options.sessionTimeout = net::ms(60000);  // far away: the retry budget aborts first
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    // No echo service exists at all: every EchoReq vanishes unanswered.

    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 5));
    run();

    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    EXPECT_FALSE(deployed.engine().sessions()[0].completed);
    EXPECT_EQ(deployed.engine().sessions()[0].cause, FailureCause::Timeout);
    EXPECT_EQ(deployed.engine().sessions()[0].retransmits, 2u);
    EXPECT_EQ(deployed.engine().currentState(), "p0");  // re-armed at q0

    // The connector survived: the next client (with a service up) succeeds.
    auto echo = makeEchoService(network);
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 6));
    run();
    ASSERT_EQ(deployed.engine().sessions().size(), 2u);
    EXPECT_TRUE(deployed.engine().sessions()[1].completed);
}

// --- session watchdog --------------------------------------------------------

TEST_F(ResilienceTest, WatchdogAbortsStalledSessionAndNextClientSucceeds) {
    EngineOptions options;
    options.sessionTimeout = net::ms(500);
    options.maxRetransmits = 0;  // isolate the watchdog from retransmission
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);

    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 1));
    run();

    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    const SessionRecord& aborted = deployed.engine().sessions()[0];
    EXPECT_FALSE(aborted.completed);
    EXPECT_EQ(aborted.cause, FailureCause::Timeout);
    EXPECT_GE(elapsedMs(aborted.sessionTime()), 0.0);
    EXPECT_EQ(deployed.engine().currentState(), "p0");

    auto echo = makeEchoService(network);
    std::optional<std::uint16_t> pongValue;
    client->onDatagram([&pongValue](const Bytes& payload, const net::Address&) {
        if (payload.size() == 3 && payload[0] == 2) {
            pongValue = static_cast<std::uint16_t>(payload[1] << 8 | payload[2]);
        }
    });
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 7));
    run();
    ASSERT_TRUE(pongValue);
    EXPECT_EQ(*pongValue, 8);
    ASSERT_EQ(deployed.engine().sessions().size(), 2u);
    EXPECT_TRUE(deployed.engine().sessions()[1].completed);
}

// --- tcp fault attribution ---------------------------------------------------

/// An SSDP responder whose LOCATION points wherever the test wants -- the
/// bridge will walk into the trap on its HTTP leg.
std::unique_ptr<net::UdpSocket> makeRogueSsdpResponder(net::SimNetwork& network,
                                                       const std::string& location) {
    auto socket = network.openUdp("10.0.0.3", ssdp::kPort);
    socket->joinGroup(net::Address{ssdp::kGroup, ssdp::kPort});
    auto* raw = socket.get();
    socket->onDatagram([raw, location](const Bytes& payload, const net::Address& from) {
        if (!ssdp::decodeMSearch(payload)) return;
        ssdp::Response response;
        response.st = "urn:schemas-upnp-org:service:printer:1";
        response.usn = "uuid:rogue-0001::" + response.st;
        response.location = location;
        raw->sendTo(from, ssdp::encode(response));
    });
    return socket;
}

TEST_F(ResilienceTest, RefusedTcpConnectAbortsSessionWithCause) {
    auto& deployed = starlink.deploy(
        bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9"), "10.0.0.9");
    // LOCATION points at a port where nothing ever listens.
    auto rogue = makeRogueSsdpResponder(network, "http://10.0.0.3:9999/desc.xml");

    slp::UserAgent::Config uaConfig;
    uaConfig.timeout = net::ms(3000);
    slp::UserAgent client(network, uaConfig);
    std::vector<std::string> urls{"sentinel"};
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();

    EXPECT_TRUE(urls.empty());  // the client saw a clean timeout, not a hang
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    EXPECT_FALSE(deployed.engine().sessions()[0].completed);
    EXPECT_EQ(deployed.engine().sessions()[0].cause, FailureCause::ConnectRefused);
    EXPECT_EQ(network.connectsRefused(), 3u);  // the full bounded retry budget

    // Connector survives: replace the trap with a real device and retry.
    rogue.reset();
    ssdp::Device::Config deviceConfig;
    deviceConfig.responseDelayBase = net::ms(5);
    deviceConfig.responseDelayJitter = net::ms(1);
    ssdp::Device device(network, deviceConfig);
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();
    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], device.config().serviceUrl);
    ASSERT_EQ(deployed.engine().sessions().size(), 2u);
    EXPECT_TRUE(deployed.engine().sessions()[1].completed);
}

TEST_F(ResilienceTest, MidSessionPeerCloseAbortsSessionWithCause) {
    auto& deployed = starlink.deploy(
        bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9"), "10.0.0.9");
    auto rogue = makeRogueSsdpResponder(network, "http://10.0.0.3:9999/desc.xml");
    // A trap http server: accepts the connection, then slams it shut the
    // moment the GET arrives.
    auto trap = network.listenTcp("10.0.0.3", 9999);
    trap->onAccept([](std::shared_ptr<net::TcpConnection> connection) {
        connection->onData([connection](const Bytes&) { connection->close(); });
    });

    slp::UserAgent::Config uaConfig;
    uaConfig.timeout = net::ms(3000);
    slp::UserAgent client(network, uaConfig);
    std::vector<std::string> urls{"sentinel"};
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();

    EXPECT_TRUE(urls.empty());
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    EXPECT_FALSE(deployed.engine().sessions()[0].completed);
    EXPECT_EQ(deployed.engine().sessions()[0].cause, FailureCause::PeerClosed);
    EXPECT_EQ(deployed.engine().currentState(),
              deployed.engine().merged().initialState());
}

// --- drop accounting ---------------------------------------------------------

TEST_F(ResilienceTest, PartitionDropsCountedSeparatelyFromLoss) {
    auto a = network.openUdp("10.0.0.1", 7001);
    auto b = network.openUdp("10.0.0.2", 7002);

    network.latency().lossProbability = 1.0;
    a->sendTo(net::Address{"10.0.0.2", 7002}, toBytes("x"));
    run();
    EXPECT_EQ(network.datagramsLost(), 1u);
    EXPECT_EQ(network.partitionDrops(), 0u);

    network.latency().lossProbability = 0.0;
    network.partitionHost("10.0.0.2");
    a->sendTo(net::Address{"10.0.0.2", 7002}, toBytes("y"));
    run();
    EXPECT_EQ(network.datagramsLost(), 1u);
    EXPECT_EQ(network.partitionDrops(), 1u);
    EXPECT_EQ(network.datagramsDropped(), 2u);  // the combined view

    // A SCHEDULED partition episode counts as a partition drop too.
    network.healHost("10.0.0.2");
    net::FaultSchedule schedule;
    schedule.partition(network.now(), net::ms(50), "10.0.0.2");
    network.setFaultSchedule(schedule);
    a->sendTo(net::Address{"10.0.0.2", 7002}, toBytes("z"));
    run();
    EXPECT_EQ(network.partitionDrops(), 2u);
    EXPECT_EQ(network.datagramsLost(), 1u);
}

TEST_F(ResilienceTest, ConnectBlackholeRefusesAndCounts) {
    auto listener = network.listenTcp("10.0.0.2", 8080);
    net::FaultSchedule schedule;
    schedule.blackhole(network.now(), net::ms(100), "10.0.0.2");
    network.setFaultSchedule(schedule);

    bool resolved = false;
    std::shared_ptr<net::TcpConnection> got;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 8080},
                       [&](std::shared_ptr<net::TcpConnection> connection) {
                           resolved = true;
                           got = std::move(connection);
                       });
    run();
    EXPECT_TRUE(resolved);
    EXPECT_EQ(got, nullptr);
    EXPECT_EQ(network.connectsRefused(), 1u);

    // After the episode expires the same connect succeeds.
    scheduler.schedule(net::ms(200), [&] {
        network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 8080},
                           [&](std::shared_ptr<net::TcpConnection> connection) {
                               got = std::move(connection);
                           });
    });
    run();
    EXPECT_NE(got, nullptr);
    EXPECT_EQ(network.connectsRefused(), 1u);
}

TEST_F(ResilienceTest, LatencySpikeDelaysDelivery) {
    auto a = network.openUdp("10.0.0.1", 7001);
    auto b = network.openUdp("10.0.0.2", 7002);
    net::FaultSchedule schedule;
    schedule.latencySpike(network.now(), net::ms(100), net::ms(75), "10.0.0.2");
    network.setFaultSchedule(schedule);

    std::optional<net::TimePoint> arrived;
    b->onDatagram([&](const Bytes&, const net::Address&) { arrived = network.now(); });
    const net::TimePoint sent = network.now();
    a->sendTo(net::Address{"10.0.0.2", 7002}, toBytes("slow"));
    run();
    ASSERT_TRUE(arrived);
    EXPECT_GE(*arrived - sent, net::ms(75));
}

// --- client-side retransmission knob ----------------------------------------

TEST_F(ResilienceTest, SlpClientRetransmitKnobRecoversLostRequest) {
    slp::ServiceAgent::Config serviceConfig;
    serviceConfig.responseDelayBase = net::ms(5);
    serviceConfig.responseDelayJitter = net::ms(1);
    slp::ServiceAgent service(network, serviceConfig);

    // The first request dies in a burst; the client's periodic re-send lands
    // after the window.
    net::FaultSchedule schedule;
    schedule.lossBurst(net::TimePoint{}, net::ms(150), 1.0, service.config().host);
    network.setFaultSchedule(schedule);

    slp::UserAgent::Config uaConfig;
    uaConfig.retransmitInterval = net::ms(200);
    uaConfig.timeout = net::ms(5000);
    slp::UserAgent client(network, uaConfig);
    std::vector<std::string> urls;
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();
    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], service.config().url);
    EXPECT_GE(network.datagramsLost(), 1u);
}

// --- determinism -------------------------------------------------------------

struct RunSignature {
    std::vector<std::tuple<bool, int, std::size_t, std::size_t, std::size_t>> sessions;
    std::size_t sent = 0;
    std::size_t lost = 0;
    std::size_t partitionDrops = 0;
    std::size_t refused = 0;

    bool operator==(const RunSignature&) const = default;
};

/// One full chaos run from fixed seeds: toy bridge + echo service + a client
/// firing pings on a fixed cadence under a generated fault schedule.
RunSignature chaosRun() {
    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler, /*seed=*/99);
    network.latency().lossProbability = 0.05;
    network.setFaultSchedule(net::FaultSchedule::chaos(
        /*seed=*/7, net::ms(8000), {"10.0.0.1", "10.0.0.3", "10.0.0.9"}));

    bridge::Starlink starlink(network);
    EngineOptions options;
    options.receiveTimeout = net::ms(200);
    options.maxRetransmits = 3;
    options.retransmitJitter = net::ms(50);  // exercise the jittered path too
    options.sessionTimeout = net::ms(2000);
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);

    auto echo = makeEchoService(network);
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    auto* rawClient = client.get();
    for (int i = 0; i < 8; ++i) {
        scheduler.schedule(net::ms(i * 900), [rawClient, i] {
            rawClient->sendTo(net::Address{"239.9.9.9", 901},
                              toyMessage(1, static_cast<std::uint16_t>(100 + i)));
        });
    }
    scheduler.runUntilIdle(200000);

    RunSignature signature;
    for (const SessionRecord& session : deployed.engine().sessions()) {
        signature.sessions.emplace_back(session.completed, static_cast<int>(session.cause),
                                        session.retransmits, session.messagesIn,
                                        session.messagesOut);
    }
    signature.sent = network.datagramsSent();
    signature.lost = network.datagramsLost();
    signature.partitionDrops = network.partitionDrops();
    signature.refused = network.connectsRefused();
    return signature;
}

TEST(ResilienceDeterminism, IdenticalSeedAndScheduleReproduceIdenticalRuns) {
    const RunSignature first = chaosRun();
    const RunSignature second = chaosRun();
    EXPECT_EQ(first, second);
    // The chaos plan actually did something: traffic flowed and some of it
    // was disturbed.
    EXPECT_GT(first.sent, 0u);
    EXPECT_FALSE(first.sessions.empty());
}

TEST(ResilienceDeterminism, ChaosScheduleIsSeedDeterministicAndSeedSensitive) {
    const auto a1 = net::FaultSchedule::chaos(21, net::ms(5000), {"h1", "h2"});
    const auto a2 = net::FaultSchedule::chaos(21, net::ms(5000), {"h1", "h2"});
    const auto b = net::FaultSchedule::chaos(22, net::ms(5000), {"h1", "h2"});
    ASSERT_EQ(a1.episodes().size(), a2.episodes().size());
    for (std::size_t i = 0; i < a1.episodes().size(); ++i) {
        EXPECT_EQ(static_cast<int>(a1.episodes()[i].kind),
                  static_cast<int>(a2.episodes()[i].kind));
        EXPECT_EQ(a1.episodes()[i].start, a2.episodes()[i].start);
        EXPECT_EQ(a1.episodes()[i].length, a2.episodes()[i].length);
        EXPECT_EQ(a1.episodes()[i].host, a2.episodes()[i].host);
    }
    // A different seed yields a different plan (episode makeup or timing).
    bool differs = b.episodes().size() != a1.episodes().size();
    for (std::size_t i = 0; !differs && i < b.episodes().size(); ++i) {
        differs = b.episodes()[i].start != a1.episodes()[i].start ||
                  b.episodes()[i].kind != a1.episodes()[i].kind;
    }
    EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace starlink::engine
