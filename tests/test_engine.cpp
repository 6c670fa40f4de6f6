// Unit tests for the Automata Engine and Network Engine over a minimal toy
// protocol pair, exercising engine semantics in isolation from the discovery
// models: state stepping, queue placement, translation application, the
// recorded automaton path, robustness to garbage and misdelivered traffic,
// session stats.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/bridge/starlink.hpp"
#include "sim_fixture.hpp"

namespace starlink::engine {
namespace {

using testing::SimTest;

// Toy wire formats, one byte kind + 16-bit payload.
//   PING (udp multicast 239.9.9.9:901):  kind 1 = Ping, kind 2 = Pong
//   ECHO (udp multicast 239.8.8.8:902):  kind 1 = EchoReq, kind 2 = EchoRep
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

class EngineTest : public SimTest {
protected:
    bridge::Starlink starlink{network};

    bridge::models::DeploymentSpec toySpec() {
        bridge::models::DeploymentSpec spec;
        spec.protocols.push_back({kPingMdl, kPingAutomaton});
        spec.protocols.push_back({kEchoMdl, kEchoAutomaton});
        spec.bridgeXml = kBridgeSpec;
        return spec;
    }

    /// A hand-rolled ECHO legacy service: answers EchoReq with EchoRep
    /// carrying the same number plus one.
    std::unique_ptr<net::UdpSocket> makeEchoService() {
        auto socket = network.openUdp("10.0.0.3", 902);
        socket->joinGroup(net::Address{"239.8.8.8", 902});
        auto* raw = socket.get();
        socket->onDatagram([raw](const Bytes& payload, const net::Address& from) {
            if (payload.size() == 3 && payload[0] == 1) {
                const std::uint16_t num =
                    static_cast<std::uint16_t>(payload[1] << 8 | payload[2]);
                Bytes reply;
                reply.push_back(2);
                appendUint(reply, static_cast<std::uint16_t>(num + 1), 2);
                raw->sendTo(from, reply);
            }
        });
        return socket;
    }
};

TEST_F(EngineTest, EndToEndToyTranslation) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    auto echoService = makeEchoService();

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
    EXPECT_EQ(*pongValue, 42);  // service incremented, bridge carried it back
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    const SessionRecord& session = deployed.engine().sessions()[0];
    EXPECT_TRUE(session.completed);
    EXPECT_EQ(session.messagesIn, 2u);
    EXPECT_EQ(session.messagesOut, 2u);
    EXPECT_TRUE(session.clientReply.has_value());
}

TEST_F(EngineTest, TraceRecordsQueuePlacementAndDeltas) {
    EngineOptions options;
    options.recorderSessionBytes = 64 * 1024;
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    auto echoService = makeEchoService();
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 7));
    run();

    const AutomataEngine& engine = deployed.engine();
    ASSERT_NE(engine.recorder().last(), nullptr);
    std::vector<telemetry::WireEvent> steps;
    std::vector<AbstractMessage> sent;
    for (const telemetry::WireEvent& event :
         telemetry::decodeEvents(engine.recorder().last()->events)) {
        if (event.kind == telemetry::WireEvent::Kind::Transition) steps.push_back(event);
        if (event.kind == telemetry::WireEvent::Kind::Tx) {
            const auto message = engine.codecForColor(event.color)->parse(event.payload);
            ASSERT_TRUE(message);
            sent.push_back(*message);
        }
    }
    ASSERT_EQ(steps.size(), 6u);
    EXPECT_EQ(steps[0].stateTo, "p1");  // receive stored at entered state
    EXPECT_EQ(steps[1].action, telemetry::WireEvent::kActionDelta);
    EXPECT_EQ(steps[1].stateTo, "e0");
    EXPECT_EQ(steps[2].messageType, "EchoReq");
    EXPECT_EQ(steps[3].messageType, "EchoRep");
    EXPECT_EQ(steps[4].action, telemetry::WireEvent::kActionDelta);  // e2 -> p1
    EXPECT_EQ(steps[5].messageType, "Pong");

    // The wire payloads carry the translated values.
    ASSERT_EQ(sent.size(), 2u);
    EXPECT_EQ(sent[0].type(), "EchoReq");
    EXPECT_EQ(sent[0].value("Num")->asInt(), 7);
    EXPECT_EQ(sent[1].type(), "Pong");
    EXPECT_EQ(sent[1].value("Val")->asInt(), 8);

    // The received sequence on the p0 -> p2 path (the paper's => operator).
    std::vector<std::string> received;
    for (const telemetry::WireEvent& step : steps) {
        if (step.action == telemetry::WireEvent::kActionReceive) {
            received.push_back(step.messageType);
        }
    }
    EXPECT_EQ(received, (std::vector<std::string>{"Ping", "EchoRep"}));
}

TEST_F(EngineTest, GarbageBytesAreIgnored) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toBytes("complete garbage"));
    client->sendTo(net::Address{"239.9.9.9", 901}, Bytes{});
    client->sendTo(net::Address{"239.9.9.9", 901}, Bytes{9});  // no rule matches kind 9
    run();
    EXPECT_TRUE(deployed.engine().sessions().empty());
    EXPECT_EQ(deployed.engine().currentState(), "p0");
}

TEST_F(EngineTest, WrongDirectionMessageIgnored) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    // A Pong arrives while the bridge expects a Ping: no transition fires.
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(2, 1));
    run();
    EXPECT_TRUE(deployed.engine().sessions().empty());
    EXPECT_EQ(deployed.engine().currentState(), "p0");
}

TEST_F(EngineTest, MessageForInactiveAutomatonIgnored) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    // An EchoRep arrives while the bridge still sits at p0 (ECHO inactive).
    auto stranger = network.openUdp("10.0.0.5", 902);
    stranger->joinGroup(net::Address{"239.8.8.8", 902});
    stranger->sendTo(net::Address{"239.8.8.8", 902}, toyMessage(2, 5));
    run();
    EXPECT_TRUE(deployed.engine().sessions().empty());
    EXPECT_EQ(deployed.engine().currentState(), "p0");
}

TEST_F(EngineTest, ProcessingDelayIsCharged) {
    engine::EngineOptions options;
    options.processingDelay = net::ms(100);
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    auto echoService = makeEchoService();
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 1));
    run();
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    // Two composes at 100 ms each, plus network latency.
    EXPECT_GE(elapsedMs(deployed.engine().sessions()[0].translationTime()), 200.0);
}

TEST_F(EngineTest, StopSilencesTheBridge) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    auto echoService = makeEchoService();
    deployed.engine().stop();
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 1));
    run();
    EXPECT_TRUE(deployed.engine().sessions().empty());
    EXPECT_FALSE(deployed.engine().running());
}

TEST_F(EngineTest, MissingCodecRejectedAtConstruction) {
    auto spec = toySpec();
    spec.protocols.pop_back();  // drop the ECHO protocol models
    EXPECT_THROW(starlink.deploy(spec, "10.0.0.9"), SpecError);
}

TEST_F(EngineTest, SessionsAreIsolated) {
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9");
    auto echoService = makeEchoService();
    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    std::vector<std::uint16_t> pongs;
    client->onDatagram([&pongs](const Bytes& payload, const net::Address&) {
        if (payload.size() == 3 && payload[0] == 2) {
            pongs.push_back(static_cast<std::uint16_t>(payload[1] << 8 | payload[2]));
        }
    });
    for (std::uint16_t v : {10, 20, 30}) {
        client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, v));
        run();
    }
    // Queues were reset between sessions: each pong reflects its own ping.
    EXPECT_EQ(pongs, (std::vector<std::uint16_t>{11, 21, 31}));
    EXPECT_EQ(deployed.engine().sessions().size(), 3u);
}

// --- network engine edge cases -----------------------------------------------------

TEST_F(EngineTest, NetworkEngineRejectsUnattachedColorOperations) {
    NetworkEngine engine(network, "10.0.0.9");
    EXPECT_THROW(engine.send(12345, toBytes("x")), SpecError);
    EXPECT_THROW(engine.setHost(12345, "10.0.0.1", 80), SpecError);
}

TEST_F(EngineTest, NetworkEngineRejectsPortlessUdpColor) {
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "udp"}};
    EXPECT_THROW(engine.attach(1, color), SpecError);
}

TEST_F(EngineTest, NetworkEngineRejectsUnknownTransport) {
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "carrier-pigeon"},
                          {automata::keys::port, "80"}};
    EXPECT_THROW(engine.attach(1, color), SpecError);
}

TEST_F(EngineTest, NetworkEngineTcpClientWithoutTargetThrows) {
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "tcp"},
                          {automata::keys::port, "80"},
                          {automata::keys::mode, "sync"},
                          {automata::keys::multicast, "no"}};
    engine.attach(7, color, /*serverRole=*/false);
    // No set_host was executed and the color has no static host.
    EXPECT_THROW(engine.send(7, toBytes("GET")), NetError);
}

TEST_F(EngineTest, NetworkEngineTcpServerWithoutConnectionThrows) {
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "tcp"},
                          {automata::keys::port, "8088"},
                          {automata::keys::mode, "sync"},
                          {automata::keys::multicast, "no"}};
    engine.attach(8, color, /*serverRole=*/true);
    EXPECT_THROW(engine.send(8, toBytes("200 OK")), NetError);
}

TEST_F(EngineTest, NetworkEngineUdpStaticUnicastTarget) {
    // A unicast udp color with a static host sends without any prior receive.
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "udp"},
                          {automata::keys::port, "5000"},
                          {automata::keys::multicast, "no"},
                          {automata::keys::host, "10.0.0.2"}};
    engine.attach(9, color);
    auto receiver = network.openUdp("10.0.0.2", 5000);
    Bytes got;
    receiver->onDatagram([&got](const Bytes& payload, const net::Address&) { got = payload; });
    engine.send(9, toBytes("hello"));
    run();
    EXPECT_EQ(toString(got), "hello");
}

TEST_F(EngineTest, SetHostDirectsTcpConnection) {
    NetworkEngine engine(network, "10.0.0.9");
    automata::Color color{{automata::keys::transport, "tcp"},
                          {automata::keys::port, "80"},
                          {automata::keys::mode, "sync"},
                          {automata::keys::multicast, "no"}};
    engine.attach(10, color);
    auto listener = network.listenTcp("10.0.0.2", 9090);
    Bytes got;
    listener->onAccept([&got](std::shared_ptr<net::TcpConnection> connection) {
        connection->onData([&got](const Bytes& payload) { got = payload; });
    });
    engine.setHost(10, "10.0.0.2", 9090);
    engine.send(10, toBytes("GET /"));
    run();
    EXPECT_EQ(toString(got), "GET /");
    // resetSession clears the override: the next send has no target.
    engine.resetSession();
    EXPECT_THROW(engine.send(10, toBytes("x")), NetError);
}

}  // namespace
}  // namespace starlink::engine
