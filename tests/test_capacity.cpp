// Million-session capacity suite (ISSUE 7): the bridge must serve an
// unbounded stream of conversations with BOUNDED residency and graceful
// overload behaviour.
//
//   - SessionHistory is a capped ring whose aggregates (including the
//     taxonomy-coded abort histogram) stay exact across eviction;
//   - a >=100k-session soak proves the history/span/recorder rings hold at
//     capacity while lifetime totals account for every session;
//   - admission control sheds with engine.overload instead of queuing
//     without bound, and the idle watchdog evicts silent sessions with
//     engine.idle-timeout;
//   - the pre-connect tcp backlog is byte-capped (net.backlog-overflow) and
//     the doubling connect backoff saturates instead of left-shifting past
//     the sign bit (the attempts>31 UB regression);
//   - shard runs stay bit-identical 1-vs-8 even with the island LRU cap
//     forcing evictions mid-run (outcomes are island-history-independent).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/sim_network.hpp"
#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/network_engine.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/telemetry/metrics.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "sim_fixture.hpp"

namespace starlink::engine {
namespace {

using testing::SimTest;

// --- SessionHistory ring -----------------------------------------------------

SessionRecord makeRecord(bool completed, errc::ErrorCode code, std::size_t messages) {
    SessionRecord record;
    record.messagesIn = messages;
    record.messagesOut = messages + 1;
    record.retransmits = completed ? 0 : 1;
    record.completed = completed;
    record.cause = completed ? FailureCause::None : FailureCause::Timeout;
    record.code = code;
    return record;
}

TEST(SessionHistoryRing, BoundedWindowWithExactAggregates) {
    SessionHistory history(4);
    for (int i = 0; i < 6; ++i) {
        history.record(makeRecord(true, errc::ErrorCode::Ok, 2));
    }
    for (int i = 0; i < 3; ++i) {
        history.record(makeRecord(false, errc::ErrorCode::EngineRetryExhausted, 1));
    }
    history.record(makeRecord(false, errc::ErrorCode::EngineIdleTimeout, 1));

    // Window: only the newest 4 records remain...
    EXPECT_EQ(history.size(), 4u);
    EXPECT_EQ(history.capacity(), 4u);
    EXPECT_EQ(history.evicted(), 6u);
    EXPECT_FALSE(history.front().completed);
    EXPECT_EQ(history.back().code, errc::ErrorCode::EngineIdleTimeout);

    // ...but the aggregates still account for all 10.
    EXPECT_EQ(history.totalEnded(), 10u);
    EXPECT_EQ(history.totalCompleted(), 6u);
    EXPECT_EQ(history.totalAborted(), 4u);
    EXPECT_EQ(history.totalMessagesIn(), 6u * 2 + 4u * 1);
    EXPECT_EQ(history.totalMessagesOut(), 6u * 3 + 4u * 2);
    EXPECT_EQ(history.totalRetransmits(), 4u);
    const auto& byCode = history.abortsByCode();
    ASSERT_EQ(byCode.size(), 2u);
    EXPECT_EQ(byCode.at(errc::ErrorCode::EngineRetryExhausted), 3u);
    EXPECT_EQ(byCode.at(errc::ErrorCode::EngineIdleTimeout), 1u);
}

TEST(SessionHistoryRing, CapacityZeroKeepsEveryRecord) {
    SessionHistory history(0);
    for (int i = 0; i < 100; ++i) history.record(makeRecord(true, errc::ErrorCode::Ok, 1));
    EXPECT_EQ(history.size(), 100u);
    EXPECT_EQ(history.evicted(), 0u);
}

// --- toy PING/ECHO bridge (same pair as test_engine/test_resilience) ---------

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

class CapacityTest : public SimTest {
protected:
    bridge::Starlink starlink{network};
};

// --- the soak: >=100k sessions, bounded rings, exact aggregates --------------

TEST_F(CapacityTest, HundredThousandSessionSoakKeepsResidencyBounded) {
    constexpr std::size_t kCompleted = 50'000;
    constexpr std::size_t kAborted = 50'000;
    constexpr std::size_t kTotal = kCompleted + kAborted;
    constexpr std::int64_t kSpacingMs = 400;  // > abort path's 12+100+200 ms

    EngineOptions options;
    options.receiveTimeout = net::ms(100);
    options.maxRetransmits = 1;  // an unanswered EchoReq aborts at ~+312 ms
    options.sessionHistoryCapacity = 512;
    options.spanCapacity = 64;
    options.recorderSessionBytes = 4096;
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    const telemetry::FlightRecorder& recorder = deployed.engine().recorder();

    // Phase 1 (first kCompleted pings): the echo service answers, every
    // session completes. Phase 2: the service is torn down mid-run, every
    // session retransmits once into the void and aborts on its drained
    // retransmission budget.
    auto echo = makeEchoService(network);
    scheduler.schedule(net::ms(kSpacingMs * static_cast<std::int64_t>(kCompleted) - 1),
                       [&echo] { echo.reset(); });

    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    for (std::size_t i = 0; i < kTotal; ++i) {
        scheduler.schedule(net::ms(kSpacingMs * static_cast<std::int64_t>(i)),
                           [&client, i] {
                               client->sendTo(net::Address{"239.9.9.9", 901},
                                              toyMessage(1, static_cast<std::uint16_t>(i)));
                           });
    }
    // The recorder's chunk memory after warm-up (the whole completed phase
    // and the first 100 aborting sessions); it must not grow over the rest
    // of the soak.
    std::size_t recorderWarmBytes = 0;
    scheduler.schedule(net::ms(kSpacingMs * static_cast<std::int64_t>(kCompleted + 100)),
                       [&recorder, &recorderWarmBytes] {
                           recorderWarmBytes = recorder.bytesReserved();
                       });
    run(5'000'000);
    ASSERT_EQ(scheduler.pendingEvents(), 0u);

    const SessionHistory& history = deployed.engine().sessions();
    // Residency is bounded: the windows sit exactly at their caps...
    EXPECT_EQ(history.size(), 512u);
    EXPECT_EQ(history.evicted(), kTotal - 512);
    EXPECT_EQ(deployed.engine().spans().size(), 64u);
    EXPECT_EQ(recorder.recent().size(), telemetry::FlightRecorder::kDefaultRingSessions);
    EXPECT_GT(recorderWarmBytes, 0u);
    EXPECT_EQ(recorder.bytesReserved(), recorderWarmBytes);
    // ...while the lifetime aggregates account for every one of the 100k
    // sessions, exactly.
    EXPECT_EQ(history.totalEnded(), kTotal);
    EXPECT_EQ(history.totalCompleted(), kCompleted);
    EXPECT_EQ(history.totalAborted(), kAborted);
    EXPECT_EQ(history.totalRetransmits(), kAborted);
    // Completed sessions move 2 messages each way (Ping+EchoRep in,
    // EchoReq+Pong out); aborted ones receive 1 (Ping) and send 2 (EchoReq
    // plus its one retransmission).
    EXPECT_EQ(history.totalMessagesIn(), kCompleted * 2 + kAborted * 1);
    EXPECT_EQ(history.totalMessagesOut(), kCompleted * 2 + kAborted * 2);
    // The abort histogram survived ~99.5% eviction intact: one code, exact.
    const auto& byCode = history.abortsByCode();
    ASSERT_EQ(byCode.size(), 1u);
    EXPECT_EQ(byCode.begin()->second, kAborted);
    EXPECT_EQ(byCode.begin()->first, errc::ErrorCode::EngineRetryExhausted);
    // Every record still in the window is from the abort phase.
    for (const SessionRecord& record : history) {
        EXPECT_FALSE(record.completed);
        EXPECT_EQ(record.code, errc::ErrorCode::EngineRetryExhausted);
    }
    // The connector survived the soak at its initial state.
    EXPECT_TRUE(deployed.engine().running());
    EXPECT_EQ(deployed.engine().currentState(), "p0");
}

// --- idle watchdog -----------------------------------------------------------

TEST_F(CapacityTest, IdleTimeoutEvictsSilentSessionWithCodedAbort) {
    EngineOptions options;
    options.receiveTimeout = net::ms(0);  // no retransmit timer: pure silence
    options.maxRetransmits = 0;
    options.idleTimeout = net::ms(300);
    options.sessionTimeout = net::ms(60000);  // far away: idle must fire first
    auto& deployed = starlink.deploy(toySpec(), "10.0.0.9", options);
    // No echo service: after the bridge's EchoReq nothing ever moves.

    auto client = network.openUdp("10.0.0.1", 901);
    client->joinGroup(net::Address{"239.9.9.9", 901});
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 9));
    run();

    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    const SessionRecord& aborted = deployed.engine().sessions()[0];
    EXPECT_FALSE(aborted.completed);
    EXPECT_EQ(aborted.cause, FailureCause::Timeout);
    EXPECT_EQ(aborted.code, errc::ErrorCode::EngineIdleTimeout);
    EXPECT_EQ(deployed.engine().sessions().abortsByCode().at(
                  errc::ErrorCode::EngineIdleTimeout),
              1u);
    // Idle fired at first-move + 300 ms, far before the 60 s watchdog.
    EXPECT_LT(elapsedMs(aborted.sessionTime()), 1000.0);
    EXPECT_EQ(deployed.engine().currentState(), "p0");

    // The deadline re-arms on traffic: with the service up, the same bridge
    // completes a session whose total time exceeds idleTimeout.
    auto echo = makeEchoService(network);
    client->sendTo(net::Address{"239.9.9.9", 901}, toyMessage(1, 10));
    run();
    ASSERT_EQ(deployed.engine().sessions().size(), 2u);
    EXPECT_TRUE(deployed.engine().sessions()[1].completed);
}

// --- pre-connect tcp backlog byte cap ----------------------------------------

TEST_F(CapacityTest, PreConnectTcpBacklogShedsPastByteCap) {
    telemetry::setEnabled(true);
    telemetry::MetricsRegistry registry;
    NetworkEngine::Options options;
    options.maxBacklogBytes = 16;
    options.metrics = &registry;
    NetworkEngine engine(network, "10.0.0.9", options);
    automata::Color color{{automata::keys::transport, "tcp"},
                          {automata::keys::port, "80"},
                          {automata::keys::mode, "sync"},
                          {automata::keys::multicast, "no"}};
    engine.attach(1, color);

    auto listener = network.listenTcp("10.0.0.2", 9090);
    std::vector<Bytes> delivered;
    listener->onAccept([&delivered](std::shared_ptr<net::TcpConnection> connection) {
        connection->onData([&delivered](const Bytes& payload) {
            delivered.push_back(payload);
        });
    });
    engine.setHost(1, "10.0.0.2", 9090);

    // First send starts the (asynchronous) connect and queues 10 bytes; the
    // second would put the pre-connect backlog at 20 > 16 and must shed.
    engine.send(1, toBytes("0123456789"));
    try {
        engine.send(1, toBytes("abcdefghij"));
        FAIL() << "backlog overflow did not throw";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetBacklogOverflow);
    }
    run();
    telemetry::setEnabled(false);

    // The queued-in-budget payload still went out once the connect landed.
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(toString(delivered[0]), "0123456789");
    // The shed bytes are accounted.
    const std::string exposition = registry.renderPrometheus();
    EXPECT_NE(exposition.find("starlink_net_backlog_dropped_bytes_total 10"),
              std::string::npos)
        << exposition;
}

// --- connect backoff clamp (attempts > 31 used to left-shift into UB) --------

/// SSDP responder whose LOCATION points at a port nobody listens on, so the
/// bridge's HTTP leg retries its connect to exhaustion.
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

TEST_F(CapacityTest, ConnectBackoffSaturatesForLargeAttemptBudgets) {
    EngineOptions options;
    // 40 attempts means backoff exponents up to 39: without the clamp the
    // delay computation left-shifts past the sign bit (UB); with it the
    // delay saturates at tcpConnectRetryMaxDelay and the budget drains in
    // bounded virtual time.
    options.tcpConnectAttempts = 40;
    options.tcpConnectRetryMaxDelay = net::ms(200);
    auto& deployed = starlink.deploy(
        bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9"), "10.0.0.9",
        options);
    auto rogue = makeRogueSsdpResponder(network, "http://10.0.0.3:9999/desc.xml");

    slp::UserAgent::Config uaConfig;
    uaConfig.timeout = net::ms(3000);
    slp::UserAgent client(network, uaConfig);
    std::vector<std::string> urls{"sentinel"};
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run(500000);

    EXPECT_TRUE(urls.empty());
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    // ConnectRefused -- not Timeout -- proves all 40 attempts fit inside the
    // session watchdog: 50+100+38x200 ms ~ 7.8 s of clamped backoff instead
    // of 2^39 x 50 ms of undefined nonsense.
    EXPECT_FALSE(deployed.engine().sessions()[0].completed);
    EXPECT_EQ(deployed.engine().sessions()[0].cause, FailureCause::ConnectRefused);
    EXPECT_EQ(network.connectsRefused(), 40u);
}

// --- overload shedding at the shard driver -----------------------------------

TEST(CapacityShard, AdmissionControlShedsWithCodedError) {
    telemetry::setEnabled(true);
    ShardEngineOptions options;
    options.shards = 2;
    options.maxPendingPerShard = 4;
    ShardEngine engine(options);

    std::vector<bool> admitted;
    for (int i = 0; i < 24; ++i) {
        SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "overload-" + std::to_string(i);
        admitted.push_back(engine.submit(job));
    }
    const auto& results = engine.run();
    telemetry::setEnabled(false);

    // 2 shards x 4 pending: exactly 8 jobs ran, 16 shed -- and every
    // submission got a result, in submission order.
    ASSERT_EQ(results.size(), 24u);
    std::size_t ran = 0, shed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].job.key, "overload-" + std::to_string(i));
        if (results[i].shed) {
            ++shed;
            EXPECT_FALSE(admitted[i]);
            EXPECT_EQ(results[i].error, errc::ErrorCode::EngineOverload);
            EXPECT_TRUE(results[i].outcomes.empty());
            EXPECT_FALSE(results[i].discovered);
        } else {
            ++ran;
            EXPECT_TRUE(admitted[i]);
            EXPECT_EQ(results[i].error, errc::ErrorCode::Ok);
        }
    }
    EXPECT_EQ(ran, 8u);
    EXPECT_EQ(shed, 16u);

    std::size_t reportedShed = 0;
    for (const auto& report : engine.reports()) {
        EXPECT_LE(report.jobs, 4u);
        reportedShed += report.shed;
    }
    EXPECT_EQ(reportedShed, 16u);

    // The shed counter is exported per shard.
    telemetry::MetricsRegistry merged;
    engine.mergeMetricsInto(merged);
    EXPECT_NE(merged.renderPrometheus().find("starlink_engine_sessions_shed_total"),
              std::string::npos);
}

// --- island LRU cap + determinism --------------------------------------------

std::vector<SessionJob> mixedWorkload(int count) {
    std::vector<SessionJob> jobs;
    jobs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "capacity-" + std::to_string(i);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

ShardEngineOptions cappedChaosOptions(int shards) {
    ShardEngineOptions options;
    options.shards = shards;
    options.chaos = true;
    options.chaosLoss = 0.05;
    options.engine.receiveTimeout = net::ms(7000);
    options.engine.maxRetransmits = 5;
    options.engine.retransmitBackoff = 1.5;
    options.engine.retransmitJitter = net::ms(100);
    options.engine.sessionTimeout = net::ms(30000);
    // The capacity knobs under test: every island pool holds at most two
    // directions (the 6-direction workload forces constant LRU churn) and
    // every engine's history ring is far smaller than its session count.
    options.maxIslandsPerShard = 2;
    options.engine.sessionHistoryCapacity = 8;
    return options;
}

TEST(CapacityShard, CappedChaosRunBitIdenticalAcrossShardCounts) {
    const auto jobs = mixedWorkload(120);

    ShardEngine sharded(cappedChaosOptions(8));
    for (const auto& job : jobs) ASSERT_TRUE(sharded.submit(job));
    const auto& parallel = sharded.run();

    ShardEngine sequential(cappedChaosOptions(1));
    for (const auto& job : jobs) ASSERT_TRUE(sequential.submit(job));
    const auto& serial = sequential.run();

    ASSERT_EQ(parallel.size(), jobs.size());
    ASSERT_EQ(serial.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(parallel[i].job.key, serial[i].job.key);
        EXPECT_EQ(parallel[i].discovered, serial[i].discovered) << parallel[i].job.key;
        ASSERT_EQ(parallel[i].outcomes.size(), serial[i].outcomes.size())
            << parallel[i].job.key;
        for (std::size_t s = 0; s < parallel[i].outcomes.size(); ++s) {
            // operator== covers every field, including the taxonomy code.
            EXPECT_TRUE(parallel[i].outcomes[s] == serial[i].outcomes[s])
                << parallel[i].job.key;
        }
    }

    // The LRU cap actually bit: a single shard cycling through 6 directions
    // with 2 island slots evicts constantly, yet outcomes matched above.
    std::size_t evictedSequential = 0;
    for (const auto& report : sequential.reports()) evictedSequential += report.islandsEvicted;
    EXPECT_GT(evictedSequential, 0u);
    std::size_t evictedParallel = 0;
    for (const auto& report : sharded.reports()) evictedParallel += report.islandsEvicted;
    EXPECT_GT(evictedParallel, 0u);
}

}  // namespace
}  // namespace starlink::engine
