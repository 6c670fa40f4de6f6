// Unit tests for the simulated network substrate: scheduler, UDP (unicast +
// multicast), TCP, latency, partitions, loss.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/net/os_network.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_codec.hpp"
#include "sim_fixture.hpp"

namespace starlink {
namespace {

using testing::SimTest;

class NetTest : public SimTest {};

TEST_F(NetTest, SchedulerRunsInTimeOrder) {
    std::vector<int> order;
    scheduler.schedule(net::ms(20), [&order] { order.push_back(2); });
    scheduler.schedule(net::ms(10), [&order] { order.push_back(1); });
    scheduler.schedule(net::ms(30), [&order] { order.push_back(3); });
    run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(30));
}

TEST_F(NetTest, SchedulerTiesBreakByInsertion) {
    std::vector<int> order;
    scheduler.schedule(net::ms(5), [&order] { order.push_back(1); });
    scheduler.schedule(net::ms(5), [&order] { order.push_back(2); });
    run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(NetTest, SchedulerCancel) {
    bool ran = false;
    const auto id = scheduler.schedule(net::ms(5), [&ran] { ran = true; });
    EXPECT_TRUE(scheduler.cancel(id));
    EXPECT_FALSE(scheduler.cancel(id));  // already gone
    run();
    EXPECT_FALSE(ran);
}

TEST_F(NetTest, SchedulerRunForAdvancesClockEvenWhenIdle) {
    scheduler.runFor(net::ms(100));
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(100));
}

TEST_F(NetTest, EventsScheduledDuringRunExecute) {
    int depth = 0;
    scheduler.schedule(net::ms(1), [this, &depth] {
        depth = 1;
        scheduler.schedule(net::ms(1), [&depth] { depth = 2; });
    });
    run();
    EXPECT_EQ(depth, 2);
}

TEST_F(NetTest, SchedulerCallbackCancelsAnotherPendingEvent) {
    bool victimRan = false;
    bool cancelled = false;
    net::EventId victim = 0;
    scheduler.schedule(net::ms(5), [&] { cancelled = scheduler.cancel(victim); });
    victim = scheduler.schedule(net::ms(5), [&victimRan] { victimRan = true; });
    run();
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(victimRan);
    EXPECT_EQ(scheduler.pendingEvents(), 0u);
}

TEST_F(NetTest, SchedulerKeepsOrderThroughManyCancellations) {
    // Enough cancelled events to trigger the queue's compaction, with slots
    // reused by later events in between.
    std::vector<net::EventId> ids;
    std::vector<int> fired;
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 200; ++i) {
            const int delayMs = (i * 37) % 101;
            ids.push_back(scheduler.schedule(net::ms(delayMs), [&fired, delayMs] {
                fired.push_back(delayMs);
            }));
        }
        for (std::size_t i = ids.size() - 200; i < ids.size(); i += 3) {
            EXPECT_TRUE(scheduler.cancel(ids[i]));
        }
    }
    EXPECT_EQ(scheduler.pendingEvents(), 400u - 2 * 67);
    run();
    EXPECT_EQ(fired.size(), 400u - 2 * 67);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(100));
    for (const net::EventId id : ids) EXPECT_FALSE(scheduler.cancel(id));
}

TEST_F(NetTest, SchedulerPendingEventsCountsOnlyLiveEvents) {
    const auto a = scheduler.schedule(net::ms(1), [] {});
    scheduler.schedule(net::ms(2), [] {});
    const auto c = scheduler.schedule(net::ms(3), [] {});
    EXPECT_EQ(scheduler.pendingEvents(), 3u);
    EXPECT_TRUE(scheduler.cancel(c));  // the latest: its entry stays buried
    EXPECT_EQ(scheduler.pendingEvents(), 2u);
    EXPECT_TRUE(scheduler.cancel(a));  // the earliest
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
    run();
    EXPECT_EQ(scheduler.pendingEvents(), 0u);
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(2));
}

TEST_F(NetTest, SchedulerCancelReturnsFalseForZeroRunOrCancelled) {
    EXPECT_FALSE(scheduler.cancel(0));  // never issued
    const auto ran = scheduler.schedule(net::ms(1), [] {});
    run();
    EXPECT_FALSE(scheduler.cancel(ran));  // already ran
    const auto twice = scheduler.schedule(net::ms(1), [] {});
    EXPECT_NE(twice, 0u);
    EXPECT_TRUE(scheduler.cancel(twice));
    EXPECT_FALSE(scheduler.cancel(twice));  // a second cancel
    EXPECT_FALSE(scheduler.cancel(ran));    // its slot was reused since
}

TEST_F(NetTest, SchedulerRunOneBeforeRunsExactlyOneDueEvent) {
    std::vector<int> order;
    scheduler.schedule(net::ms(10), [&order] { order.push_back(1); });
    scheduler.schedule(net::ms(10), [&order] { order.push_back(2); });
    scheduler.schedule(net::ms(20), [&order] { order.push_back(3); });
    const net::TimePoint limit = clock.now() + net::ms(15);
    EXPECT_TRUE(scheduler.runOneBefore(limit));
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(10));  // the event's time, not the limit
    EXPECT_TRUE(scheduler.runOneBefore(limit));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
}

TEST_F(NetTest, SchedulerRunOneBeforeAdvancesToLimitWhenIdleOrNotDue) {
    EXPECT_FALSE(scheduler.runOneBefore(clock.now() + net::ms(5)));  // idle
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(5));
    bool ran = false;
    scheduler.schedule(net::ms(20), [&ran] { ran = true; });  // due at 25 ms
    EXPECT_FALSE(scheduler.runOneBefore(clock.now() + net::ms(10)));
    EXPECT_FALSE(ran);
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(15));
    EXPECT_EQ(scheduler.pendingEvents(), 1u);
    EXPECT_TRUE(scheduler.runOneBefore(clock.now() + net::ms(10)));
    EXPECT_TRUE(ran);
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(25));
}

TEST_F(NetTest, WarmSchedulerDoesNotAllocate) {
    // Schedule, cancel, schedule and run allocate nothing once the queue has
    // grown. The closures capture one reference, so std::function keeps them
    // inline.
    int ran = 0;
    const auto round = [&] {
        for (int i = 0; i < 16; ++i) {
            const auto id = scheduler.schedule(net::ms(i), [&ran] { ++ran; });
            scheduler.cancel(id);
            scheduler.schedule(net::ms(i), [&ran] { ++ran; });
        }
        run();
    };
    for (int i = 0; i < 4; ++i) round();
    const std::uint64_t before = testing::allocCalls();
    for (int i = 0; i < 64; ++i) round();
    const std::uint64_t allocs = testing::allocCalls() - before;
    EXPECT_EQ(ran, 68 * 16);
    EXPECT_EQ(allocs, 0u);
}

TEST_F(NetTest, UdpUnicastDelivery) {
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    Bytes received;
    net::Address from;
    b->onDatagram([&](const Bytes& payload, const net::Address& sender) {
        received = payload;
        from = sender;
    });
    a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("ping"));
    run();
    EXPECT_EQ(toString(received), "ping");
    EXPECT_EQ(from, (net::Address{"10.0.0.1", 1000}));
}

TEST_F(NetTest, UdpToUnboundPortVanishes) {
    auto a = network.openUdp("10.0.0.1", 1000);
    a->sendTo(net::Address{"10.0.0.2", 9999}, toBytes("x"));
    run();  // nothing to assert beyond "no crash, no delivery"
    EXPECT_EQ(network.datagramsSent(), 1u);
}

TEST_F(NetTest, MulticastReachesMembersNotSender) {
    const net::Address group{"239.255.255.253", 427};
    auto a = network.openUdp("10.0.0.1", 427);
    auto b = network.openUdp("10.0.0.2", 427);
    auto c = network.openUdp("10.0.0.3", 427);
    a->joinGroup(group);
    b->joinGroup(group);
    c->joinGroup(group);
    int aCount = 0;
    int bCount = 0;
    int cCount = 0;
    a->onDatagram([&](const Bytes&, const net::Address&) { ++aCount; });
    b->onDatagram([&](const Bytes&, const net::Address&) { ++bCount; });
    c->onDatagram([&](const Bytes&, const net::Address&) { ++cCount; });
    a->sendTo(group, toBytes("hello"));
    run();
    EXPECT_EQ(aCount, 0);  // no loopback to the sending socket
    EXPECT_EQ(bCount, 1);
    EXPECT_EQ(cCount, 1);
}

TEST_F(NetTest, MulticastRequiresMembership) {
    const net::Address group{"224.0.0.251", 5353};
    auto a = network.openUdp("10.0.0.1", 5353);
    auto b = network.openUdp("10.0.0.2", 5353);  // never joins
    int bCount = 0;
    b->onDatagram([&](const Bytes&, const net::Address&) { ++bCount; });
    a->sendTo(group, toBytes("x"));
    run();
    EXPECT_EQ(bCount, 0);
}

TEST_F(NetTest, LeaveGroupStopsDelivery) {
    const net::Address group{"224.0.0.251", 5353};
    auto a = network.openUdp("10.0.0.1", 5353);
    auto b = network.openUdp("10.0.0.2", 5353);
    b->joinGroup(group);
    b->leaveGroup(group);
    int count = 0;
    b->onDatagram([&](const Bytes&, const net::Address&) { ++count; });
    a->sendTo(group, toBytes("x"));
    run();
    EXPECT_EQ(count, 0);
}

TEST_F(NetTest, JoinNonMulticastAddressThrows) {
    auto a = network.openUdp("10.0.0.1");
    EXPECT_THROW(a->joinGroup(net::Address{"10.0.0.2", 80}), NetError);
}

TEST_F(NetTest, DoubleBindThrows) {
    auto a = network.openUdp("10.0.0.1", 1000);
    EXPECT_THROW(network.openUdp("10.0.0.1", 1000), NetError);
}

TEST_F(NetTest, PortFreedOnSocketDestruction) {
    { auto a = network.openUdp("10.0.0.1", 1000); }
    EXPECT_NO_THROW(network.openUdp("10.0.0.1", 1000));
}

TEST_F(NetTest, EphemeralPortsAreDistinct) {
    auto a = network.openUdp("10.0.0.1");
    auto b = network.openUdp("10.0.0.1");
    EXPECT_NE(a->localAddress().port, b->localAddress().port);
    EXPECT_GE(a->localAddress().port, 49152);
}

TEST_F(NetTest, LatencyDelaysDelivery) {
    network.latency().base = net::ms(10);
    network.latency().jitter = net::ms(0);
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    net::TimePoint arrival{};
    b->onDatagram([&](const Bytes&, const net::Address&) { arrival = network.now(); });
    a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("x"));
    run();
    EXPECT_EQ(arrival.time_since_epoch(), net::ms(10));
}

TEST_F(NetTest, PacketLossDropsEverythingAtProbabilityOne) {
    network.latency().lossProbability = 1.0;
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    int count = 0;
    b->onDatagram([&](const Bytes&, const net::Address&) { ++count; });
    for (int i = 0; i < 10; ++i) a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("x"));
    run();
    EXPECT_EQ(count, 0);
    EXPECT_EQ(network.datagramsDropped(), 10u);
}

TEST_F(NetTest, PartitionBlocksTraffic) {
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    int count = 0;
    b->onDatagram([&](const Bytes&, const net::Address&) { ++count; });
    network.partitionHost("10.0.0.2");
    a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("x"));
    run();
    EXPECT_EQ(count, 0);
    network.healHost("10.0.0.2");
    a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("x"));
    run();
    EXPECT_EQ(count, 1);
}

TEST_F(NetTest, PerLinkLatencyOverride) {
    network.latency().base = net::ms(1);
    network.latency().jitter = net::ms(0);
    net::LatencyModel slow;
    slow.base = net::ms(50);
    slow.jitter = net::ms(0);
    network.setLinkLatency("10.0.0.1", "10.0.0.3", slow);

    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 1000);
    auto c = network.openUdp("10.0.0.3", 1000);
    net::TimePoint bArrival{};
    net::TimePoint cArrival{};
    b->onDatagram([&](const Bytes&, const net::Address&) { bArrival = network.now(); });
    c->onDatagram([&](const Bytes&, const net::Address&) { cArrival = network.now(); });
    a->sendTo(net::Address{"10.0.0.2", 1000}, toBytes("x"));
    a->sendTo(net::Address{"10.0.0.3", 1000}, toBytes("x"));
    run();
    EXPECT_EQ(bArrival.time_since_epoch(), net::ms(1));   // default link
    EXPECT_EQ(cArrival.time_since_epoch(), net::ms(50));  // overridden link

    // Symmetric and clearable.
    net::TimePoint aArrival{};
    a->onDatagram([&](const Bytes&, const net::Address&) { aArrival = network.now(); });
    c->sendTo(net::Address{"10.0.0.1", 1000}, toBytes("y"));
    run();
    EXPECT_EQ((aArrival - cArrival), net::ms(50));
    network.clearLinkLatency("10.0.0.3", "10.0.0.1");
    c->sendTo(net::Address{"10.0.0.1", 1000}, toBytes("z"));
    const auto before = network.now();
    run();
    EXPECT_EQ((aArrival - before), net::ms(1));
}

TEST_F(NetTest, PerLinkLossOverride) {
    network.latency().lossProbability = 0.0;
    net::LatencyModel lossy;
    lossy.lossProbability = 1.0;
    network.setLinkLatency("10.0.0.1", "10.0.0.3", lossy);
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 1000);
    auto c = network.openUdp("10.0.0.3", 1000);
    int bCount = 0;
    int cCount = 0;
    b->onDatagram([&](const Bytes&, const net::Address&) { ++bCount; });
    c->onDatagram([&](const Bytes&, const net::Address&) { ++cCount; });
    for (int i = 0; i < 5; ++i) {
        a->sendTo(net::Address{"10.0.0.2", 1000}, toBytes("x"));
        a->sendTo(net::Address{"10.0.0.3", 1000}, toBytes("x"));
    }
    run();
    EXPECT_EQ(bCount, 5);
    EXPECT_EQ(cCount, 0);
}

TEST_F(NetTest, TcpConnectExchange) {
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::shared_ptr<net::TcpConnection> serverSide;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> connection) {
        serverSide = connection;
        connection->onData([connection](const Bytes& data) {
            connection->send(toBytes("re:" + toString(data)));
        });
    });

    std::string response;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&response](std::shared_ptr<net::TcpConnection> connection) {
                           ASSERT_NE(connection, nullptr);
                           connection->onData([&response](const Bytes& data) {
                               response = toString(data);
                           });
                           connection->send(toBytes("hello"));
                       });
    run();
    EXPECT_EQ(response, "re:hello");
    ASSERT_NE(serverSide, nullptr);
    EXPECT_EQ(serverSide->remoteAddress().host, "10.0.0.1");
}

TEST_F(NetTest, TcpConnectionRefusedWhenNobodyListens) {
    bool called = false;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&called](std::shared_ptr<net::TcpConnection> connection) {
                           called = true;
                           EXPECT_EQ(connection, nullptr);
                       });
    run();
    EXPECT_TRUE(called);
}

TEST_F(NetTest, TcpChunksArriveInOrder) {
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::vector<std::string> chunks;
    std::shared_ptr<net::TcpConnection> serverSide;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> connection) {
        serverSide = connection;
        connection->onData([&chunks](const Bytes& data) { chunks.push_back(toString(data)); });
    });
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [](std::shared_ptr<net::TcpConnection> connection) {
                           connection->send(toBytes("1"));
                           connection->send(toBytes("2"));
                           connection->send(toBytes("3"));
                       });
    run();
    EXPECT_EQ(chunks, (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(NetTest, TcpCloseNotifiesPeer) {
    auto listener = network.listenTcp("10.0.0.2", 80);
    bool serverSawClose = false;
    errc::ErrorCode closeCause = errc::ErrorCode::Ok;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> connection) {
        connection->onClose([&](errc::ErrorCode cause) {
            serverSawClose = true;
            closeCause = cause;
        });
    });
    std::shared_ptr<net::TcpConnection> client;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&client](std::shared_ptr<net::TcpConnection> connection) {
                           client = connection;
                       });
    run();
    ASSERT_NE(client, nullptr);
    client->close();
    run();
    EXPECT_TRUE(serverSawClose);
    EXPECT_EQ(closeCause, errc::ErrorCode::NetPeerClosed);
    EXPECT_THROW(client->send(toBytes("x")), NetError);
}

TEST_F(NetTest, TcpListenerRebindAfterDestruction) {
    { auto listener = network.listenTcp("10.0.0.2", 80); }
    EXPECT_NO_THROW(network.listenTcp("10.0.0.2", 80));
}

TEST_F(NetTest, AddressMulticastClassification) {
    EXPECT_TRUE((net::Address{"224.0.0.251", 1}.isMulticast()));
    EXPECT_TRUE((net::Address{"239.255.255.253", 1}.isMulticast()));
    EXPECT_FALSE((net::Address{"10.0.0.1", 1}.isMulticast()));
    EXPECT_FALSE((net::Address{"240.0.0.1", 1}.isMulticast()));
    EXPECT_FALSE((net::Address{"localhost", 1}.isMulticast()));
}

TEST_F(NetTest, SimConnectRefusalReportsTaxonomyCode) {
    std::optional<errc::ErrorCode> code;
    bool resolved = false;
    network.connectTcp(
        "10.0.0.1", net::Address{"10.0.0.2", 80},
        [&resolved](std::shared_ptr<net::TcpConnection> conn) {
            resolved = true;
            EXPECT_EQ(conn, nullptr);
        },
        [&code](errc::ErrorCode c, const std::string&) { code = c; });
    run();
    EXPECT_TRUE(resolved);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, errc::ErrorCode::NetConnectRefused);
}

TEST_F(NetTest, RunUntilStopsAtPredicateOrDeadline) {
    bool fired = false;
    scheduler.schedule(net::ms(10), [&fired] { fired = true; });
    EXPECT_TRUE(network.runUntil([&fired] { return fired; }, net::ms(50)));
    // A predicate that never holds: the clock advances to the deadline.
    EXPECT_FALSE(network.runUntil([] { return false; }, net::ms(25)));
    EXPECT_EQ(clock.now().time_since_epoch(), net::ms(35));
}

// --- the OS backend's negative paths (no network traffic needed) -------------
//
// These run real socket syscalls against loopback, but only the failure
// paths: every coded net.* error the backend can raise must surface with its
// taxonomy code, never as an unclassified exception (tests/test_errors.cpp
// proves the codes themselves round-trip).

class OsNetTest : public ::testing::Test {};

TEST_F(OsNetTest, BindConflictOnLiteralPortIsCoded) {
    net::OsNetwork network;
    auto first = network.openUdp("127.0.0.1", 0);
    const std::uint16_t taken = first->localAddress().port;
    try {
        auto second = network.openUdp("127.0.0.1", taken);
        FAIL() << "double bind of 127.0.0.1:" << taken << " must throw";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetBindConflict);
    }
}

TEST_F(OsNetTest, BindConflictOnLogicalPortIsCoded) {
    net::OsNetwork network;
    auto first = network.openUdp("10.0.0.1", 427);
    try {
        auto second = network.openUdp("10.0.0.1", 427);
        FAIL() << "double logical bind must throw";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetBindConflict);
    }
    // Cross-process flavour: with a port base, the real port is arithmetic,
    // so a second backend instance sharing the base collides in the kernel.
    const std::uint16_t base = 36100;
    net::OsNetwork::Options options;
    options.portBase = base;
    net::OsNetwork networkA{options};
    net::OsNetwork networkB{options};
    auto held = networkA.openUdp("10.0.0.1", 427);
    try {
        auto clash = networkB.openUdp("10.0.0.2", 427);  // same base + port
        FAIL() << "cross-instance port-base bind must conflict in the kernel";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetBindConflict);
    }
}

TEST_F(OsNetTest, ConnectToClosedPortReportsRefused) {
    net::OsNetwork network;
    // Grab a real port, then close it so nothing listens there.
    std::uint16_t deadPort = 0;
    {
        auto probe = network.listenTcp("127.0.0.1", 0);
        deadPort = probe->localAddress().port;
    }
    std::optional<errc::ErrorCode> code;
    bool resolved = false;
    network.connectTcp(
        "127.0.0.1", net::Address{"127.0.0.1", deadPort},
        [&resolved](std::shared_ptr<net::TcpConnection> conn) {
            resolved = true;
            EXPECT_EQ(conn, nullptr);
        },
        [&code](errc::ErrorCode c, const std::string&) { code = c; });
    network.runUntil([&resolved] { return resolved; }, net::ms(4000));
    ASSERT_TRUE(resolved);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, errc::ErrorCode::NetConnectRefused);
}

TEST_F(OsNetTest, ConnectToUnresolvableLogicalHostReportsRefused) {
    net::OsNetwork network;  // no port base, nothing bound: unresolvable
    std::optional<errc::ErrorCode> code;
    bool resolved = false;
    network.connectTcp(
        "10.0.0.1", net::Address{"10.0.0.3", 515},
        [&resolved](std::shared_ptr<net::TcpConnection>) { resolved = true; },
        [&code](errc::ErrorCode c, const std::string&) { code = c; });
    network.runUntil([&resolved] { return resolved; }, net::ms(1000));
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, errc::ErrorCode::NetConnectRefused);
}

TEST_F(OsNetTest, SocketBudgetExhaustionIsCoded) {
    net::OsNetwork::Options options;
    options.maxOpenSockets = 2;
    net::OsNetwork network{options};
    auto a = network.openUdp("127.0.0.1", 0);
    auto b = network.openUdp("127.0.0.1", 0);
    try {
        auto c = network.openUdp("127.0.0.1", 0);
        FAIL() << "third socket must exceed the budget of 2";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetFdExhausted);
    }
    // The async connect path reports the same code through onError instead
    // of throwing into the engine's send path.
    std::optional<errc::ErrorCode> code;
    bool resolved = false;
    network.connectTcp(
        "127.0.0.1", net::Address{"127.0.0.1", 1},
        [&resolved](std::shared_ptr<net::TcpConnection>) { resolved = true; },
        [&code](errc::ErrorCode c, const std::string&) { code = c; });
    network.runUntil([&resolved] { return resolved; }, net::ms(1000));
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(*code, errc::ErrorCode::NetFdExhausted);
}

TEST_F(OsNetTest, UdpUnicastRoundTripOnLoopback) {
    net::OsNetwork network;
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    Bytes received;
    b->onDatagram([&received](const Bytes& payload, const net::Address&) {
        received = payload;
    });
    a->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("ping"));
    network.runUntil([&received] { return !received.empty(); }, net::ms(2000));
    EXPECT_EQ(toString(received), "ping");
}

TEST_F(OsNetTest, TcpFramingPreservesMessageBoundaries) {
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::vector<std::string> serverChunks;
    std::shared_ptr<net::TcpConnection> serverSide;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> conn) {
        serverSide = conn;
        conn->onData([&serverChunks](const Bytes& chunk) {
            serverChunks.push_back(toString(chunk));
        });
    });
    std::shared_ptr<net::TcpConnection> clientSide;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&clientSide](std::shared_ptr<net::TcpConnection> conn) {
                           clientSide = conn;
                       });
    network.runUntil([&clientSide] { return clientSide != nullptr; }, net::ms(2000));
    ASSERT_NE(clientSide, nullptr);
    // Two back-to-back sends coalesce into one TCP segment on loopback; the
    // frame layer must still deliver exactly two chunks, like the sim.
    clientSide->send(toBytes("alpha"));
    clientSide->send(toBytes("beta"));
    network.runUntil([&serverChunks] { return serverChunks.size() >= 2; }, net::ms(2000));
    EXPECT_EQ(serverChunks, (std::vector<std::string>{"alpha", "beta"}));
}

/// A plain blocking TCP client (no frame layer) connected to a framed
/// listener's real endpoint; -1 on failure. Reads time out after 2 s.
int connectRaw(const net::OsNetwork& network, const std::string& host, std::uint16_t port) {
    const auto endpoint = network.realEndpoint(host, port);
    if (!endpoint) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const timeval timeout{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint->port);
    ::inet_pton(AF_INET, network.options().bindAddress.c_str(), &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool sendRaw(int fd, const Bytes& bytes) {
    return ::send(fd, bytes.data(), bytes.size(), 0) == static_cast<ssize_t>(bytes.size());
}

TEST_F(OsNetTest, TcpFramesSplitAndCoalescedAcrossReads) {
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::vector<std::string> chunks;
    listener->onAccept([&chunks](std::shared_ptr<net::TcpConnection> conn) {
        conn->onData([&chunks](const Bytes& chunk) { chunks.push_back(toString(chunk)); });
    });
    const int fd = connectRaw(network, "10.0.0.2", 80);
    ASSERT_GE(fd, 0);
    // Frame "alpha" split mid-payload, its tail coalesced with frame "beta".
    ASSERT_TRUE(sendRaw(fd, Bytes{0, 0, 0, 5, 'a', 'l'}));
    network.runUntil([] { return false; }, net::ms(50));
    EXPECT_TRUE(chunks.empty());
    ASSERT_TRUE(sendRaw(fd, Bytes{'p', 'h', 'a', 0, 0, 0, 4, 'b', 'e', 't', 'a'}));
    network.runUntil([&chunks] { return chunks.size() >= 2; }, net::ms(2000));
    EXPECT_EQ(chunks, (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(network.framesOversize(), 0u);
    ::close(fd);
}

TEST_F(OsNetTest, OversizeFrameClosesConnectionCoded) {
    // Plain HTTP on a framed port: "GET " reads as a frame length of
    // 1,195,725,856 bytes. The backend closes the connection with
    // net.frame-oversize instead of waiting to buffer a gigabyte.
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::shared_ptr<net::TcpConnection> serverSide;
    bool serverSawClose = false;
    bool serverGotData = false;
    errc::ErrorCode closeCause = errc::ErrorCode::Ok;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> conn) {
        serverSide = conn;
        conn->onData([&serverGotData](const Bytes&) { serverGotData = true; });
        conn->onClose([&](errc::ErrorCode cause) {
            serverSawClose = true;
            closeCause = cause;
        });
    });
    const int fd = connectRaw(network, "10.0.0.2", 80);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, toBytes("GET /desc.xml HTTP/1.1\r\nHost: 10.0.0.2\r\n\r\n")));
    network.runUntil([&serverSawClose] { return serverSawClose; }, net::ms(2000));
    EXPECT_TRUE(serverSawClose);
    EXPECT_FALSE(serverGotData);
    ASSERT_NE(serverSide, nullptr);
    EXPECT_FALSE(serverSide->isOpen());
    EXPECT_EQ(network.framesOversize(), 1u);
    // The cause reaches the close handler, so an engine session records it.
    EXPECT_EQ(closeCause, errc::ErrorCode::NetFrameOversize);
    EXPECT_EQ(errc::to_string(errc::ErrorCode::NetFrameOversize), std::string("net.frame-oversize"));
    // The client sees the close, not a stalled connection.
    char byte = 0;
    const ssize_t got = ::recv(fd, &byte, 1, 0);
    EXPECT_TRUE(got == 0 || (got < 0 && errno == ECONNRESET)) << "recv returned " << got;
    ::close(fd);
}

TEST_F(OsNetTest, OversizeFrameAbortsBridgeSessionCoded) {
    // A plain-HTTP client reaches upnp-to-slp's framed HTTP port while the
    // session waits for the description fetch. The close cause travels with
    // the close, and the session records net.frame-oversize as its abort
    // code instead of a bare peer close.
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        GTEST_SKIP() << "kernel does not deliver multicast on loopback";
    }
    net::OsNetwork network;
    bridge::Starlink starlink{network};
    auto& deployed = starlink.deploy(
        bridge::models::forCase(bridge::models::Case::UpnpToSlp, "10.0.0.9"), "10.0.0.9");
    slp::ServiceAgent::Config service;
    service.responseDelayBase = net::ms(5);
    service.responseDelayJitter = net::ms(1);
    slp::ServiceAgent agent(network, service);

    // The control point's M-SEARCH; its answer means the session now waits
    // on the HTTP leg.
    auto controlPoint = network.openUdp("10.0.0.1");
    bool answered = false;
    controlPoint->onDatagram([&answered](const Bytes&, const net::Address&) { answered = true; });
    ssdp::MSearch search;
    search.st = "urn:schemas-upnp-org:service:printer:1";
    controlPoint->sendTo(net::Address{"10.0.0.9", ssdp::kPort}, ssdp::encode(search));
    network.runUntil([&answered] { return answered; }, net::ms(3000));
    ASSERT_TRUE(answered);

    const int fd = connectRaw(network, "10.0.0.9", 8085);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, toBytes("GET /desc.xml HTTP/1.1\r\nHost: 10.0.0.9\r\n\r\n")));
    const engine::AutomataEngine& engine = deployed.engine();
    network.runUntil([&engine] { return engine.sessions().size() >= 1; }, net::ms(3000));
    ::close(fd);
    ASSERT_EQ(engine.sessions().size(), 1u);
    EXPECT_FALSE(engine.sessions()[0].completed);
    EXPECT_EQ(engine.sessions()[0].code, errc::ErrorCode::NetFrameOversize);
    EXPECT_EQ(network.framesOversize(), 1u);
}

TEST_F(OsNetTest, TcpCloseNotifiesPeerAndSendThrowsCoded) {
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::shared_ptr<net::TcpConnection> serverSide;
    bool serverSawClose = false;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> conn) {
        serverSide = conn;
        conn->onClose([&serverSawClose] { serverSawClose = true; });
    });
    std::shared_ptr<net::TcpConnection> clientSide;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&clientSide](std::shared_ptr<net::TcpConnection> conn) {
                           clientSide = conn;
                       });
    network.runUntil([&serverSide] { return serverSide != nullptr; }, net::ms(2000));
    ASSERT_NE(clientSide, nullptr);
    clientSide->close();
    network.runUntil([&serverSawClose] { return serverSawClose; }, net::ms(2000));
    EXPECT_TRUE(serverSawClose);
    try {
        clientSide->send(toBytes("x"));
        FAIL() << "send on a closed connection must throw";
    } catch (const NetError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::NetClosedSend);
    }
}

TEST_F(OsNetTest, LoopbackMulticastFansOutExceptSender) {
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        GTEST_SKIP() << "kernel does not deliver multicast on loopback";
    }
    net::OsNetwork network;
    const net::Address group{"239.255.255.253", 427};
    auto sender = network.openUdp("10.0.0.1", 0);
    auto memberA = network.openUdp("10.0.0.2", 0);
    auto memberB = network.openUdp("10.0.0.3", 0);
    sender->joinGroup(group);
    memberA->joinGroup(group);
    memberB->joinGroup(group);
    int senderGot = 0;
    int aGot = 0;
    int bGot = 0;
    sender->onDatagram([&senderGot](const Bytes&, const net::Address&) { ++senderGot; });
    memberA->onDatagram([&aGot](const Bytes&, const net::Address&) { ++aGot; });
    memberB->onDatagram([&bGot](const Bytes&, const net::Address&) { ++bGot; });
    sender->sendTo(group, toBytes("hello"));
    network.runUntil([&aGot, &bGot] { return aGot >= 1 && bGot >= 1; }, net::ms(2000));
    EXPECT_EQ(aGot, 1);
    EXPECT_EQ(bGot, 1);
    EXPECT_EQ(senderGot, 0);  // never delivered back to the sender
}


// --- the timer queue over a wall clock ---------------------------------------
//
// A fake clock pins the cases that need two tasks on the same deadline.

TEST_F(OsNetTest, TimerQueueRunsEqualDeadlinesFifo) {
    net::TimePoint now{};
    net::TimerQueue timers([&now] { return now; });
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        timers.schedule(net::ms(i % 2 == 0 ? 5 : 3), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(timers.runDue(), 0u);
    EXPECT_EQ(timers.nextDeadline(), now + net::ms(3));
    now += net::ms(5);
    EXPECT_EQ(timers.runDue(), 6u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 0, 2, 4}));
    EXPECT_FALSE(timers.nextDeadline().has_value());
}

TEST_F(OsNetTest, TimerQueueKeepsOrderThroughManyCancellations) {
    // Enough cancelled entries to trigger the heap's compaction, with slots
    // reused by later timers in between.
    net::TimePoint now{};
    net::TimerQueue timers([&now] { return now; });
    std::vector<net::EventId> ids;
    std::vector<int> fired;
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 200; ++i) {
            const int delayMs = (i * 37) % 101;
            ids.push_back(timers.schedule(net::ms(delayMs), [&fired, delayMs] {
                fired.push_back(delayMs);
            }));
        }
        for (std::size_t i = ids.size() - 200; i < ids.size(); i += 3) {
            EXPECT_TRUE(timers.cancel(ids[i]));
        }
    }
    EXPECT_EQ(timers.pending(), 400u - 2 * 67);
    now += net::ms(100);
    EXPECT_EQ(timers.runDue(), 400u - 2 * 67);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(timers.pending(), 0u);
    for (const net::EventId id : ids) EXPECT_FALSE(timers.cancel(id));
}

TEST_F(OsNetTest, TimerCancelReturnsFalseOnceRunOrCancelled) {
    net::OsNetwork network;
    net::TaskScheduler& timers = network.scheduler();
    int ran = 0;
    const net::EventId once = timers.schedule(net::us(0), [&ran] { ++ran; });
    network.runUntil([&ran] { return ran == 1; }, net::ms(1000));
    ASSERT_EQ(ran, 1);
    EXPECT_FALSE(timers.cancel(once));  // already ran

    const net::EventId later = timers.schedule(net::ms(60'000), [&ran] { ++ran; });
    EXPECT_TRUE(timers.cancel(later));
    EXPECT_FALSE(timers.cancel(later));  // a second cancel
    EXPECT_FALSE(timers.cancel(0));      // never issued
}

TEST_F(OsNetTest, TimerCallbackCancelsAnotherPendingTimer) {
    net::OsNetwork network;
    net::TaskScheduler& timers = network.scheduler();
    bool victimRan = false;
    bool cancelled = false;
    net::EventId victim = 0;
    timers.schedule(net::us(0), [&] { cancelled = timers.cancel(victim); });
    victim = timers.schedule(net::us(0), [&victimRan] { victimRan = true; });
    bool after = false;
    timers.schedule(net::ms(20), [&after] { after = true; });
    network.runUntil([&after] { return after; }, net::ms(1000));
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(victimRan);
}

TEST_F(OsNetTest, ZeroDelayTimerFromCallbackRunsInSamePass) {
    net::TimePoint now{};
    net::TimerQueue timers([&now] { return now; });
    std::vector<std::string> order;
    timers.schedule(net::ms(1), [&] {
        order.push_back("outer");
        timers.schedule(net::us(0), [&order] { order.push_back("inner"); });
    });
    timers.schedule(net::ms(1), [&order] { order.push_back("sibling"); });
    now += net::ms(1);
    EXPECT_EQ(timers.runDue(), 3u);
    EXPECT_EQ(order, (std::vector<std::string>{"outer", "sibling", "inner"}));
}

// --- re-entrant callbacks on real sockets ------------------------------------
//
// Handlers run in place, never copied; each may close, replace or destroy
// what it was called for. These run under ASan/UBSan in CI.

TEST_F(OsNetTest, TcpHandlerClosingOnFirstCoalescedFrameGetsNoSecond) {
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::vector<std::string> frames;
    listener->onAccept([&frames](std::shared_ptr<net::TcpConnection> conn) {
        conn->onData([&frames, conn](const Bytes& frame) {
            frames.push_back(toString(frame));
            conn->close();
        });
    });
    const int fd = connectRaw(network, "10.0.0.2", 80);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, Bytes{0, 0, 0, 3, 'o', 'n', 'e', 0, 0, 0, 3, 't', 'w', 'o'}));
    network.runUntil([&frames] { return !frames.empty(); }, net::ms(2000));
    network.runUntil([] { return false; }, net::ms(50));
    EXPECT_EQ(frames, (std::vector<std::string>{"one"}));
    ::close(fd);
}

TEST_F(OsNetTest, TcpHandlerReplacingItselfGetsNextFrameInNewHandler) {
    net::OsNetwork network;
    auto listener = network.listenTcp("10.0.0.2", 80);
    std::vector<std::string> frames;
    listener->onAccept([&frames](std::shared_ptr<net::TcpConnection> conn) {
        const std::string tag = "first:";  // a capture the old handler reads after replacing
        conn->onData([&frames, tag, raw = conn.get()](const Bytes& frame) {
            raw->onData([&frames](const Bytes& next) {
                frames.push_back("second:" + toString(next));
            });
            frames.push_back(tag + toString(frame));
        });
    });
    const int fd = connectRaw(network, "10.0.0.2", 80);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, Bytes{0, 0, 0, 1, 'a', 0, 0, 0, 1, 'b'}));
    network.runUntil([&frames] { return frames.size() >= 2; }, net::ms(2000));
    ASSERT_TRUE(sendRaw(fd, Bytes{0, 0, 0, 1, 'c'}));
    network.runUntil([&frames] { return frames.size() >= 3; }, net::ms(2000));
    EXPECT_EQ(frames, (std::vector<std::string>{"first:a", "second:b", "second:c"}));
    ::close(fd);
}

TEST_F(OsNetTest, UdpSocketDestroyedInsideItsOwnHandler) {
    net::OsNetwork network;
    auto sender = network.openUdp("10.0.0.1", 1000);
    std::unique_ptr<net::UdpSocket> receiver = network.openUdp("10.0.0.2", 2000);
    int got = 0;
    receiver->onDatagram([&got, &receiver](const Bytes&, const net::Address&) {
        ++got;
        receiver.reset();
    });
    const net::Address to{"10.0.0.2", 2000};
    sender->sendTo(to, toBytes("one"));
    sender->sendTo(to, toBytes("two"));  // queued behind the first
    network.runUntil([&got] { return got > 0; }, net::ms(2000));
    network.runUntil([] { return false; }, net::ms(50));
    EXPECT_EQ(got, 1);
    EXPECT_EQ(receiver, nullptr);
    // The logical port is free again.
    EXPECT_NO_THROW(receiver = network.openUdp("10.0.0.2", 2000));
}

TEST_F(OsNetTest, MulticastMemberLeavingOrClosingDuringFanOut) {
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        GTEST_SKIP() << "kernel does not deliver multicast on loopback";
    }
    net::OsNetwork network;
    const net::Address group{"239.255.255.253", 427};
    auto sender = network.openUdp("10.0.0.1", 0);
    auto first = network.openUdp("10.0.0.2", 0);
    auto leaver = network.openUdp("10.0.0.3", 0);
    auto closer = network.openUdp("10.0.0.4", 0);
    first->joinGroup(group);
    leaver->joinGroup(group);
    closer->joinGroup(group);
    int firstGot = 0;
    int leaverGot = 0;
    int closerGot = 0;
    // The first member in fan-out order makes the others leave or close.
    first->onDatagram([&](const Bytes&, const net::Address&) {
        if (++firstGot == 1) {
            leaver->leaveGroup(group);
            closer.reset();
        }
    });
    leaver->onDatagram([&leaverGot](const Bytes&, const net::Address&) { ++leaverGot; });
    closer->onDatagram([&closerGot](const Bytes&, const net::Address&) { ++closerGot; });
    sender->sendTo(group, toBytes("one"));
    sender->sendTo(group, toBytes("two"));
    network.runUntil([&firstGot] { return firstGot >= 2; }, net::ms(2000));
    network.runUntil([] { return false; }, net::ms(50));
    EXPECT_EQ(firstGot, 2);
    // Recipients are the members when the datagram arrived, as the sim fixes
    // them at send time: the leaver still gets the one in flight, the closed
    // socket gets nothing, and neither gets the next one.
    EXPECT_EQ(leaverGot, 1);
    EXPECT_EQ(closerGot, 0);
}

TEST_F(OsNetTest, FdNumberReusedWithinOneDispatchSkipsStaleEvent) {
    // Two sockets readable in the same epoll batch. Whichever handler runs
    // first closes the other and opens a fresh socket, which the kernel gives
    // the freed fd number, and sends it a datagram. The closed socket's
    // event, still in the batch, must not read the fresh socket: its datagram
    // arrives through its own registration, in the next poll.
    net::OsNetwork network;
    auto sender = network.openUdp("10.0.0.1", 1000);
    std::unique_ptr<net::UdpSocket> sockets[2] = {network.openUdp("10.0.0.2", 2000),
                                                  network.openUdp("10.0.0.3", 3000)};
    const net::Address freshAddress{"10.0.0.5", 5000};
    std::unique_ptr<net::UdpSocket> fresh;
    int handled = 0;
    int freshGot = 0;
    for (int i = 0; i < 2; ++i) {
        sockets[i]->onDatagram([&, other = 1 - i](const Bytes&, const net::Address&) {
            ++handled;
            sockets[other].reset();
            fresh = network.openUdp(freshAddress.host, freshAddress.port);
            fresh->onDatagram([&freshGot](const Bytes&, const net::Address&) { ++freshGot; });
            sender->sendTo(freshAddress, toBytes("c"));
        });
    }
    sender->sendTo(net::Address{"10.0.0.2", 2000}, toBytes("a"));
    sender->sendTo(net::Address{"10.0.0.3", 3000}, toBytes("b"));
    ::usleep(20'000);  // both queued before the first epoll_wait
    network.poll(net::ms(1000));
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(freshGot, 0);
    network.runUntil([&freshGot] { return freshGot > 0; }, net::ms(2000));
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(freshGot, 1);
}

TEST_F(OsNetTest, WarmDeliveryAndTimersDoNotAllocate) {
    // One warm datagram delivery, framed TCP frame delivery and timer
    // schedule+fire allocate nothing. The handlers capture one reference, so
    // std::function keeps them inline.
    net::OsNetwork network;
    auto a = network.openUdp("10.0.0.1", 1000);
    auto b = network.openUdp("10.0.0.2", 2000);
    auto listener = network.listenTcp("10.0.0.2", 80);
    struct Tally {
        int datagrams = 0;
        int frames = 0;
        int timers = 0;
        int target = 0;
        bool done() const { return datagrams == target && frames == target && timers == target; }
    } tally;
    std::shared_ptr<net::TcpConnection> serverSide;
    listener->onAccept([&](std::shared_ptr<net::TcpConnection> conn) {
        serverSide = conn;
        conn->onData([&tally](const Bytes&) { ++tally.frames; });
    });
    std::shared_ptr<net::TcpConnection> client;
    network.connectTcp("10.0.0.1", net::Address{"10.0.0.2", 80},
                       [&client](std::shared_ptr<net::TcpConnection> conn) { client = conn; });
    network.runUntil([&] { return client != nullptr && serverSide != nullptr; }, net::ms(2000));
    ASSERT_NE(client, nullptr);
    b->onDatagram([&tally](const Bytes&, const net::Address&) { ++tally.datagrams; });
    const net::Address to{"10.0.0.2", 2000};
    const Bytes payload = toBytes("a payload of some length");
    const auto round = [&] {
        ++tally.target;
        a->sendTo(to, payload);
        client->send(payload);
        network.scheduler().schedule(net::us(0), [&tally] { ++tally.timers; });
        return network.runUntil([&tally] { return tally.done(); }, net::ms(2000));
    };
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(round());
    const std::uint64_t before = testing::allocCalls();
    bool delivered = true;
    for (int i = 0; i < 64; ++i) delivered = round() && delivered;
    const std::uint64_t allocs = testing::allocCalls() - before;
    EXPECT_TRUE(delivered);
    EXPECT_EQ(tally.target, 72);
    EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace starlink
