// Backend-parametrized conformance suite: the six-direction interop matrix
// of test_integration.cpp, executed on BOTH transport backends through the
// net::Network interface alone, asserting the backends are observationally
// equivalent -- same lookup outcome, same session completion, same abort
// codes, same per-direction message tallies (docs/TRANSPORT.md).
//
// The sim rows run on virtual time; the OS rows run on real loopback sockets
// (kernel-assigned ports, so parallel ctest invocations never collide). OS
// rows are skipped -- not failed -- in sandboxes whose kernel does not
// deliver multicast on the loopback interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/net/os_network.hpp"
#include "net/sim_network.hpp"
#include "protocols/peers.hpp"

namespace starlink {
namespace {

using bridge::models::Case;

constexpr const char* kBridgeHost = "10.0.0.9";
const net::Duration kSessionBudget = net::ms(15000);

/// Everything a direction's run exposes to equivalence assertions.
struct Outcome {
    std::string backend;
    bool success = false;
    std::string url;
    std::size_t sessions = 0;
    bool completed = false;
    engine::FailureCause cause = engine::FailureCause::None;
    errc::ErrorCode code = errc::ErrorCode::Ok;
    std::size_t messagesIn = 0;
    std::size_t messagesOut = 0;
};

/// Fast agent configs (mirroring test_integration.cpp): latency realism is
/// the benches' business; conformance only compares behaviour, and the OS
/// rows pay these delays in real wall-clock time.
peers::ServiceConfigs fastServices() {
    peers::ServiceConfigs configs;
    configs.each([](auto& config) {
        config.responseDelayBase = net::ms(5);
        config.responseDelayJitter = net::ms(1);
    });
    return configs;
}
peers::ClientConfigs fastClients() {
    peers::ClientConfigs configs;
    configs.slp.timeout = net::ms(2000);
    configs.upnp.mxWindowBase = net::ms(30);
    configs.upnp.mxWindowJitter = net::ms(3);
    configs.bonjour.aggregationBase = net::ms(20);
    configs.bonjour.aggregationJitter = net::ms(2);
    return configs;
}

/// Runs one bridged conversation of `direction` on `net` and captures the
/// outcome. `withService` false leaves the legacy service side empty (the
/// abort-equivalence rows). Everything here goes through net::Network --
/// this function cannot tell which backend it is driving.
Outcome runDirection(net::Network& net, Case c, bool withService = true,
                     engine::EngineOptions options = {}) {
    Outcome outcome;
    outcome.backend = net.backendName();

    const bridge::models::Direction& direction = bridge::models::direction(c);
    bridge::Starlink starlink{net};
    auto& deployed = starlink.deploy(bridge::models::forDirection(direction, kBridgeHost),
                                     kBridgeHost, options);

    // The legacy service for the far side of the bridge.
    std::optional<peers::Service> service;
    if (withService) service.emplace(net, direction, fastServices());

    // The legacy client on the near side.
    bool settled = false;
    std::vector<std::string> urls;
    peers::Client client(net, direction, fastClients());
    client.lookup([&settled, &urls](const peers::Client::Result& r) {
        urls = r.urls;
        settled = true;
    });

    // Drive until the client settled AND the bridge recorded a terminal
    // session (post-reply legs, e.g. the UPnP description fetch, may still
    // be in flight when the client callback fires).
    auto& engine = deployed.engine();
    net.runUntil(
        [&settled, &engine] { return settled && engine.sessions().size() >= 1; },
        kSessionBudget);

    outcome.success = !urls.empty();
    if (!urls.empty()) outcome.url = urls[0];
    outcome.sessions = engine.sessions().size();
    if (outcome.sessions > 0) {
        const auto& record = engine.sessions()[0];
        outcome.completed = record.completed;
        outcome.cause = record.cause;
        outcome.code = record.code;
        outcome.messagesIn = record.messagesIn;
        outcome.messagesOut = record.messagesOut;
    }
    if (service) {
        EXPECT_EQ(outcome.url, service->url())
            << net.backendName() << " resolved the wrong service url";
    }
    return outcome;
}

/// Runs a direction on both backends and asserts observational equivalence.
void expectEquivalent(Case direction, bool withService = true,
                      engine::EngineOptions options = {}) {
    // Sim row: virtual time.
    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork simNetwork{scheduler};
    const Outcome sim = runDirection(simNetwork, direction, withService, options);

    // OS row: real loopback sockets, kernel-assigned ports.
    net::OsNetwork osNetwork;
    const Outcome os = runDirection(osNetwork, direction, withService, options);

    EXPECT_EQ(sim.success, os.success) << "lookup outcome diverged";
    EXPECT_EQ(sim.url, os.url) << "resolved url diverged";
    EXPECT_EQ(sim.sessions, os.sessions) << "session count diverged";
    EXPECT_EQ(sim.completed, os.completed) << "session completion diverged";
    EXPECT_EQ(failureCauseName(sim.cause), failureCauseName(os.cause))
        << "abort cause diverged";
    EXPECT_EQ(errc::to_string(sim.code), errc::to_string(os.code))
        << "abort taxonomy code diverged";
    EXPECT_EQ(sim.messagesIn, os.messagesIn) << "inbound message tally diverged";
    EXPECT_EQ(sim.messagesOut, os.messagesOut) << "outbound message tally diverged";
}

class TransportConformance : public ::testing::Test {
protected:
    void SetUp() override {
        if (!net::OsNetwork::loopbackMulticastUsable()) {
            GTEST_SKIP() << "kernel does not deliver multicast on loopback; "
                            "OS-backend rows cannot run here";
        }
    }
};

// --- the six-direction matrix, both backends --------------------------------

TEST_F(TransportConformance, SlpClientToUpnpDevice) { expectEquivalent(Case::SlpToUpnp); }

TEST_F(TransportConformance, SlpClientToBonjourService) {
    expectEquivalent(Case::SlpToBonjour);
}

TEST_F(TransportConformance, UpnpControlPointToSlpService) {
    expectEquivalent(Case::UpnpToSlp);
}

TEST_F(TransportConformance, UpnpControlPointToBonjourService) {
    expectEquivalent(Case::UpnpToBonjour);
}

TEST_F(TransportConformance, BonjourBrowserToUpnpDevice) {
    expectEquivalent(Case::BonjourToUpnp);
}

TEST_F(TransportConformance, BonjourBrowserToSlpService) {
    expectEquivalent(Case::BonjourToSlp);
}

// --- abort equivalence -------------------------------------------------------

TEST_F(TransportConformance, MissingServiceAbortsIdenticallyCoded) {
    // No Bonjour responder behind the bridge: the session must abort with
    // the same cause and taxonomy code on both backends (message tallies are
    // retransmission-timing-sensitive on an aborting session, so outcome
    // equivalence here is cause + code, not counts).
    engine::EngineOptions options;
    options.sessionTimeout = net::ms(700);

    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork simNetwork{scheduler};
    const Outcome sim =
        runDirection(simNetwork, Case::SlpToBonjour, /*withService=*/false, options);

    net::OsNetwork osNetwork;
    const Outcome os =
        runDirection(osNetwork, Case::SlpToBonjour, /*withService=*/false, options);

    for (const Outcome& outcome : {sim, os}) {
        EXPECT_FALSE(outcome.success) << outcome.backend;
        EXPECT_EQ(outcome.sessions, 1u) << outcome.backend;
        EXPECT_FALSE(outcome.completed) << outcome.backend;
    }
    EXPECT_EQ(failureCauseName(sim.cause), failureCauseName(os.cause));
    EXPECT_EQ(errc::to_string(sim.code), errc::to_string(os.code));
    EXPECT_NE(sim.code, errc::ErrorCode::Unclassified);
    EXPECT_NE(os.code, errc::ErrorCode::Unclassified);
}

// --- sustained equivalence ---------------------------------------------------

TEST_F(TransportConformance, ConsecutiveSessionTalliesMatch) {
    constexpr int kRounds = 5;

    const auto runRounds = [](net::Network& net) {
        bridge::Starlink starlink{net};
        auto& deployed = starlink.deploy(
            bridge::models::forCase(Case::SlpToUpnp, kBridgeHost), kBridgeHost);
        ssdp::Device device(net, fastServices().upnp);
        slp::UserAgent client(net, {});

        std::vector<std::pair<std::size_t, std::size_t>> tallies;
        for (int round = 0; round < kRounds; ++round) {
            bool settled = false;
            client.lookup("service:printer",
                          [&settled](const slp::UserAgent::Result&) { settled = true; });
            auto& engine = deployed.engine();
            const std::size_t want = static_cast<std::size_t>(round) + 1;
            net.runUntil(
                [&settled, &engine, want] {
                    return settled && engine.sessions().size() >= want;
                },
                kSessionBudget);
        }
        std::vector<std::pair<std::size_t, std::size_t>> result;
        for (const auto& record : deployed.engine().sessions()) {
            EXPECT_TRUE(record.completed) << net.backendName();
            result.emplace_back(record.messagesIn, record.messagesOut);
        }
        return result;
    };

    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork simNetwork{scheduler};
    const auto sim = runRounds(simNetwork);

    net::OsNetwork osNetwork;
    const auto os = runRounds(osNetwork);

    ASSERT_EQ(sim.size(), static_cast<std::size_t>(kRounds));
    ASSERT_EQ(os.size(), sim.size());
    EXPECT_EQ(sim, os) << "per-session message tallies diverged across backends";
}

// --- overlapping clients -----------------------------------------------------

TEST_F(TransportConformance, OverlappingSlpClientsAllServed) {
    // Three SLP user agents ask at once through slp-to-upnp. Each session
    // multicasts its M-SEARCH from its own socket, so the device's unicast
    // responses find their way back to the right session on both backends.
    constexpr int kClients = 3;
    const auto runOverlapping = [](net::Network& net) {
        bridge::Starlink starlink{net};
        auto& deployed = starlink.deploy(
            bridge::models::forCase(Case::SlpToUpnp, kBridgeHost), kBridgeHost);
        ssdp::Device::Config slowDevice = fastServices().upnp;
        slowDevice.responseDelayBase = net::ms(100);  // keeps the sessions overlapping
        ssdp::Device device(net, slowDevice);

        std::vector<std::unique_ptr<slp::UserAgent>> clients;
        std::vector<std::string> urls(kClients);
        int settled = 0;
        for (int i = 0; i < kClients; ++i) {
            slp::UserAgent::Config config;
            config.host = "10.0.0." + std::to_string(11 + i);
            config.timeout = net::ms(5000);
            clients.push_back(std::make_unique<slp::UserAgent>(net, config));
            clients.back()->lookup("service:printer",
                                   [&urls, &settled, i](const slp::UserAgent::Result& r) {
                                       if (!r.urls.empty()) urls[i] = r.urls[0];
                                       ++settled;
                                   });
        }
        auto& engine = deployed.engine();
        net.runUntil(
            [&settled, &engine] {
                return settled == kClients &&
                       engine.sessions().size() >= static_cast<std::size_t>(kClients);
            },
            kSessionBudget);
        for (int i = 0; i < kClients; ++i) {
            EXPECT_EQ(urls[i], device.config().serviceUrl)
                << net.backendName() << " client " << i;
        }
        EXPECT_EQ(engine.sessions().size(), static_cast<std::size_t>(kClients))
            << net.backendName();
        net::TimePoint lastStart{};
        net::TimePoint firstEnd = net::TimePoint::max();
        for (const auto& record : engine.sessions()) {
            EXPECT_TRUE(record.completed) << net.backendName();
            lastStart = std::max(lastStart, record.firstReceive);
            firstEnd = std::min(firstEnd, record.lastSend);
        }
        EXPECT_LT(lastStart, firstEnd) << net.backendName() << ": sessions did not overlap";
        // Healthy overlapping traffic drops nothing: no reply strays into
        // another session, and no session's multicast query loops back into
        // the bridge.
        for (const auto& component : engine.merged().components()) {
            const engine::ColorTraffic* traffic = engine.traffic(component->color());
            ASSERT_NE(traffic, nullptr);
            EXPECT_EQ(traffic->droppedTotal(), 0u) << net.backendName() << " "
                                                    << component->name();
        }
    };

    net::VirtualClock clock;
    net::EventScheduler scheduler{clock};
    net::SimNetwork simNetwork{scheduler};
    runOverlapping(simNetwork);

    net::OsNetwork osNetwork;
    runOverlapping(osNetwork);
}

}  // namespace
}  // namespace starlink
