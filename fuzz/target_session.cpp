// Session-stream fuzzing: arbitrary datagrams fired at a live bridge on the
// simulated network -- ALL SIX deployed directions, not just slp-to-upnp.
// This drives the runtime half of the taxonomy -- whatever the engine does
// with hostile traffic, it must
//
//   * keep running (a poisoned session must never take the bridge down),
//   * quiesce (the event queue drains; no runaway retransmit loops), and
//   * account for every session: completed, or aborted with a precise
//     taxonomy code. FailureCause and code must agree, and Unclassified
//     is the escape marker the whole exercise exists to catch.
//
// Input layout (v2):
//   byte 0          direction selector (mod 6 over bridge::models::Case)
//   byte 1          datagram count (1..4)
//   per datagram    1 channel byte: even = udp multicast into the
//                   direction's client-facing group; odd = raw tcp to the
//                   bridge's HTTP description leg (exercises the tcp-server
//                   parse path; on directions without an HTTP listener the
//                   connect is refused, which must also be absorbed),
//                   2-byte big-endian length prefix, then payload bytes
//                   (clamped to what remains).
// Datagrams are injected 50 virtual ms apart from the client host, so
// consecutive datagrams can land inside one session's lifetime as easily as
// across sessions.
#include "fuzz/targets.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "core/bridge/models.hpp"
#include "protocols/peers.hpp"

namespace starlink::fuzz {
namespace {

using bridge::models::Case;

constexpr std::size_t kMaxDatagrams = 4;
constexpr std::size_t kMaxSchedulerEvents = 200'000;

/// The bridge's tcp HTTP description leg (models::forCase default port).
const net::Address kBridgeHttp{peers::SimIsland::kBridgeHost, 8085};

}  // namespace

int fuzzSessionInput(const std::uint8_t* data, std::size_t size) {
    if (size < 2) return 0;
    // Hostile datagrams legitimately produce warn-level engine chatter; at
    // fuzzing rates that log I/O dominates the run, so silence it once.
    [[maybe_unused]] static const bool quiet = [] {
        setLogLevel(LogLevel::Off);
        return true;
    }();
    try {
        peers::SimIsland island;
        net::SimNetwork& network = island.network;
        net::EventScheduler& scheduler = island.scheduler;

        std::size_t offset = 0;
        const bridge::models::Direction& direction =
            bridge::models::direction(static_cast<Case>(data[offset++] % 6));
        const auto& deployed = island.deploy(direction);
        // A legacy service behind the bridge lets valid requests run the
        // COMPLETE translation path; datagrams go where the bridge listens,
        // from a raw socket in place of the legacy client.
        island.service.emplace(network, direction);
        const net::Address group = peers::discoveryGroup(peers::clientProtocol(direction));

        const std::size_t count = 1 + data[offset++] % kMaxDatagrams;
        auto client = network.openUdp(peers::SimIsland::kClientHost, 0);
        for (std::size_t i = 0; i < count && offset < size; ++i) {
            const bool viaTcp = (data[offset++] & 1) != 0;
            std::size_t length = 0;
            if (offset + 2 <= size) {
                length = static_cast<std::size_t>(data[offset]) << 8 | data[offset + 1];
                offset += 2;
            }
            length = std::min(length, size - offset);
            const Bytes payload(data + offset, data + offset + length);
            offset += length;
            const net::Duration at = net::ms(static_cast<std::int64_t>(50 * i));
            if (viaTcp) {
                scheduler.schedule(at, [&network, payload] {
                    network.connectTcp(
                        peers::SimIsland::kClientHost, kBridgeHttp,
                        [payload](std::shared_ptr<net::TcpConnection> connection) {
                            if (!connection) return;  // no HTTP leg: refused, absorbed
                            try {
                                connection->send(payload);
                            } catch (const std::exception&) {
                                // Raced the bridge's session-end close; the
                                // CLIENT failing to send is not a bridge bug.
                            }
                        });
                });
            } else {
                scheduler.schedule(at, [&client, &group, payload] {
                    client->sendTo(group, payload);
                });
            }
        }
        scheduler.runUntilIdle(kMaxSchedulerEvents);

        require(scheduler.pendingEvents() == 0, "the network must quiesce",
                "event queue still busy after " + std::to_string(kMaxSchedulerEvents) +
                    " events -- runaway loop");
        require(deployed.engine().running(), "the engine must survive hostile traffic",
                "engine stopped after fuzzed datagrams");

        const auto& history = deployed.engine().sessions();
        require(history.totalEnded() == history.totalCompleted() + history.totalAborted(),
                "history aggregates must balance",
                "ended != completed + aborted after hostile traffic");
        for (const auto& session : history) {
            const errc::ErrorCode code = session.code;
            if (session.completed) {
                require(code == errc::ErrorCode::Ok && session.cause == engine::FailureCause::None,
                        "completed sessions must carry Ok",
                        "completed session has code " + std::string(errc::to_string(code)));
                continue;
            }
            require(code != errc::ErrorCode::Ok, "aborted sessions must carry an error code",
                    "aborted session recorded Ok");
            require(code != errc::ErrorCode::Unclassified,
                    "aborted sessions must land in the taxonomy",
                    "taxonomy escape: abort recorded common.unclassified");
            require(errc::fromInt(errc::to_error_code(code)).has_value(),
                    "session codes must be registered taxonomy members",
                    "abort code " + std::to_string(errc::to_error_code(code)) +
                        " is not in the catalogue");
            require(errc::layerOf(code) == errc::Layer::Engine ||
                        errc::layerOf(code) == errc::Layer::Net ||
                        errc::layerOf(code) == errc::Layer::Mdl ||
                        errc::layerOf(code) == errc::Layer::Merge ||
                        errc::layerOf(code) == errc::Layer::Bridge,
                    "session aborts must come from runtime layers",
                    std::string("abort code ") + errc::to_string(code) +
                        " is from a non-runtime layer");
        }
    } catch (const std::exception& error) {
        fail("the deployed bridge must absorb hostile traffic without throwing", error.what());
    }
    return 0;
}

}  // namespace starlink::fuzz
