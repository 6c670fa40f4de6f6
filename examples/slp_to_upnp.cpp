// The paper's flagship example (Figs 4-5): an SLP client discovers a UPnP
// device through a WEAKLY merged three-protocol automaton -- SLP, SSDP and
// HTTP chained by delta-transitions, including the set_host lambda action
// that points the HTTP leg at the LOCATION announced over SSDP.
#include <iostream>

#include "net/sim_network.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/merge/merged_automaton.hpp"
#include "core/telemetry/recorder.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"

int main() {
    using namespace starlink;

    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler);

    // The legacy UPnP device: SSDP announcer + HTTP description server.
    ssdp::Device device(network, {});
    std::cout << "UPnP device at " << device.config().host << ", description at "
              << device.location() << "\n";

    // The legacy SLP client.
    slp::UserAgent slpClient(network, {});

    // Deploy the three-protocol bridge.
    bridge::Starlink starlink(network);
    const auto models = bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9");
    // The flight recorder keeps the session's automaton walk for the
    // walkthrough printed at the end.
    engine::EngineOptions options;
    options.recorderSessionBytes = 64 * 1024;
    auto& deployed = starlink.deploy(models, "10.0.0.9", options);

    const auto& merged = deployed.engine().merged();
    std::cout << "Merged automaton '" << merged.name() << "' combines";
    for (const auto& component : merged.components()) {
        std::cout << " " << component->name();
    }
    std::cout << " and is "
              << (merged.classify() == merge::MergeKind::Weak ? "WEAKLY" : "STRONGLY")
              << " merged (" << merged.deltas().size() << " delta-transitions, "
              << merged.assignments().size() << " assignments)\n\n";

    bool found = false;
    slpClient.lookup("service:printer", [&](const slp::UserAgent::Result& result) {
        found = !result.urls.empty();
        std::cout << "SLP client "
                  << (found ? "received URL: " + result.urls[0] : std::string("timed out"))
                  << " after "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(result.elapsed).count()
                  << " ms (virtual)\n";
    });

    scheduler.runUntilIdle();

    std::cout << "\nWalkthrough (each delta-transition is a bridge state of Fig 4):\n";
    using telemetry::WireEvent;
    const auto* log = deployed.engine().recorder().last();
    for (const WireEvent& event : log ? telemetry::decodeEvents(log->events)
                                      : std::vector<WireEvent>{}) {
        if (event.kind != WireEvent::Kind::Transition) continue;
        if (event.action == WireEvent::kActionDelta) {
            std::cout << "  [bridge] delta " << event.state << " -> " << event.stateTo
                      << "  (cross-protocol hand-over)\n";
        } else {
            std::cout << "  [" << event.component << "] " << event.state << " "
                      << (event.action == WireEvent::kActionSend ? "!" : "?")
                      << event.messageType << " -> " << event.stateTo << "\n";
        }
    }
    return found ? 0 : 1;
}
