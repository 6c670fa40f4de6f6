// Quickstart: an SLP client discovers a Bonjour printer through a Starlink
// bridge deployed at runtime from XML models (paper case 2, Fig 10).
//
// Three parties, none aware of the others' protocols:
//   10.0.0.1  a legacy SLP user agent looking for "service:printer"
//   10.0.0.3  a legacy Bonjour (mDNS) responder advertising the printer
//   10.0.0.9  the Starlink bridge, deployed from 5 XML documents:
//             SLP MDL, SLP automaton, DNS MDL, mDNS automaton, bridge spec
#include <iostream>

#include "net/sim_network.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/telemetry/recorder.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"

int main() {
    using namespace starlink;

    // 1. A simulated network on virtual time (see DESIGN.md: substitution
    //    for the paper's real LAN).
    net::VirtualClock clock;
    net::EventScheduler scheduler(clock);
    net::SimNetwork network(scheduler);

    // 2. The legacy applications. They speak only their own protocol.
    mdns::Responder::Config printerConfig;
    printerConfig.serviceName = "_printer._tcp.local";
    printerConfig.url = "http://10.0.0.3:631/ipp";
    mdns::Responder printer(network, printerConfig);

    slp::UserAgent slpClient(network, {});

    // 3. Deploy the Starlink bridge -- models only, no protocol code.
    bridge::Starlink starlink(network);
    const auto models = bridge::models::forCase(bridge::models::Case::SlpToBonjour, "10.0.0.9");
    std::cout << "Deploying bridge from " << models.protocols.size()
              << " protocol model pairs + 1 bridge spec ("
              << bridge::models::bridgeSpecLines(models) << " lines of XML)\n";
    // The flight recorder keeps the session's automaton walk for step 5.
    engine::EngineOptions options;
    options.recorderSessionBytes = 64 * 1024;
    auto& deployed = starlink.deploy(models, "10.0.0.9", options);

    // 4. The SLP client looks up a printer; the Bonjour responder answers.
    bool found = false;
    slpClient.lookup("service:printer", [&](const slp::UserAgent::Result& result) {
        if (result.urls.empty()) {
            std::cout << "lookup FAILED (timed out)\n";
            return;
        }
        found = true;
        std::cout << "SLP client got a reply in "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(result.elapsed).count()
                  << " ms (virtual): " << result.urls[0] << "\n";
    });

    scheduler.runUntilIdle();

    // 5. What the bridge saw.
    for (const auto& session : deployed.engine().sessions()) {
        std::cout << "bridge session: " << session.messagesIn << " in / " << session.messagesOut
                  << " out, translation time "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(
                         session.translationTime())
                         .count()
                  << " ms\n";
    }
    std::cout << "\nTrace through the merged automaton:\n";
    using telemetry::WireEvent;
    const auto* log = deployed.engine().recorder().last();
    for (const WireEvent& event : log ? telemetry::decodeEvents(log->events)
                                      : std::vector<WireEvent>{}) {
        if (event.kind != WireEvent::Kind::Transition) continue;
        std::cout << "  " << event.component << ": " << event.state;
        if (event.action == WireEvent::kActionDelta) {
            std::cout << " --delta--";
        } else {
            std::cout << (event.action == WireEvent::kActionSend ? " !" : " ?")
                      << event.messageType;
        }
        std::cout << " -> " << event.stateTo << "\n";
    }
    return found ? 0 : 1;
}
