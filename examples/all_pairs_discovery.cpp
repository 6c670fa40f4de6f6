// Runs every built-in direction -- the paper's six interoperability cases of
// section V plus its SLP<->LDAP and SLP<->WS-Discovery extensions -- and
// prints a result matrix: each legacy client discovering a heterogeneous
// legacy service through a freshly deployed Starlink bridge.
#include <iomanip>
#include <iostream>

#include "core/bridge/models.hpp"
#include "protocols/peers.hpp"

namespace {

using namespace starlink;

struct Outcome {
    bool success = false;
    std::string url;
    double clientMs = 0;
    double bridgeMs = 0;
};

double toMs(net::Duration d) {
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(d).count();
}

/// One isolated simulation per direction: client 10.0.0.1, service
/// 10.0.0.3, bridge 10.0.0.9.
Outcome runDirection(const bridge::models::Direction& d) {
    peers::SimIsland island;
    const auto& deployed = island.deploy(d);
    island.spawn(d);
    Outcome outcome;
    island.runLookups(1, [&outcome](const peers::Client::Result& r) {
        outcome.success = !r.urls.empty();
        if (outcome.success) outcome.url = r.urls[0];
        outcome.clientMs = toMs(r.elapsed);
    });
    if (!deployed.engine().sessions().empty()) {
        outcome.bridgeMs = toMs(deployed.engine().sessions().front().translationTime());
    }
    return outcome;
}

}  // namespace

int main() {
    std::cout << "Starlink all-pairs discovery matrix (paper section V)\n";
    std::cout << std::string(96, '-') << "\n";
    std::cout << std::left << std::setw(18) << "direction" << std::setw(9) << "result"
              << std::setw(13) << "client ms" << std::setw(13) << "bridge ms"
              << "resolved URL\n";
    std::cout << std::string(96, '-') << "\n";

    bool allOk = true;
    for (const bridge::models::Direction& d : bridge::models::directions()) {
        const Outcome outcome = runDirection(d);
        allOk = allOk && outcome.success;
        std::cout << std::left << std::setw(18) << d.name << std::setw(9)
                  << (outcome.success ? "OK" : "FAIL") << std::setw(13) << std::fixed
                  << std::setprecision(1) << outcome.clientMs << std::setw(13)
                  << outcome.bridgeMs << outcome.url << "\n";
    }
    std::cout << std::string(96, '-') << "\n";
    std::cout << (allOk ? "all ten directions interoperate\n" : "SOME CASES FAILED\n");
    return allOk ? 0 : 1;
}
