// Ablation A2: Starlink's interpreted, model-driven connectors vs hand-coded
// z2z-style static bridges, on identical topologies.
//
// Measures the same quantity as Fig 12(b) -- first-message-in to
// last-message-out at the bridge -- for the three cases with a static
// counterpart. The gap quantifies the cost of runtime interpretation
// (generic parsing into abstract messages, translation-logic evaluation,
// model-driven composition) that Starlink pays for being deployable at
// runtime.
#include <cstdio>
#include <vector>

#include "baseline/static_bridges.hpp"
#include "core/bridge/models.hpp"
#include "protocols/peers.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;
using bridge::models::Case;

constexpr int kRepetitions = 100;

/// Drives kRepetitions lookups from case `c`'s legacy client to its service,
/// through the bridge already deployed on `island`. The service is fast so
/// the bridge's own cost dominates the comparison.
void driveLookups(peers::SimIsland& island, Case c) {
    peers::ServiceConfigs fast;
    fast.each([](auto& config) {
        config.responseDelayBase = net::ms(10);
        config.responseDelayJitter = net::ms(2);
    });
    island.spawn(bridge::models::direction(c), fast);
    island.runLookups(kRepetitions);
}

/// Translation times of the completed sessions in `sessions`.
template <class Sessions>
bench::Summary translationTimes(const Sessions& sessions) {
    std::vector<double> samples;
    for (const auto& session : sessions) {
        if (session.completed) samples.push_back(bench::toMs(session.translationTime()));
    }
    return bench::summarize(std::move(samples));
}

bench::Summary starlinkCase(Case c) {
    peers::SimIsland island;
    const auto& deployed = island.deploy(bridge::models::direction(c));
    driveLookups(island, c);
    return translationTimes(deployed.engine().sessions());
}

/// The same case through the hand-coded `StaticBridge`.
template <class StaticBridge>
bench::Summary staticCase(Case c) {
    peers::SimIsland island;
    StaticBridge bridge(island.network, peers::SimIsland::kBridgeHost);
    driveLookups(island, c);
    return translationTimes(bridge.sessions());
}

void printPair(const char* label, const bench::Summary& starlinkSummary,
               const bench::Summary& staticSummary) {
    std::printf("%-18s starlink %7.1f ms   static %7.1f ms   overhead %+6.1f ms (%zu/%zu ok)\n",
                label, starlinkSummary.medianMs, staticSummary.medianMs,
                starlinkSummary.medianMs - staticSummary.medianMs, starlinkSummary.samples,
                staticSummary.samples);
}

}  // namespace

int main() {
    std::printf("Ablation A2: interpreted Starlink connectors vs hand-coded static bridges\n");
    std::printf("(median bridge-side translation time over %d lookups; fast services so the\n"
                " bridge cost dominates)\n\n",
                kRepetitions);

    const auto slpBonjourStarlink = starlinkCase(Case::SlpToBonjour);
    const auto slpBonjourStatic = staticCase<baseline::SlpToBonjourStatic>(Case::SlpToBonjour);
    printPair("SLP->Bonjour", slpBonjourStarlink, slpBonjourStatic);

    const auto slpUpnpStarlink = starlinkCase(Case::SlpToUpnp);
    const auto slpUpnpStatic = staticCase<baseline::SlpToUpnpStatic>(Case::SlpToUpnp);
    printPair("SLP->UPnP", slpUpnpStarlink, slpUpnpStatic);

    const auto bonjourSlpStarlink = starlinkCase(Case::BonjourToSlp);
    const auto bonjourSlpStatic = staticCase<baseline::BonjourToSlpStatic>(Case::BonjourToSlp);
    printPair("Bonjour->SLP", bonjourSlpStarlink, bonjourSlpStatic);

    const bool ok = slpBonjourStarlink.samples == kRepetitions &&
                    slpBonjourStatic.samples == kRepetitions &&
                    slpUpnpStarlink.samples == kRepetitions &&
                    slpUpnpStatic.samples == kRepetitions &&
                    bonjourSlpStarlink.samples == kRepetitions &&
                    bonjourSlpStatic.samples == kRepetitions &&
                    slpBonjourStarlink.medianMs >= slpBonjourStatic.medianMs;
    std::printf("\nshape check (both bridge kinds complete everything; interpretation costs "
                "extra): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
