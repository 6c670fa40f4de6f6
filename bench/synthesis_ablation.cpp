// Ablation A4: does automatic merge generation cost anything at runtime?
//
// The same SLP->Bonjour topology served by (a) the hand-written Fig 10
// bridge and (b) the ontology-synthesized bridge. Both execute in the same
// engine, so translation times should be indistinguishable -- the
// synthesizer's cost is paid once at deployment (measured separately in
// bench_automata_micro::SynthesizeMerge).
#include <cstdio>

#include "core/bridge/models.hpp"
#include "protocols/peers.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;
using bridge::models::Case;
using bridge::models::ProtocolModel;
using bridge::models::Role;

constexpr int kRepetitions = 100;

bench::Summary run(bool synthesized) {
    peers::SimIsland island;
    const bridge::DeployedBridge& deployed =
        synthesized
            ? island.starlink.deploySynthesized(
                  ProtocolModel{bridge::models::slpMdl(),
                                bridge::models::slpAutomaton(Role::Server)},
                  ProtocolModel{bridge::models::dnsMdl(),
                                bridge::models::mdnsAutomaton(Role::Client)},
                  merge::Ontology::discovery(), peers::SimIsland::kBridgeHost)
            : island.deploy(bridge::models::direction(Case::SlpToBonjour));

    peers::ServiceConfigs fast;
    fast.bonjour.responseDelayBase = net::ms(10);
    fast.bonjour.responseDelayJitter = net::ms(2);
    island.spawn(bridge::models::direction(Case::SlpToBonjour), fast);
    island.runLookups(kRepetitions);
    std::vector<double> samples;
    for (const auto& session : deployed.engine().sessions()) {
        if (session.completed) samples.push_back(bench::toMs(session.translationTime()));
    }
    return bench::summarize(std::move(samples));
}

}  // namespace

int main() {
    std::printf("Ablation A4: hand-written (Fig 10) vs synthesized SLP->Bonjour bridge\n");
    std::printf("(median translation time over %d lookups, fast Bonjour service)\n\n",
                kRepetitions);
    const bench::Summary handWritten = run(/*synthesized=*/false);
    const bench::Summary generated = run(/*synthesized=*/true);
    std::printf("hand-written  %7.1f / %7.1f / %7.1f ms   (%zu/%d ok)\n", handWritten.minMs,
                handWritten.medianMs, handWritten.maxMs, handWritten.samples, kRepetitions);
    std::printf("synthesized   %7.1f / %7.1f / %7.1f ms   (%zu/%d ok)\n", generated.minMs,
                generated.medianMs, generated.maxMs, generated.samples, kRepetitions);

    const bool ok = handWritten.samples == kRepetitions && generated.samples == kRepetitions &&
                    std::abs(handWritten.medianMs - generated.medianMs) < 5.0;
    std::printf("\nshape check (identical runtime behaviour): %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
