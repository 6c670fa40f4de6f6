// Fig 12(a): "Response time measures for legacy discovery protocols".
//
// Reproduces the paper's native benchmark: for each protocol, one legacy
// client and one legacy service on the same simulated host pair, 100
// repetitions, min/median/max of the lookup response time. The legacy-stack
// latency models are calibrated against the paper's measurements of OpenSLP
// (~6.0 s service-side window), the Apple Bonjour SDK (~0.7 s browse) and
// Cyberlink UPnP (~1.0 s MX window + HTTP description fetch); see
// EXPERIMENTS.md for paper-vs-measured.
#include <cstdio>
#include <vector>

#include "native_bench.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;

constexpr int kRepetitions = 100;

}  // namespace

int main() {
    std::printf("Fig 12(a): Response time measures for legacy discovery protocols\n");
    std::printf("(%d repetitions each, virtual-time milliseconds)\n\n", kRepetitions);
    std::printf("%-18s %8s %8s %8s\n", "Protocol", "Min", "Median", "Max");

    const auto slpSummary = bench::benchNative(peers::Protocol::Slp, kRepetitions);
    const auto bonjourSummary = bench::benchNative(peers::Protocol::Bonjour, kRepetitions);
    const auto upnpSummary = bench::benchNative(peers::Protocol::Upnp, kRepetitions);
    bench::printRow("SLP", slpSummary, "5982 / 6022 / 6053");
    bench::printRow("Bonjour", bonjourSummary, " 687 /  710 /  726");
    bench::printRow("UPnP", upnpSummary, " 945 / 1014 / 1079");

    const bool shapeHolds = slpSummary.medianMs > 5 * upnpSummary.medianMs &&
                            upnpSummary.medianMs > bonjourSummary.medianMs &&
                            slpSummary.samples == kRepetitions &&
                            bonjourSummary.samples == kRepetitions &&
                            upnpSummary.samples == kRepetitions;
    std::printf("\nshape check (SLP >> UPnP > Bonjour, all lookups answered): %s\n",
                shapeHolds ? "PASS" : "FAIL");
    return shapeHolds ? 0 : 1;
}
