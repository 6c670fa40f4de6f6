// Resilience sweep: discovery success under per-hop datagram loss.
//
// For each of the six interoperability cases and each loss probability in
// the sweep, this harness deploys the bridge with the resilience layer
// enabled (receive deadlines + bounded retransmission + watchdog), gives the
// legacy clients their own periodic re-send knob (real OpenSLP/mDNS/UPnP
// stacks all re-send discovery requests), and drives repeated lookups over
// the lossy fabric. It reports, per (case, loss) cell:
//   - discovery success rate (client callback delivered a non-empty result),
//   - bridge sessions started / completed and engine retransmissions,
//   - median translation time of completed sessions (degradation vs loss 0),
//   - datagrams lost on the wire.
// A JSON dump of every cell follows the table for downstream tooling.
//
// Exit status enforces the resilience bar: at 25% per-hop loss every case
// must still discover in >= 95% of lookups (and lossless runs in 100%).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/telemetry/span.hpp"
#include "protocols/peers.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;
using bridge::models::Case;

constexpr int kLookups = 40;
constexpr double kLossSweep[] = {0.0, 0.10, 0.25};
constexpr double kRequiredSuccessAtWorstLoss = 0.95;

struct Cell {
    const char* caseName = "";
    double loss = 0;
    int lookups = 0;
    int successes = 0;
    std::size_t sessionsStarted = 0;
    std::size_t sessionsCompleted = 0;
    std::size_t bridgeRetransmits = 0;
    std::size_t datagramsLost = 0;
    double medianTranslationMs = 0;
    // Median per-session leg totals of completed sessions (see fig12b for
    // the tiling invariant these two legs satisfy).
    double medianTranslateLegMs = 0;
    double medianWaitLegMs = 0;

    double successRate() const {
        return lookups == 0 ? 0.0 : static_cast<double>(successes) / lookups;
    }
};

Cell sweepCase(Case c, double loss) {
    peers::SimIsland island(/*networkSeed=*/1234);
    island.network.latency().lossProbability = loss;

    // The resilient engine and chaos client profiles. Span collection costs
    // no virtual time; sized for every session the sweep can start (lookups
    // x retransmission storms stay well under this).
    engine::EngineOptions options = peers::resilientEngineOptions();
    options.spanCapacity = 1 << 16;
    const bridge::models::Direction& direction = bridge::models::direction(c);
    const auto& deployed = island.deploy(direction, options);
    island.spawn(direction, {}, peers::chaosClientConfigs());

    Cell cell;
    cell.caseName = direction.name;
    cell.loss = loss;
    cell.lookups = kLookups;
    cell.successes = island.runLookups(kLookups);

    // Per-session leg totals from the span trees, restricted (like fig12b)
    // to spans ending at or before the client reply of a completed session.
    std::map<std::uint64_t, double> translateBySession;
    std::map<std::uint64_t, double> waitBySession;
    const auto& sessions = deployed.engine().sessions();
    for (const telemetry::Span& span : deployed.engine().spans().snapshot()) {
        if (span.session == 0 || span.session > sessions.size()) continue;
        const auto& record = sessions[span.session - 1];
        if (!record.completed) continue;
        const net::TimePoint replyAt = record.clientReply.value_or(record.lastSend);
        if (span.end > replyAt) continue;
        if (span.name == "translate") {
            translateBySession[span.session] += bench::toMs(span.duration());
        } else if (span.name == "receive-wait") {
            waitBySession[span.session] += bench::toMs(span.duration());
        }
    }

    std::vector<double> translationMs, translateLegMs, waitLegMs;
    std::uint64_t ordinal = 0;
    for (const auto& session : sessions) {
        ++ordinal;
        ++cell.sessionsStarted;
        cell.bridgeRetransmits += session.retransmits;
        if (session.completed) {
            ++cell.sessionsCompleted;
            translationMs.push_back(bench::toMs(session.translationTime()));
            translateLegMs.push_back(translateBySession[ordinal]);
            waitLegMs.push_back(waitBySession[ordinal]);
        }
    }
    cell.medianTranslationMs = bench::summarize(std::move(translationMs)).medianMs;
    cell.medianTranslateLegMs = bench::summarize(std::move(translateLegMs)).medianMs;
    cell.medianWaitLegMs = bench::summarize(std::move(waitLegMs)).medianMs;
    cell.datagramsLost = island.network.datagramsLost();
    return cell;
}

}  // namespace

int main() {
    std::printf("Resilience sweep: bridged discovery under per-hop datagram loss\n");
    std::printf("(%d lookups per cell; engine: receiveTimeout 7 s, <=5 retransmits,\n", kLookups);
    std::printf(" backoff x1.5 + 100 ms jitter, 30 s watchdog; clients re-send every 8 s)\n\n");
    std::printf("%-18s %6s %9s %10s %9s %8s %10s\n", "Case", "Loss", "Success", "Sessions",
                "Complete", "Retrans", "MedianMs");

    std::vector<Cell> cells;
    for (const Case c : bridge::models::kAllCases) {
        for (const double loss : kLossSweep) {
            const Cell cell = sweepCase(c, loss);
            std::printf("%-18s %5.0f%% %8.1f%% %10zu %9zu %8zu %10.0f\n", cell.caseName,
                        100 * cell.loss, 100 * cell.successRate(), cell.sessionsStarted,
                        cell.sessionsCompleted, cell.bridgeRetransmits,
                        cell.medianTranslationMs);
            cells.push_back(cell);
        }
        std::printf("\n");
    }

    // Machine-readable dump for downstream tooling / CI trend lines.
    std::printf("JSON: [");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        std::printf("%s{\"case\":\"%s\",\"loss\":%.2f,\"lookups\":%d,\"successes\":%d,"
                    "\"successRate\":%.4f,\"sessionsStarted\":%zu,\"sessionsCompleted\":%zu,"
                    "\"bridgeRetransmits\":%zu,\"datagramsLost\":%zu,"
                    "\"medianTranslationMs\":%.1f,"
                    "\"legs\":{\"translateMs\":%.1f,\"receiveWaitMs\":%.1f}}",
                    i == 0 ? "" : ",", cell.caseName, cell.loss, cell.lookups, cell.successes,
                    cell.successRate(), cell.sessionsStarted, cell.sessionsCompleted,
                    cell.bridgeRetransmits, cell.datagramsLost, cell.medianTranslationMs,
                    cell.medianTranslateLegMs, cell.medianWaitLegMs);
    }
    std::printf("]\n");

    bool ok = true;
    for (const Cell& cell : cells) {
        if (cell.loss == 0.0 && cell.successes != cell.lookups) ok = false;
        if (cell.loss >= 0.25 - 1e-9 && cell.successRate() < kRequiredSuccessAtWorstLoss) {
            ok = false;
        }
    }
    std::printf("\nresilience bar (100%% at no loss; >=95%% at 25%% per-hop loss): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
