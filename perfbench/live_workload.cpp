// The live-os workload: slp-to-upnp on OsNetwork over loopback, with real
// UDP multicast and the framed-TCP HTTP leg.
//
// Thread 1 (this one) runs the bridge and an in-process UPnP device on one
// OsNetwork. Thread 2 runs three closed-loop SLP user agents on a second
// OsNetwork that shares the port base, so logical ports resolve to the same
// wire ports. Lookup time is set by the peers' and clients' timers, so a
// CPU-only gain should not move this workload while a concurrency fix
// should: today the engine serves one session at a time and silently drops
// an overlapping client's request, which then times out.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/registry.hpp"
#include "core/bridge/starlink.hpp"
#include "core/net/os_network.hpp"
#include "core/telemetry/metrics.hpp"
#include "perfbench.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"

namespace perfbench {

using namespace starlink;

namespace {

constexpr int kClients = 3;
constexpr int kSetupRepeats = 25;
const net::Duration kClientTimeout = net::ms(1000);
constexpr std::size_t kCaptureLimit = 2000;

struct Rig {
    telemetry::MetricsRegistry metrics;
    std::unique_ptr<net::OsNetwork> bridgeNet;
    LayerStats stats;
    std::unique_ptr<net::Network> timed;
    std::unique_ptr<bridge::Starlink> starlink;
    engine::AutomataEngine* engine = nullptr;
    std::optional<ssdp::Device> device;
    std::unique_ptr<net::OsNetwork> clientNet;
    std::vector<std::unique_ptr<slp::UserAgent>> clients;
    std::string expectedUrl;
    double registryMs = 0;
    double deployMs = 0;
    double setupS = 0;
};

/// Everything up to the point the first lookup can be issued: backends,
/// registry load with its lint gate, the bridge, the device and the clients.
std::unique_ptr<Rig> buildRig(std::uint64_t seed, bool traced, std::uint16_t portBase) {
    const std::uint64_t start = nowNs();
    auto rig = std::make_unique<Rig>();
    net::OsNetwork::Options netOptions;
    netOptions.portBase = portBase;
    rig->bridgeNet = std::make_unique<net::OsNetwork>(netOptions);
    bridge::ModelRegistryOptions registryOptions;
    registryOptions.metrics = &rig->metrics;
    bridge::ModelRegistry registry(registryOptions);
    const auto set = registry.loadBuiltins();
    const std::uint64_t loaded = nowNs();

    net::Network* bridgeNet = rig->bridgeNet.get();
    if (traced) {
        rig->timed = makeTimedNetwork(*rig->bridgeNet, rig->stats);
        rig->stats.captureLimit = kCaptureLimit;
        bridgeNet = rig->timed.get();
    }
    rig->starlink = std::make_unique<bridge::Starlink>(*bridgeNet);
    engine::EngineOptions options;
    options.processingDelay = net::ms(0);  // on this backend it would be a real sleep
    options.metrics = &rig->metrics;
    if (traced) options.spanCapacity = 4096;
    rig->engine = &rig->starlink->deploy(set->specFor(bridge::models::Case::SlpToUpnp),
                                         "10.0.0.9", options)
                       .engine();
    const std::uint64_t deployed = nowNs();

    Rng inputs(seed);
    rig->expectedUrl = "http://10.0.0.3:" + std::to_string(inputs.range(1024, 65535)) +
                       "/print" + std::to_string(inputs.range(0, 999999));
    ssdp::Device::Config device;
    device.serviceUrl = rig->expectedUrl;
    device.responseDelayBase = net::ms(5);
    device.responseDelayJitter = net::ms(1);
    device.seed = inputs.next();
    rig->device.emplace(*rig->bridgeNet, device);

    rig->clientNet = std::make_unique<net::OsNetwork>(netOptions);
    for (int i = 0; i < kClients; ++i) {
        slp::UserAgent::Config client;
        client.timeout = kClientTimeout;
        rig->clients.push_back(std::make_unique<slp::UserAgent>(*rig->clientNet, client));
    }
    const std::uint64_t end = nowNs();
    rig->registryMs = static_cast<double>(loaded - start) / 1e6;
    rig->deployMs = static_cast<double>(deployed - loaded) / 1e6;
    rig->setupS = static_cast<double>(end - start) / 1e9;
    return rig;
}

/// Retries on a port base another process holds.
std::unique_ptr<Rig> buildRigAnywhere(std::uint64_t seed, bool traced, std::uint16_t& portBase) {
    for (int attempt = 0;; ++attempt) {
        try {
            return buildRig(seed, traced, portBase);
        } catch (const NetError& error) {
            if (attempt >= 8) throw;
            portBase = static_cast<std::uint16_t>(30000 + (portBase - 30000 + 1700) % 15000);
        }
    }
}

struct LivePass {
    std::uint64_t attempted = 0;
    std::uint64_t discovered = 0;
    std::uint64_t empty = 0;
    std::uint64_t wrong = 0;
    std::uint64_t unclassified = 0;
    std::vector<double> latencyUs;
    double seconds = 0;
    TracedPass totals;
    std::uint64_t perClient[kClients] = {};

    double rate() const { return seconds > 0 ? static_cast<double>(discovered) / seconds : 0; }
};

/// What the clients saw: written by the client thread, read after the join.
struct ClientTally {
    std::vector<double> latencyUs;
    std::vector<bool> discovered;
    std::uint64_t wrong = 0;
    std::uint64_t perClient[kClients] = {};
};

/// Closed loop on the client thread: each client issues its next lookup as
/// soon as the previous one settles, until `deadline`; lookups in flight
/// then finish.
void runClients(Rig& rig, std::uint64_t deadline, double seconds, ClientTally& tally) {
    net::OsNetwork& net = *rig.clientNet;
    std::uint64_t issuedAt[kClients] = {};
    int active = kClients;
    std::function<void(int)> issue = [&](int k) {
        issuedAt[k] = nowNs();
        rig.clients[static_cast<std::size_t>(k)]->lookup(
            "service:printer", [&, k](const slp::UserAgent::Result& result) {
                AllocPause bookkeeping;
                tally.latencyUs.push_back(static_cast<double>(nowNs() - issuedAt[k]) / 1e3);
                tally.discovered.push_back(!result.urls.empty());
                if (!result.urls.empty() && result.urls.front() != rig.expectedUrl) ++tally.wrong;
                ++tally.perClient[k];
                if (nowNs() < deadline) {
                    net.scheduler().schedule(net::ms(0), [&issue, k] { issue(k); });
                } else {
                    --active;
                }
            });
    };
    for (int k = 0; k < kClients; ++k) issue(k);
    net.runUntil([&active] { return active == 0; },
                 net::ms(static_cast<std::int64_t>(seconds * 1000)) + kClientTimeout +
                     net::ms(2000));
}

/// One closed-loop pass of `seconds`, the bridge loop on this thread.
LivePass runLivePass(Rig& rig, double seconds, bool traced) {
    LivePass out;
    const auto& history = rig.engine->sessions();
    const std::uint64_t endedBefore = history.totalEnded();
    const std::uint64_t abortedBefore = history.totalAborted();
    const std::uint64_t retransmitsBefore = history.totalRetransmits();
    const std::uint64_t messagesInBefore = history.totalMessagesIn();
    const auto uncodedOf = [&history] {
        const auto it = history.abortsByCode().find(errc::ErrorCode::Unclassified);
        return it == history.abortsByCode().end() ? std::uint64_t{0} : it->second;
    };
    const std::uint64_t uncodedBefore = uncodedOf();
    rig.stats = LayerStats{};
    rig.stats.captureLimit = traced ? kCaptureLimit : 0;
    SpanReader spanReader;
    spanReader.drain(*rig.engine, out.totals.legs);
    out.totals.legs = SpanLegs{};

    const std::uint64_t passStart = nowNs();
    const std::uint64_t deadline = passStart + static_cast<std::uint64_t>(seconds * 1e9);
    setAllocCounting(true);
    const AllocCounts totalStart = allocTotal();
    const AllocCounts bridgeStart = allocBridge();
    ClientTally tally;
    std::atomic<bool> clientsDone{false};
    std::exception_ptr clientError;
    std::thread clientThread([&] {
        try {
            runClients(rig, deadline, seconds, tally);
        } catch (...) {
            clientError = std::current_exception();
        }
        clientsDone = true;
        rig.bridgeNet->wakeFromSignal();
    });
    {
        // Joins on every path: the bridge loop may throw while clients run.
        struct Joiner {
            std::thread& thread;
            ~Joiner() { thread.join(); }
        } joiner{clientThread};
        net::Network& loop = traced ? *rig.timed : static_cast<net::Network&>(*rig.bridgeNet);
        while (!clientsDone.load()) {
            loop.runUntil([&clientsDone] { return clientsDone.load(); }, net::ms(20));
            if (traced) spanReader.drain(*rig.engine, out.totals.legs);
        }
    }
    if (clientError) std::rethrow_exception(clientError);
    const std::uint64_t passEnd = nowNs();
    out.totals.windowTotal = {allocTotal().count - totalStart.count,
                              allocTotal().bytes - totalStart.bytes};
    out.totals.windowBridge = {allocBridge().count - bridgeStart.count,
                               allocBridge().bytes - bridgeStart.bytes};
    setAllocCounting(false);
    if (traced) spanReader.drain(*rig.engine, out.totals.legs);

    out.attempted = tally.latencyUs.size();
    for (const bool found : tally.discovered) (found ? out.discovered : out.empty) += 1;
    out.wrong = tally.wrong;
    out.latencyUs = std::move(tally.latencyUs);
    std::copy(std::begin(tally.perClient), std::end(tally.perClient), std::begin(out.perClient));
    out.seconds = static_cast<double>(passEnd - passStart) / 1e9;
    out.unclassified = uncodedOf() - uncodedBefore;
    out.totals.lookups = static_cast<double>(out.attempted);
    out.totals.wallNs = static_cast<double>(passEnd - passStart);
    out.totals.windowLookups = static_cast<double>(out.attempted);
    out.totals.layers = rig.stats;
    out.totals.sessions = history.totalEnded() - endedBefore;
    out.totals.aborts = history.totalAborted() - abortedBefore;
    out.totals.retransmits = history.totalRetransmits() - retransmitsBefore;
    out.totals.messagesIn = history.totalMessagesIn() - messagesInBefore;
    return out;
}

std::string passSummary(const char* label, const LivePass& pass) {
    std::string line = std::string(label) + ": " + std::to_string(pass.attempted) +
                       " lookups in " + std::to_string(pass.seconds) + " s, " +
                       std::to_string(pass.discovered) + " discovered, " +
                       std::to_string(pass.empty) + " empty at client timeout, " +
                       std::to_string(pass.totals.aborts) + " aborted sessions, " +
                       std::to_string(pass.wrong) + " wrong URLs; per client";
    for (const std::uint64_t n : pass.perClient) {
        line += ' ';
        line += std::to_string(n);
    }
    return line + "; latency samples " + std::to_string(pass.latencyUs.size());
}

void checkPass(RunResult& out, const LivePass& pass) {
    out.attempted += pass.attempted;
    out.failed += pass.wrong + pass.unclassified;
    if (pass.wrong + pass.unclassified != 0 || pass.discovered == 0) {
        out.correct = false;
        out.notes.push_back("check FAILED: " + std::to_string(pass.wrong) + " wrong URLs, " +
                            std::to_string(pass.unclassified) + " Unclassified aborts, " +
                            std::to_string(pass.discovered) + " discovered");
    }
}

}  // namespace

RunResult runLiveWorkload(const RunOptions& options) {
    RunResult out;
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        out.available = false;
        out.notes.push_back("live-os: unavailable (the kernel does not deliver multicast on "
                            "loopback here)");
        return out;
    }
    telemetry::setEnabled(true);
    std::uint16_t portBase =
        static_cast<std::uint16_t>(30000 + (static_cast<unsigned>(::getpid()) % 150) * 100);

    std::vector<double> setupS, registryMs, deployMs;
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetupRepeats; ++i) {
        rig.reset();
        const std::uint64_t before = calibrationNs();
        rig = buildRigAnywhere(options.seed, false, portBase);
        const double speed = hostSlowdown(before, calibrationNs());
        setupS.push_back(rig->setupS / speed);
        registryMs.push_back(rig->registryMs / speed);
        deployMs.push_back(rig->deployMs / speed);
    }

    const double untracedSeconds = options.trace ? options.seconds * 0.4 : options.seconds;
    const LivePass untraced = runLivePass(*rig, untracedSeconds, false);
    out.notes.push_back(passSummary("untraced pass", untraced));
    checkPass(out, untraced);

    if (!options.trace) {
        const double n = static_cast<double>(untraced.attempted);
        out.metrics = {
            {"lookups_per_s", untraced.rate(), "1/s"},
            {"lookup_us.p50", slicedQuantile(untraced.latencyUs, 0.50), "us"},
            {"lookup_us.p99", slicedQuantile(untraced.latencyUs, 0.99), "us"},
            {"lookup_ok_share", static_cast<double>(untraced.discovered) / n, "share"},
            {"allocs_per_lookup", static_cast<double>(untraced.totals.windowTotal.count) / n,
             "count"},
            {"heap_kib_per_lookup",
             static_cast<double>(untraced.totals.windowTotal.bytes) / 1024.0 / n, "KiB"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
            {"setup_s", median(setupS), "s"},
        };
        return out;
    }

    rig.reset();  // frees the ports for the traced rig
    auto tracedRig = buildRigAnywhere(options.seed, true, portBase);
    const LivePass traced = runLivePass(*tracedRig, options.seconds * 0.4, true);
    out.notes.push_back(passSummary("traced pass", traced));
    checkPass(out, traced);
    if (!closureHolds(traced.totals, out.notes)) out.correct = false;
    out.notes.push_back(accountingIdentity(traced.totals) +
                        " (recorded, not asserted: overlapping clients are dropped today)");

    LayerContext context;
    context.registryMs = median(registryMs);
    context.deployMs = median(deployMs);
    const double untracedRate = untraced.rate();
    context.traceOverheadPct =
        untracedRate > 0 && traced.rate() > 0
            ? 100.0 * (1.0 / traced.rate() - 1.0 / untracedRate) * untracedRate
            : 0;
    context.recorderOverheadPct = slpToUpnpRecorderOverheadPct(options.seed, options.seconds * 0.1);
    out.notes.push_back("telemetry.recorder_overhead_pct: measured on a sim slp-to-upnp island");
    context.failShare =
        static_cast<double>(traced.empty + traced.totals.aborts) /
        static_cast<double>(traced.attempted);
    std::vector<CapturedMessage> captured;
    for (Bytes& payload : tracedRig->stats.captured) {
        captured.push_back({tracedRig->engine, std::move(payload)});
    }
    context.codecs = replayCodecs(captured, options.seconds * 0.02);
    const auto reference = referenceCodecs(options.seed, options.seconds * 0.02);
    for (const auto& [dialect, cost] : reference) {
        if (context.codecs.emplace(dialect, cost).second) {
            out.notes.push_back("mdl." + dialect +
                                ": not in this workload's traffic; replayed over the reference "
                                "capture of all ten directions");
        }
    }
    out.metrics = perLayerMetrics(traced.totals, context);
    return out;
}

}  // namespace perfbench
