// Shared declarations of the wall-clock bridge benchmark (see README.md).
//
// The benchmark drives only the project's public entry points. It times each
// layer from outside: a counting operator new (alloc_counter.cpp), a
// decorator around net::Network handed to bridge::Starlink so only the
// bridge's own socket and timer upcalls are timed (timed_network.cpp), the
// engine's existing span wallNs, and an offline replay of the captured
// traffic through mdl::MessageCodec (report.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/engine/automata_engine.hpp"
#include "net/network.hpp"

namespace perfbench {

using starlink::Bytes;

inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

// -- allocation counting (alloc_counter.cpp) ---------------------------------

struct AllocCounts {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/// Counting is off until enabled; allocations made while it is off (set-up,
/// read-out, checks) are not counted anywhere.
void setAllocCounting(bool on);
/// Every counted allocation of the process, any thread.
AllocCounts allocTotal();
/// The counted allocations made inside bridge upcalls (BridgeScope).
AllocCounts allocBridge();

/// Marks the current thread as running bridge code; nests.
struct BridgeScope {
    BridgeScope();
    ~BridgeScope();
    BridgeScope(const BridgeScope&) = delete;
    BridgeScope& operator=(const BridgeScope&) = delete;
    /// True when this scope is the outermost one on its thread.
    bool outer() const { return outer_; }

private:
    bool outer_;
};

/// Suspends counting on the current thread (the benchmark's own bookkeeping
/// inside an upcall, such as the traffic capture, must not count as bridge
/// work).
struct AllocPause {
    AllocPause();
    ~AllocPause();
    AllocPause(const AllocPause&) = delete;
    AllocPause& operator=(const AllocPause&) = delete;
};

/// Peak resident set size of the process, MiB.
double peakRssMib();

// -- the timing decorator (timed_network.cpp) --------------------------------

/// What the decorator saw of one bridge. Single-threaded: a bridge and its
/// decorator live on one thread.
struct LayerStats {
    std::uint64_t rxNs = 0;           ///< wall inside socket/connect upcalls
    std::uint64_t rxCalls = 0;
    std::uint64_t timerNs = 0;        ///< wall inside bridge-scheduled tasks
    std::uint64_t timersFired = 0;
    std::uint64_t timersScheduled = 0;
    std::uint64_t timersCancelled = 0;
    std::uint64_t txNs = 0;           ///< wall inside sendTo/send
    std::uint64_t txMsgs = 0;
    std::uint64_t txBytes = 0;
    /// Datagrams plus TCP chunks handed to the bridge's receive handlers.
    std::uint64_t messagesDelivered = 0;
    /// Wall the bridge's event loop ran (runUntil), busy or waiting.
    std::uint64_t loopNs = 0;

    /// Traffic capture for the codec replay: payloads received and sent,
    /// up to captureLimit of them.
    std::size_t captureLimit = 0;
    std::vector<Bytes> captured;

    void add(const LayerStats& other);
};

/// Builds the decorator around `inner`. Every socket, listener, connection
/// and task the bridge obtains through it reports into `stats`.
std::unique_ptr<starlink::net::Network> makeTimedNetwork(starlink::net::Network& inner,
                                                         LayerStats& stats);

// -- span read-out and codec replay (report.cpp) -----------------------------

/// Sums of the engine's span wallNs by leg, read incrementally.
struct SpanLegs {
    std::uint64_t parseNs = 0;
    std::uint64_t translationLogicNs = 0;
    std::uint64_t composeNs = 0;
    std::uint64_t sendNs = 0;
    /// Read-outs that found the whole ring unread (spans may have been lost).
    std::uint64_t overruns = 0;

    std::uint64_t total() const { return parseNs + translationLogicNs + composeNs + sendNs; }
};

/// Reads the parse / translation-logic / compose / send spans the engine
/// committed since the previous call. The four legs are zero-duration
/// instants, committed in id order, so an id cursor finds the new ones.
class SpanReader {
public:
    void drain(const starlink::engine::AutomataEngine& engine, SpanLegs& into);

private:
    std::uint64_t lastId_ = 0;
};

/// Per-dialect codec cost from replaying captured traffic.
struct CodecCost {
    double parseNs = 0;
    double composeNs = 0;
    double parseAllocs = 0;
    double composeAllocs = 0;
};

/// One captured payload with the bridge that saw it.
struct CapturedMessage {
    const starlink::engine::AutomataEngine* engine = nullptr;
    Bytes payload;
};

/// Classifies each payload by the first of its bridge's codecs that parses
/// it, then times parse(data, arena) and composeInto over the messages of
/// each dialect. Keys: "binary", "text", "xml".
std::map<std::string, CodecCost> replayCodecs(const std::vector<CapturedMessage>& messages,
                                              double secondsPerDialect);

// -- results -------------------------------------------------------------------

/// A metric as printed: name, value, unit.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Runs a fixed allocation- and map-heavy loop that uses none of the
/// project's code and returns its wall ns: a yardstick of how fast the host
/// runs right now.
std::uint64_t calibrationNs();

/// calibrationNs() on the 4-vCPU host where the first numbers were taken.
constexpr double kReferenceCalibrationNs = 350'000;

/// How much slower than the reference the host ran a stretch of work, from
/// the calibration loop run just before and just after it. Wall rows of the
/// CPU-bound workloads are divided by it (rates multiplied), so they read as
/// wall at the reference host speed: a noisy neighbour slows the loop and
/// the work alike, and drops out of the ratio.
double hostSlowdown(std::uint64_t calibrationBeforeNs, std::uint64_t calibrationAfterNs);

/// Quantile of `values` (sorted copy), q in [0, 1], nearest rank.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Lookups per latency slice: 2000 samples leave 20 beyond the p99.
constexpr std::size_t kLatencySlice = 2000;
/// The median over consecutive slices of kLatencySlice samples of each
/// slice's quantile q, so a burst of interference from outside moves only
/// the slices it hits. Fewer samples than one slice: the plain quantile.
double slicedQuantile(const std::vector<double>& values, double q);

/// The totals of one traced pass that the per-layer rows derive from.
struct TracedPass {
    double lookups = 0;  ///< lookups in the pass
    double wallNs = 0;   ///< measured wall of the pass
    LayerStats layers;
    SpanLegs legs;
    /// Allocations over the fixed allocation window of the pass.
    double windowLookups = 0;
    AllocCounts windowTotal;
    AllocCounts windowBridge;
    /// Bridge session outcomes over the pass.
    std::uint64_t sessions = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t messagesIn = 0;
};

/// Rows measured outside the traced pass.
struct LayerContext {
    double registryMs = 0;
    double deployMs = 0;
    double traceOverheadPct = 0;
    double recorderOverheadPct = 0;
    double failShare = 0;
    std::map<std::string, CodecCost> codecs;
};

/// Every per-layer metric, in BENCHMARK.json order.
std::vector<Metric> perLayerMetrics(const TracedPass& pass, const LayerContext& context);

/// The closure checks: span legs fit inside engine rx + timer, and engine
/// time fits inside the lookup wall (harness >= 0). Explains failures in
/// `notes`.
bool closureHolds(const TracedPass& pass, std::vector<std::string>& notes);

/// Prints the accounting identity for messages delivered to the bridge.
std::string accountingIdentity(const TracedPass& pass);

/// Options common to every workload run.
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/// What a workload hands back to main: metrics for the requested mode,
/// correctness, and operation counts.
struct RunResult {
    bool available = true;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  ///< human-readable lines printed before the JSON
};

RunResult runSimWorkload(const RunOptions& options);
RunResult runLiveWorkload(const RunOptions& options);

// Sim helpers the live workload borrows (sim_workloads.cpp).

/// Codec costs over a reference capture of all ten directions on sim
/// islands, for dialects a workload's own traffic never reaches.
std::map<std::string, CodecCost> referenceCodecs(std::uint64_t seed, double secondsPerDialect);

/// Recorder on against off (1 MiB per-session cap), % wall per lookup, on a
/// sim island of the slp-to-upnp direction with telemetry on.
double slpToUpnpRecorderOverheadPct(std::uint64_t seed, double seconds);

}  // namespace perfbench
