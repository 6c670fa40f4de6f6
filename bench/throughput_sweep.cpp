// Aggregate throughput of the sharded bridge engine at 1/2/4/8 shards.
//
// Every number here is VIRTUAL-time: a shard is a pool of single-threaded
// simulation islands, so its capacity is the virtual time its islands
// consume, and the aggregate rate of an N-shard run is completed sessions
// divided by the virtual MAKESPAN (the busiest shard). That makes the sweep
// fully deterministic -- the same workload always yields the same
// sessions/s on any machine, which is why the committed baseline is gated
// with bench_compare.py --absolute (drift in either direction fails).
//
// Two sweeps:
//   mixed@Nshards        240 sessions round-robin over all six directions --
//                        the headline scaling figure. The harness FAILS
//                        unless mixed@8shards >= 3x mixed@1shard.
//   <case>@Nshards       64 sessions of a single direction, showing how each
//                        direction's session cost (Fig 12(b): ~0.3 s for
//                        ->UPnP/->Bonjour, ~6 s for ->SLP) carries through
//                        to capacity.
//
// Per-session behaviour is shard-count invariant (the determinism contract
// of shard_engine.hpp, enforced by tests/test_shard_stress.cpp), so scaling
// comes only from partitioning work -- the per-session medians the paper
// reports are untouched.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/engine/shard_engine.hpp"
#include "stats.hpp"

namespace {

using namespace starlink;
using bridge::models::Case;
using bridge::models::kAllCases;

constexpr int kShardCounts[] = {1, 2, 4, 8};
constexpr int kMixedSessions = 240;
constexpr int kPerCaseSessions = 64;
constexpr double kRequiredSpeedup = 3.0;

struct SweepPoint {
    std::string name;
    double sessionsPerSecond = 0;
    std::size_t completed = 0;
    double makespanMs = 0;
};

/// Runs `sessions` jobs (all of `only`, or round-robin over the six cases
/// when `only` is null) on `shards` shards and returns the aggregate rate.
SweepPoint sweep(const std::string& label, int shards, int sessions, const Case* only) {
    engine::ShardEngineOptions options;
    options.shards = shards;
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < sessions; ++i) {
        engine::SessionJob job;
        job.caseId = only != nullptr ? *only : kAllCases[static_cast<std::size_t>(i) % 6];
        // Keys are shard-count independent, so every sweep point serves the
        // exact same session set (bit-identical outcomes, different layout).
        job.key = label + "-" + std::to_string(i);
        shardEngine.submit(job);
    }
    shardEngine.run();

    SweepPoint point;
    point.name = label + "@" + std::to_string(shards) + "shards";
    point.sessionsPerSecond = shardEngine.virtualSessionsPerSecond();
    point.makespanMs = bench::toMs(shardEngine.makespan());
    for (const auto& report : shardEngine.reports()) {
        point.completed += report.completedSessions;
    }
    return point;
}

bench::JsonRow toRow(const SweepPoint& point) {
    bench::Summary summary;
    summary.minMs = summary.medianMs = summary.maxMs = point.sessionsPerSecond;
    summary.samples = point.completed;
    return {point.name, summary};
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
    }

    std::printf("Aggregate throughput, sharded bridge engine (virtual time)\n");
    std::printf("%-26s %10s %12s %14s\n", "workload", "sessions", "makespan ms",
                "sessions/s");

    std::vector<bench::JsonRow> rows;
    double oneShard = 0;
    double eightShard = 0;
    for (const int shards : kShardCounts) {
        const SweepPoint point = sweep("mixed", shards, kMixedSessions, nullptr);
        std::printf("%-26s %10zu %12.0f %14.3f\n", point.name.c_str(), point.completed,
                    point.makespanMs, point.sessionsPerSecond);
        rows.push_back(toRow(point));
        if (shards == 1) oneShard = point.sessionsPerSecond;
        if (shards == 8) eightShard = point.sessionsPerSecond;
    }
    for (const Case c : kAllCases) {
        for (const int shards : kShardCounts) {
            std::string label = bridge::models::direction(c).name;
            for (char& ch : label) {
                if (ch == ' ') ch = '-';
            }
            const SweepPoint point = sweep(label, shards, kPerCaseSessions, &c);
            std::printf("%-26s %10zu %12.0f %14.3f\n", point.name.c_str(), point.completed,
                        point.makespanMs, point.sessionsPerSecond);
            rows.push_back(toRow(point));
        }
    }

    const double speedup = oneShard > 0 ? eightShard / oneShard : 0;
    std::printf("mixed speedup 8 shards vs 1: %.2fx (gate: >= %.1fx)\n", speedup,
                kRequiredSpeedup);

    if (json) {
        if (!bench::writeJson("BENCH_throughput.json", "throughput_sweep",
                              "sessions/s (virtual)", rows)) {
            return 1;
        }
    }
    return speedup >= kRequiredSpeedup ? 0 : 1;
}
