// Deterministic concurrency stress for the sharded bridge driver.
//
// The contract under test (shard_engine.hpp): a session's outcome is a pure
// function of (case, seed). If that holds, an 8-shard run with chaos faults
// enabled must reproduce a 1-shard run of the same submission record for
// record -- same bridge sessions, same failure causes, same message counts,
// same translation times to the microsecond -- because each session rewinds
// every stochastic stream it touches to seed-derived state. Any shared
// mutable state leaking across islands or threads breaks the equality (and
// the TSan CI job catches the racy variants that happen not to).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/engine/shard_engine.hpp"
#include "core/telemetry/metrics.hpp"
#include "protocols/peers.hpp"

namespace starlink {
namespace {

using bridge::models::Case;
using bridge::models::kAllCases;
using engine::SessionJob;
using engine::SessionResult;
using engine::ShardEngine;
using engine::ShardEngineOptions;

/// The stress workload: `count` sessions cycling through all six bridge
/// directions, keyed so hash dispatch scatters them across shards.
std::vector<SessionJob> mixedWorkload(int count) {
    std::vector<SessionJob> jobs;
    jobs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        SessionJob job;
        job.caseId = kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "stress-" + std::to_string(i);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

ShardEngineOptions chaosOptions(int shards) {
    ShardEngineOptions options;
    options.shards = shards;
    options.chaos = true;
    options.chaosLoss = 0.05;
    // The resilient engine profile of `starlinkd chaos`; its retransmit
    // jitter exercises the per-session reseedRetry path.
    options.engine = peers::resilientEngineOptions();
    return options;
}

std::string describe(const SessionResult& result) {
    std::string out = result.job.key + " discovered=" + (result.discovered ? "1" : "0");
    for (const auto& outcome : result.outcomes) {
        out += " [completed=" + std::to_string(outcome.completed) +
               " cause=" + engine::failureCauseName(outcome.cause) +
               " in=" + std::to_string(outcome.messagesIn) +
               " out=" + std::to_string(outcome.messagesOut) +
               " rtx=" + std::to_string(outcome.retransmits) +
               " translationUs=" + std::to_string(outcome.translationUs) +
               " sessionUs=" + std::to_string(outcome.sessionUs) + "]";
    }
    return out;
}

// The test archetype headliner: 8 shards x 200 mixed-direction sessions with
// chaos faults, bit-identical to a 1-shard run of the same seed.
TEST(ShardStress, EightShardChaosRunBitIdenticalToOneShard) {
    const auto jobs = mixedWorkload(200);

    ShardEngine sharded(chaosOptions(8));
    for (const auto& job : jobs) sharded.submit(job);
    const auto& parallel = sharded.run();

    ShardEngine sequential(chaosOptions(1));
    for (const auto& job : jobs) sequential.submit(job);
    const auto& serial = sequential.run();

    ASSERT_EQ(parallel.size(), jobs.size());
    ASSERT_EQ(serial.size(), jobs.size());

    // Submission order is preserved in the results, so compare positionally;
    // every field of every bridge session must match bit for bit.
    std::size_t totalSessions = 0;
    std::size_t discovered = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SessionResult& a = parallel[i];
        const SessionResult& b = serial[i];
        EXPECT_EQ(a.job.key, b.job.key);
        EXPECT_EQ(a.job.seed, b.job.seed) << a.job.key;
        EXPECT_EQ(a.discovered, b.discovered) << describe(a) << "\n vs \n" << describe(b);
        ASSERT_EQ(a.outcomes.size(), b.outcomes.size())
            << describe(a) << "\n vs \n" << describe(b);
        for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
            EXPECT_TRUE(a.outcomes[s] == b.outcomes[s])
                << describe(a) << "\n vs \n" << describe(b);
        }
        totalSessions += a.outcomes.size();
        if (a.discovered) ++discovered;
    }

    // The chaos plan is hostile but bounded: the workload as a whole must
    // still mostly succeed, and the run must actually have been sharded.
    EXPECT_GT(totalSessions, jobs.size() / 2);
    EXPECT_GT(discovered, jobs.size() / 2);
    std::set<int> shardsUsed;
    for (const auto& result : parallel) shardsUsed.insert(result.shard);
    EXPECT_EQ(shardsUsed.size(), 8u);
    EXPECT_EQ(sharded.reports().size(), 8u);

    // Sharding must cut the virtual makespan: the worst shard's busy time
    // stays well under the sequential shard's.
    EXPECT_LT(sharded.makespan(), sequential.makespan());
}

TEST(ShardStress, DispatchIsStableByKeyNotBySubmissionOrder) {
    ShardEngine engine(ShardEngineOptions{.shards = 8, .engine = {}});
    const auto jobs = mixedWorkload(64);
    std::map<std::string, int> expected;
    for (const auto& job : jobs) expected[job.key] = engine.shardFor(job.key);
    // Same keys, any order, any engine instance: same shard.
    ShardEngine other(ShardEngineOptions{.shards = 8, .engine = {}});
    for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
        EXPECT_EQ(other.shardFor(it->key), expected[it->key]);
    }
    // All eight shards get work (FNV-1a spreads this keyspace).
    std::set<int> used;
    for (const auto& [key, shard] : expected) used.insert(shard);
    EXPECT_EQ(used.size(), 8u);
}

// Merged per-shard registries must agree with the per-session outcomes --
// the aggregation half of "per-shard instances merged at export".
TEST(ShardStress, MergedMetricsAgreeWithSessionOutcomes) {
    telemetry::setEnabled(true);
    ShardEngineOptions options = chaosOptions(4);
    ShardEngine engine(options);
    for (const auto& job : mixedWorkload(48)) engine.submit(job);
    const auto& results = engine.run();
    telemetry::setEnabled(false);

    std::uint64_t completed = 0, messagesIn = 0, messagesOut = 0, retransmits = 0;
    for (const auto& result : results) {
        for (const auto& outcome : result.outcomes) {
            if (outcome.completed) ++completed;
            messagesIn += outcome.messagesIn;
            messagesOut += outcome.messagesOut;
            retransmits += outcome.retransmits;
        }
    }

    telemetry::MetricsRegistry merged;
    engine.mergeMetricsInto(merged);
    // Counter names carry a per-bridge label; sum each family across the six
    // bridge automata straight out of the merged exposition.
    const std::string exposition = merged.renderPrometheus();
    const auto sumLines = [&exposition](const std::string& family) {
        std::uint64_t total = 0;
        std::size_t at = 0;
        while ((at = exposition.find(family, at)) != std::string::npos) {
            const std::size_t space = exposition.find(' ', at);
            const std::size_t eol = exposition.find('\n', space);
            total += static_cast<std::uint64_t>(
                std::stoll(exposition.substr(space + 1, eol - space - 1)));
            at = eol;
        }
        return total;
    };
    const std::uint64_t mCompleted = sumLines("starlink_engine_sessions_completed_total{");
    const std::uint64_t mIn = sumLines("starlink_engine_messages_in_total{");
    const std::uint64_t mOut = sumLines("starlink_engine_messages_out_total{");
    const std::uint64_t mRetransmits = sumLines("starlink_engine_retransmits_total{");

    EXPECT_EQ(mCompleted, completed);
    EXPECT_EQ(mIn, messagesIn);
    EXPECT_EQ(mOut, messagesOut);
    EXPECT_EQ(mRetransmits, retransmits);
}

// Soak: pooled islands must not degrade over a long healthy run -- session
// 1 and session N of the same seed behave identically, every direction
// completes every session, and completed translation times stay in their
// Fig 12(b) bands.
TEST(ShardStress, SoakPooledIslandsServeIdenticalSessionsForever) {
    constexpr int kPerCase = 60;  // 360 sessions over 2 shards
    ShardEngineOptions options;
    options.shards = 2;
    ShardEngine engine(options);
    for (int i = 0; i < kPerCase; ++i) {
        for (const Case c : kAllCases) {
            SessionJob job;
            job.caseId = c;
            // Same explicit seed for every session of a case: a healthy pool
            // must serve them all identically, however deep in the run.
            job.seed = 0x50AC + static_cast<std::uint64_t>(c);
            job.key = std::string(bridge::models::direction(c).name) + "-" + std::to_string(i);
            engine.submit(job);
        }
    }
    const auto& results = engine.run();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kPerCase) * 6);

    std::map<int, const SessionResult*> first;
    for (const auto& result : results) {
        const int caseKey = static_cast<int>(result.job.caseId);
        EXPECT_TRUE(result.discovered) << describe(result);
        ASSERT_EQ(result.outcomes.size(), 1u) << describe(result);
        EXPECT_TRUE(result.outcomes[0].completed) << describe(result);
        const auto [it, inserted] = first.emplace(caseKey, &result);
        if (!inserted) {
            EXPECT_TRUE(result.outcomes[0] == it->second->outcomes[0])
                << describe(result) << "\n vs first \n" << describe(*it->second);
        }
        // Fig 12(b) bands: ->SLP directions are dominated by the ~6 s legacy
        // SLP response, the others stay sub-second.
        const bool slow = result.job.caseId == Case::UpnpToSlp ||
                          result.job.caseId == Case::BonjourToSlp;
        if (slow) {
            EXPECT_GT(result.outcomes[0].translationUs, 5'000'000) << describe(result);
        } else {
            EXPECT_LT(result.outcomes[0].translationUs, 1'000'000) << describe(result);
        }
    }
    EXPECT_EQ(first.size(), 6u);
}

/// FNV-1a 64 over every SessionResult field a session's behaviour decides,
/// in submission order: discovered, shed, and each SessionOutcome field.
std::uint64_t outcomeDigest(const std::vector<SessionResult>& results) {
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const SessionResult& result : results) {
        mix(result.discovered);
        mix(result.shed);
        mix(result.outcomes.size());
        for (const auto& outcome : result.outcomes) {
            mix(outcome.completed);
            mix(static_cast<std::uint64_t>(outcome.cause));
            mix(static_cast<std::uint64_t>(outcome.code));
            mix(outcome.messagesIn);
            mix(outcome.messagesOut);
            mix(outcome.retransmits);
            mix(static_cast<std::uint64_t>(outcome.translationUs));
            mix(static_cast<std::uint64_t>(outcome.sessionUs));
            mix(outcome.modelVersion);
        }
    }
    return h;
}

// The tests above compare N shards with 1 shard of the same build, so a
// change that shifts every session alike passes them. This one pins the
// absolute outcomes of a fixed 24-job mixed workload, fault-free and under
// chaos. A deliberate behaviour change re-records both values.
TEST(ShardStress, OutcomesMatchCommittedDigest) {
    const auto digestOf = [](ShardEngineOptions options) {
        ShardEngine engine(options);
        for (const auto& job : mixedWorkload(24)) engine.submit(job);
        return outcomeDigest(engine.run());
    };
    ShardEngineOptions faultFree;
    faultFree.shards = 2;
    EXPECT_EQ(digestOf(faultFree), 0xdcf78beefca16f0cULL);
    EXPECT_EQ(digestOf(chaosOptions(2)), 0xab4850fd47710ad5ULL);
}

}  // namespace
}  // namespace starlink
