// Abort observability across the sharded driver: shed (engine.overload) and
// idle-evicted (engine.idle-timeout) sessions must be first-class citizens of
// every telemetry surface -- a terminal session span, the per-code abort
// counter family -- and the multi-shard span merge must stay structurally
// sound (unique ids, no dangling parents, legs still tiling the translation
// window) with those synthetic/aborted sessions mixed in.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/span.hpp"
#include "core/telemetry/trace_export.hpp"
#include "protocols/peers.hpp"

namespace starlink {
namespace {

const telemetry::SpanAttr* attrOf(const telemetry::Span& span, const std::string& key) {
    for (const auto& attr : span.attrs) {
        if (attr.key == key) return &attr;
    }
    return nullptr;
}

/// Sum of the per-code abort counter over every bridge direction label.
std::uint64_t abortedTotal(const telemetry::MetricsRegistry& merged, errc::ErrorCode code) {
    std::uint64_t total = 0;
    for (const auto c : bridge::models::kAllCases) {
        // Shed accounting labels with the direction's slug; in-engine aborts
        // label with the merged-automaton name -- identical for built-in
        // bridges, so one query covers both paths.
        total += const_cast<telemetry::MetricsRegistry&>(merged)
                     .counter(telemetry::labeled(
                         "starlink_engine_sessions_aborted_total",
                         {{"bridge", bridge::models::direction(c).slug},
                          {"code", std::to_string(errc::to_error_code(code))},
                          {"cause", errc::to_string(code)}}))
                     .value();
    }
    return total;
}

struct RunSummary {
    std::size_t shed = 0;
    std::size_t idleEvicted = 0;
    std::uint64_t shedCounter = 0;
    std::uint64_t idleCounter = 0;
    std::vector<telemetry::Span> spans;
    /// Per job key, the outcome codes in order -- the shard-count
    /// determinism handle.
    std::map<std::string, std::vector<int>> codesByKey;
};

RunSummary runWorkload(int shards, std::size_t maxPending, bool chaos, int idleTimeoutMs,
                       int jobs) {
    telemetry::setEnabled(true);
    engine::ShardEngineOptions options;
    options.shards = shards;
    options.baseSeed = 77;
    options.maxPendingPerShard = maxPending;
    if (chaos) {
        options.chaos = true;
        options.chaosLoss = 0.25;
        options.engine = peers::resilientEngineOptions();
    }
    options.engine.spanCapacity = 16384;
    if (idleTimeoutMs > 0) options.engine.idleTimeout = net::ms(idleTimeoutMs);
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < jobs; ++i) {
        engine::SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "abortobs-" + std::to_string(i);
        shardEngine.submit(job);
    }
    RunSummary summary;
    for (const auto& result : shardEngine.run()) {
        if (result.shed) ++summary.shed;
        auto& codes = summary.codesByKey[result.job.key];
        for (const auto& outcome : result.outcomes) {
            codes.push_back(errc::to_error_code(outcome.code));
            if (outcome.code == errc::ErrorCode::EngineIdleTimeout) ++summary.idleEvicted;
        }
    }
    telemetry::MetricsRegistry merged;
    shardEngine.mergeMetricsInto(merged);
    summary.shedCounter = abortedTotal(merged, errc::ErrorCode::EngineOverload);
    summary.idleCounter = abortedTotal(merged, errc::ErrorCode::EngineIdleTimeout);
    summary.spans = shardEngine.spans();
    telemetry::setEnabled(false);
    return summary;
}

TEST(ShedObservability, ShedSessionsGetSpanAndAbortCount) {
    for (const int shards : {1, 8}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const RunSummary run = runWorkload(shards, /*maxPending=*/3, /*chaos=*/false,
                                           /*idleTimeoutMs=*/0, /*jobs=*/60);
        ASSERT_GT(run.shed, 0u);

        // The per-code abort counter sees every shed job, exactly once.
        EXPECT_EQ(run.shedCounter, run.shed);

        // Every shed job has a terminal session span with the overload code,
        // carrying a unique merged id and session ordinal.
        std::size_t shedSpans = 0;
        std::set<std::uint64_t> shedSessions;
        for (const auto& span : run.spans) {
            const auto* result = attrOf(span, "result");
            if (span.name != "session" || result == nullptr || result->value != "shed") continue;
            ++shedSpans;
            EXPECT_NE(span.id, 0u);
            EXPECT_EQ(span.parent, 0u);
            EXPECT_TRUE(shedSessions.insert(span.session).second)
                << "shed span session ordinal collides";
            const auto* code = attrOf(span, "error_code");
            ASSERT_NE(code, nullptr);
            EXPECT_EQ(code->value,
                      std::to_string(errc::to_error_code(errc::ErrorCode::EngineOverload)));
        }
        EXPECT_EQ(shedSpans, run.shed);
        // Synthetic ordinals must not collide with engine sessions either.
        for (const auto& span : run.spans) {
            if (span.name != "session") continue;
            const auto* result = attrOf(span, "result");
            if (result != nullptr && result->value == "shed") continue;
            EXPECT_FALSE(shedSessions.contains(span.session));
        }
    }
}

TEST(IdleEvictionObservability, EvictionsCountedAndShardCountInvariant) {
    const RunSummary one = runWorkload(1, 0, /*chaos=*/true, /*idleTimeoutMs=*/3000,
                                       /*jobs=*/24);
    const RunSummary eight = runWorkload(8, 0, /*chaos=*/true, /*idleTimeoutMs=*/3000,
                                         /*jobs=*/24);

    // Chaos at this loss level must actually exercise the idle evictor.
    ASSERT_GT(one.idleEvicted, 0u);

    // Determinism contract: per-key outcome codes are shard-count invariant,
    // so the -611 population is identical at 1 and 8 shards.
    EXPECT_EQ(one.codesByKey, eight.codesByKey);
    EXPECT_EQ(one.idleEvicted, eight.idleEvicted);

    // The abort counter family agrees with the outcome records in both runs.
    EXPECT_EQ(one.idleCounter, one.idleEvicted);
    EXPECT_EQ(eight.idleCounter, eight.idleEvicted);

    // Every idle-evicted session left a terminal span with the -611 code.
    for (const RunSummary* run : {&one, &eight}) {
        std::size_t evictedSpans = 0;
        for (const auto& span : run->spans) {
            if (span.name != "session") continue;
            const auto* code = attrOf(span, "error_code");
            if (code != nullptr &&
                code->value ==
                    std::to_string(errc::to_error_code(errc::ErrorCode::EngineIdleTimeout))) {
                ++evictedSpans;
            }
        }
        EXPECT_EQ(evictedSpans, run->idleEvicted);
    }
}

// -- satellite 3: Chrome trace export over the multi-shard merge -------------

TEST(MergedTraceExport, MultiShardMergeStaysStructurallySound) {
    const RunSummary run = runWorkload(8, /*maxPending=*/2, /*chaos=*/true,
                                       /*idleTimeoutMs=*/3000, /*jobs=*/40);
    ASSERT_FALSE(run.spans.empty());
    ASSERT_GT(run.shed, 0u);  // the merge really contains synthetic spans

    // Unique ids, no dangling parents, parents within the same session.
    std::set<std::uint64_t> ids;
    std::map<std::uint64_t, const telemetry::Span*> byId;
    for (const auto& span : run.spans) {
        ASSERT_NE(span.id, 0u);
        ASSERT_TRUE(ids.insert(span.id).second) << "duplicate span id after merge";
        byId[span.id] = &span;
    }
    for (const auto& span : run.spans) {
        if (span.parent == 0) continue;
        const auto parent = byId.find(span.parent);
        ASSERT_NE(parent, byId.end()) << "dangling parent id " << span.parent;
        EXPECT_EQ(parent->second->session, span.session)
            << "parent and child in different sessions";
    }

    // Completed sessions still tile their translation window after the merge:
    // translate + receive-wait legs up to the client reply (the session
    // span's start plus its translation_us attr) sum to exactly that window.
    std::map<std::uint64_t, std::vector<const telemetry::Span*>> yardsBySession;
    std::map<std::uint64_t, const telemetry::Span*> rootBySession;
    for (const auto& span : run.spans) {
        if (span.name == "session") rootBySession[span.session] = &span;
        if (span.name == "translate" || span.name == "receive-wait") {
            yardsBySession[span.session].push_back(&span);
        }
    }
    std::size_t tiledSessions = 0;
    for (const auto& [session, root] : rootBySession) {
        const auto* result = attrOf(*root, "result");
        const auto* translationUs = attrOf(*root, "translation_us");
        if (result == nullptr || result->value != "completed") continue;
        ASSERT_NE(translationUs, nullptr);
        const std::int64_t window = std::stoll(translationUs->value);
        const net::TimePoint replyAt = root->start + net::Duration{window};
        std::int64_t covered = 0;
        for (const auto* span : yardsBySession[session]) {
            if (span->end <= replyAt) covered += (span->end - span->start).count();
        }
        EXPECT_EQ(covered, window) << "session " << session;
        ++tiledSessions;
    }
    EXPECT_GT(tiledSessions, 0u);

    // The Chrome trace export renders the merged snapshot: one complete event
    // per span, and it parses as the expected envelope.
    const std::string json = telemetry::toChromeTrace(run.spans, "starlink-shards");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    std::size_t complete = 0;
    for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"X\"", pos + 1)) {
        ++complete;
    }
    EXPECT_EQ(complete, run.spans.size());
}

// -- satellite 1: residency gauges exported per bridge -----------------------

TEST(ResidencyGauges, ExportedAfterSessionBoundaries) {
    telemetry::setEnabled(true);
    engine::ShardEngineOptions options;
    options.shards = 1;
    options.baseSeed = 5;
    options.engine.spanCapacity = 8;            // tiny: forces span-ring drops
    options.engine.sessionHistoryCapacity = 2;  // tiny: forces history eviction
    options.engine.recorderSessionBytes = 4096;
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < 12; ++i) {
        engine::SessionJob job;
        job.caseId = bridge::models::Case::SlpToBonjour;  // pure-udp direction
        job.key = "gauge-" + std::to_string(i);
        shardEngine.submit(job);
    }
    shardEngine.run();
    telemetry::MetricsRegistry merged;
    shardEngine.mergeMetricsInto(merged);
    const std::string slug = bridge::models::direction(bridge::models::Case::SlpToBonjour).slug;
    auto gauge = [&](const std::string& name) {
        return merged.gauge(telemetry::labeled(name, {{"bridge", slug}})).value();
    };
    EXPECT_GT(gauge("starlink_telemetry_spans_dropped"), 0);
    EXPECT_GT(gauge("starlink_engine_session_history_evicted"), 0);
    EXPECT_GT(gauge("starlink_mdl_rx_arena_reserved_bytes"), 0);
    EXPECT_GT(gauge("starlink_mdl_rx_arena_chunks"), 0);
    EXPECT_GT(gauge("starlink_telemetry_recorder_reserved_bytes"), 0);
    const std::string exposition = merged.renderPrometheus();
    EXPECT_NE(exposition.find("starlink_telemetry_spans_dropped"), std::string::npos);
    EXPECT_NE(exposition.find("starlink_mdl_rx_arena_reserved_bytes"), std::string::npos);
    telemetry::setEnabled(false);
}

}  // namespace
}  // namespace starlink
