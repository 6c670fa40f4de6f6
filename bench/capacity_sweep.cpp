// Capacity sweep: the allocation and overload profile behind the
// million-session headline.
//
// Every row is DETERMINISTIC -- no wall clocks anywhere:
//
//   parse_allocs_per_msg_*    global counting operator new/delete over the
//                             valid-message corpus, once through the owning
//                             parse path (heap std::strings per field) and
//                             once through the zero-copy path (string_views
//                             over a pooled RxArena, reset per pass like the
//                             engine resets per session). The harness FAILS
//                             unless the arena path allocates >= 30% less.
//   session_*_per_session     marginal heap cost of one full SLP->UPnP bridge
//                             session through the shard engine, measured as
//                             the allocation delta between a 16-session and a
//                             144-session run (differencing cancels the fixed
//                             deploy/teardown cost).
//   overload_p99_*            p99 translation time (virtual) of the admitted
//                             half of a 2x-overload burst: 64 mixed-direction
//                             jobs against maxPendingPerShard=32. The shed
//                             half must carry engine.overload, never block.
//   history_*/projected_*     bounded-residency figures: a 100k-session
//                             replay against the default 4096-record ring,
//                             and the records-per-GiB projection from
//                             sizeof(SessionRecord).
//
// Allocation counts are structural (libstdc++ container growth), so they are
// stable run-to-run on one toolchain; the committed baseline is gated with
// bench_compare.py --absolute like the other virtual-time benches.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/bridge/models.hpp"
#include "core/engine/session_history.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/mdl/codec.hpp"
#include "core/mdl/rx_arena.hpp"
#include "stats.hpp"

namespace {

/// Allocations so far, from the counting operator new of alloc_counter.cpp.
struct AllocSnapshot {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

AllocSnapshot snapshotAllocs() {
    return {starlink::testing::allocCalls(), starlink::testing::allocBytes()};
}

using namespace starlink;
using bridge::models::Case;
using bridge::models::kAllCases;

constexpr int kParseWarmupPasses = 4;
constexpr int kParseMeasurePasses = 64;
constexpr double kRequiredParseSavingsPct = 30.0;

constexpr int kSessionRunSmall = 16;
constexpr int kSessionRunLarge = 144;

constexpr std::size_t kOverloadAdmitted = 32;
constexpr std::size_t kOverloadSubmitted = 64;  // 2x the admission capacity

constexpr std::size_t kResidencyReplay = 100'000;

// -- corpus -----------------------------------------------------------------
// The same valid wire images the codec fuzz corpus pins (selector byte
// stripped): binary payloads as hex, the HTTP-shaped text ones verbatim.

Bytes fromHex(const char* hex) {
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
        return -1;
    };
    Bytes out;
    int high = -1;
    for (const char* p = hex; *p != '\0'; ++p) {
        const int n = nibble(*p);
        if (n < 0) continue;
        if (high < 0) {
            high = n;
        } else {
            out.push_back(static_cast<std::uint8_t>((high << 4) | n));
            high = -1;
        }
    }
    return out;
}

Bytes fromText(const char* text) {
    const auto* begin = reinterpret_cast<const std::uint8_t*>(text);
    return Bytes(begin, begin + std::strlen(text));
}

struct CorpusEntry {
    const char* name;
    Bytes wire;
};

std::vector<CorpusEntry> buildCorpus() {
    std::vector<CorpusEntry> corpus;
    corpus.push_back({"slp-request",
                      fromHex("02010000340000000000000b0002656e0000000f73657276"
                              "6963653a7072696e746572000d28636f6c6f75723d747275"
                              "65290000")});
    corpus.push_back({"slp-reply",
                      fromHex("020200003d0000000000000b0002656e0000000100ffff00"
                              "24736572766963653a7072696e7465723a2f2f31302e302e"
                              "302e333a3531352f7175657565")});
    corpus.push_back({"ssdp-msearch",
                      fromText("M-SEARCH * HTTP/1.1\r\n"
                               "HOST: 239.255.255.250:1900\r\n"
                               "MAN: \"ssdp:discover\"\r\n"
                               "MX: 2\r\n"
                               "ST: urn:schemas-upnp-org:service:printer:1\r\n\r\n")});
    corpus.push_back({"ssdp-response",
                      fromText("HTTP/1.1 200 OK\r\n"
                               "CACHE-CONTROL: max-age=1800\r\n"
                               "EXT: \r\n"
                               "LOCATION: http://10.0.0.3:8080/description.xml\r\n"
                               "SERVER: Starlink-Sim/1.0 UPnP/1.0\r\n"
                               "ST: urn:schemas-upnp-org:service:printer:1\r\n"
                               "USN: uuid:device-1::urn:schemas-upnp-org:service:printer:1\r\n"
                               "\r\n")});
    corpus.push_back({"dns-question",
                      fromHex("000700000001000000000000085f7072696e746572045f74"
                              "6370056c6f63616c00000c0001")});
    corpus.push_back({"dns-response",
                      fromHex("000784000000000100000000085f7072696e746572045f74"
                              "6370056c6f63616c0000100001000000780017687474703a"
                              "2f2f31302e302e302e333a3633312f697070")});
    corpus.push_back({"http-request",
                      fromText("GET /description.xml HTTP/1.1\r\n"
                               "Host: 10.0.0.3:8080\r\n\r\n")});
    corpus.push_back({"http-response",
                      fromText("HTTP/1.1 200 OK\r\n"
                               "Content-Type: text/xml\r\n"
                               "Content-Length: 22\r\n\r\n"
                               "<root><device/></root>")});
    return corpus;
}

/// All four MDL codecs the six bridge directions deploy (SLP, SSDP, DNS,
/// HTTP), deduped by protocol name.
std::vector<std::shared_ptr<mdl::MessageCodec>> buildCodecs() {
    std::vector<std::shared_ptr<mdl::MessageCodec>> codecs;
    for (const Case c : {Case::SlpToUpnp, Case::SlpToBonjour}) {
        const auto spec = bridge::models::forCase(c, "10.0.0.9");
        for (const auto& protocol : spec.protocols) {
            auto codec = mdl::MessageCodec::fromXml(protocol.mdlXml);
            const auto known = std::find_if(
                codecs.begin(), codecs.end(),
                [&codec](const auto& have) { return have->protocol() == codec->protocol(); });
            if (known == codecs.end()) codecs.push_back(std::move(codec));
        }
    }
    return codecs;
}

struct ParsePathCost {
    double allocsPerMsg = 0;
    double bytesPerMsg = 0;
    std::size_t messages = 0;
};

/// One measured sweep over the corpus: `arena` null = owning path. Consumes
/// the parsed message each iteration so destruction cost is counted too.
ParsePathCost measureParsePath(
    const std::vector<std::pair<const mdl::MessageCodec*, const CorpusEntry*>>& matched,
    mdl::RxArena* arena) {
    auto onePass = [&matched, arena]() {
        for (const auto& [codec, entry] : matched) {
            std::string error;
            auto message = codec->parse(entry->wire, arena, &error);
            if (!message.has_value()) {
                std::fprintf(stderr, "FATAL: %s stopped parsing mid-bench: %s\n", entry->name,
                             error.c_str());
                std::exit(1);
            }
        }
        if (arena != nullptr) arena->reset();  // the per-session boundary
    };

    for (int i = 0; i < kParseWarmupPasses; ++i) onePass();
    const AllocSnapshot before = snapshotAllocs();
    for (int i = 0; i < kParseMeasurePasses; ++i) onePass();
    const AllocSnapshot after = snapshotAllocs();

    ParsePathCost cost;
    cost.messages = matched.size() * kParseMeasurePasses;
    cost.allocsPerMsg = static_cast<double>(after.calls - before.calls) /
                        static_cast<double>(cost.messages);
    cost.bytesPerMsg = static_cast<double>(after.bytes - before.bytes) /
                       static_cast<double>(cost.messages);
    return cost;
}

/// Full shard-engine lifecycle (construct, submit, run, destruct) of
/// `sessions` clean SLP->UPnP sessions; returns the allocation total.
AllocSnapshot runSessionBatch(int sessions) {
    const AllocSnapshot before = snapshotAllocs();
    {
        engine::ShardEngineOptions options;
        options.shards = 1;
        engine::ShardEngine shardEngine(options);
        for (int i = 0; i < sessions; ++i) {
            engine::SessionJob job;
            job.caseId = Case::SlpToUpnp;
            job.key = "cap-" + std::to_string(i);
            shardEngine.submit(job);
        }
        shardEngine.run();
        std::size_t completed = 0;
        for (const auto& report : shardEngine.reports()) completed += report.completedSessions;
        if (completed != static_cast<std::size_t>(sessions)) {
            std::fprintf(stderr, "FATAL: session batch completed %zu of %d sessions\n", completed,
                         sessions);
            std::exit(1);
        }
    }
    const AllocSnapshot after = snapshotAllocs();
    return {after.calls - before.calls, after.bytes - before.bytes};
}

bench::JsonRow makeRow(const std::string& name, double value, std::size_t samples) {
    bench::Summary summary;
    summary.minMs = summary.medianMs = summary.maxMs = value;
    summary.samples = samples;
    return {name, summary};
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json = true;
    }

    std::vector<bench::JsonRow> rows;
    bool pass = true;
    std::printf("Capacity sweep: allocations, overload shedding, residency (deterministic)\n");

    // -- parse path: owning vs zero-copy -------------------------------------
    const auto corpus = buildCorpus();
    const auto codecs = buildCodecs();
    std::vector<std::pair<const mdl::MessageCodec*, const CorpusEntry*>> matched;
    for (const auto& entry : corpus) {
        const mdl::MessageCodec* owner = nullptr;
        for (const auto& codec : codecs) {
            if (codec->parse(entry.wire, nullptr, nullptr).has_value()) {
                owner = codec.get();
                break;
            }
        }
        if (owner == nullptr) {
            std::fprintf(stderr, "FATAL: no deployed codec parses corpus entry %s\n", entry.name);
            return 1;
        }
        matched.emplace_back(owner, &entry);
    }

    mdl::RxArena arena;
    const ParsePathCost heap = measureParsePath(matched, nullptr);
    const ParsePathCost zeroCopy = measureParsePath(matched, &arena);
    const double savingsPct =
        heap.allocsPerMsg > 0 ? 100.0 * (1.0 - zeroCopy.allocsPerMsg / heap.allocsPerMsg) : 0.0;

    std::printf("%-34s %10.2f allocs/msg %10.1f bytes/msg\n", "parse owning path",
                heap.allocsPerMsg, heap.bytesPerMsg);
    std::printf("%-34s %10.2f allocs/msg %10.1f bytes/msg (arena resident %zu KiB)\n",
                "parse zero-copy path", zeroCopy.allocsPerMsg, zeroCopy.bytesPerMsg,
                arena.bytesReserved() / 1024);
    std::printf("%-34s %10.1f%%  (gate: >= %.0f%%)\n", "parse allocation savings", savingsPct,
                kRequiredParseSavingsPct);
    rows.push_back(makeRow("parse_allocs_per_msg_heap", heap.allocsPerMsg, heap.messages));
    rows.push_back(
        makeRow("parse_allocs_per_msg_arena", zeroCopy.allocsPerMsg, zeroCopy.messages));
    rows.push_back(makeRow("parse_arena_savings_pct", savingsPct, heap.messages));
    if (savingsPct < kRequiredParseSavingsPct) {
        std::fprintf(stderr, "FAIL: zero-copy parse path saves %.1f%% allocations (< %.0f%%)\n",
                     savingsPct, kRequiredParseSavingsPct);
        pass = false;
    }

    // -- marginal heap cost of one bridge session ----------------------------
    const AllocSnapshot small = runSessionBatch(kSessionRunSmall);
    const AllocSnapshot large = runSessionBatch(kSessionRunLarge);
    const double sessionDelta = kSessionRunLarge - kSessionRunSmall;
    const double allocsPerSession =
        static_cast<double>(large.calls - small.calls) / sessionDelta;
    const double kibPerSession =
        static_cast<double>(large.bytes - small.bytes) / sessionDelta / 1024.0;
    std::printf("%-34s %10.1f allocs    %10.2f KiB heap\n", "marginal cost per session",
                allocsPerSession, kibPerSession);
    rows.push_back(makeRow("session_allocs_per_session", allocsPerSession,
                           kSessionRunLarge - kSessionRunSmall));
    rows.push_back(makeRow("session_heap_kib_per_session", kibPerSession,
                           kSessionRunLarge - kSessionRunSmall));

    // -- p99 translation under 2x overload -----------------------------------
    engine::ShardEngineOptions overload;
    overload.shards = 1;
    overload.maxPendingPerShard = kOverloadAdmitted;
    engine::ShardEngine burst(overload);
    for (std::size_t i = 0; i < kOverloadSubmitted; ++i) {
        engine::SessionJob job;
        job.caseId = kAllCases[i % 6];
        job.key = "burst-" + std::to_string(i);
        burst.submit(job);
    }
    burst.run();
    std::size_t shed = 0;
    std::vector<double> translationsMs;
    for (const auto& result : burst.results()) {
        if (result.shed) {
            ++shed;
            if (result.error != errc::ErrorCode::EngineOverload || !result.outcomes.empty()) {
                std::fprintf(stderr, "FAIL: shed job %s lacks the engine.overload code\n",
                             result.job.key.c_str());
                pass = false;
            }
            continue;
        }
        for (const auto& outcome : result.outcomes) {
            if (outcome.completed) {
                translationsMs.push_back(static_cast<double>(outcome.translationUs) / 1000.0);
            }
        }
    }
    if (shed != kOverloadSubmitted - kOverloadAdmitted) {
        std::fprintf(stderr, "FAIL: expected %zu shed jobs under 2x overload, saw %zu\n",
                     kOverloadSubmitted - kOverloadAdmitted, shed);
        pass = false;
    }
    double p99Ms = 0;
    if (!translationsMs.empty()) {
        std::sort(translationsMs.begin(), translationsMs.end());
        const std::size_t index =
            (translationsMs.size() * 99 + 99) / 100 - 1;  // ceil(0.99*n) - 1
        p99Ms = translationsMs[std::min(index, translationsMs.size() - 1)];
    }
    std::printf("%-34s %10.3f ms virtual (%zu admitted, %zu shed)\n",
                "overload p99 translation", p99Ms, translationsMs.size(), shed);
    rows.push_back(makeRow("overload_p99_translation_ms", p99Ms, translationsMs.size()));
    rows.push_back(makeRow("overload_shed_sessions", static_cast<double>(shed), shed));

    // -- bounded residency ----------------------------------------------------
    engine::SessionHistory history;  // the engine default: 4096-record ring
    for (std::size_t i = 0; i < kResidencyReplay; ++i) {
        engine::SessionRecord record;
        record.completed = (i % 2) == 0;
        if (!record.completed) {
            record.cause = engine::FailureCause::Timeout;
            record.code = errc::ErrorCode::EngineRetryExhausted;
        }
        history.record(std::move(record));
    }
    if (history.size() != engine::SessionHistory::kDefaultCapacity ||
        history.totalEnded() != kResidencyReplay) {
        std::fprintf(stderr, "FAIL: 100k replay left %zu resident records (want %zu)\n",
                     history.size(), engine::SessionHistory::kDefaultCapacity);
        pass = false;
    }
    const double recordsPerGib =
        static_cast<double>(1024ull * 1024 * 1024) / sizeof(engine::SessionRecord);
    std::printf("%-34s %10zu records after %zu sessions\n", "history residency", history.size(),
                kResidencyReplay);
    std::printf("%-34s %10.0f records/GiB (sizeof(SessionRecord)=%zu)\n",
                "projected retained capacity", recordsPerGib, sizeof(engine::SessionRecord));
    rows.push_back(makeRow("history_resident_records", static_cast<double>(history.size()),
                           kResidencyReplay));
    rows.push_back(makeRow("projected_sessions_per_gib", recordsPerGib, 1));

    if (json) {
        if (!bench::writeJson("BENCH_capacity.json", "capacity_sweep",
                              "count/ms/pct per row (deterministic)", rows)) {
            return 1;
        }
    }
    return pass ? 0 : 1;
}
