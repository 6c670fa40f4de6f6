// Span read-out, codec replay, and the derivation of per-layer rows.
#include <algorithm>
#include <cmath>

#include "core/mdl/codec.hpp"
#include "core/mdl/rx_arena.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace starlink;

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double slicedQuantile(const std::vector<double>& values, double q) {
    if (values.size() < kLatencySlice) return quantile(values, q);
    std::vector<double> perSlice;
    for (auto slice = values.begin(); values.end() - slice >= std::ptrdiff_t{kLatencySlice};
         slice += std::ptrdiff_t{kLatencySlice}) {
        perSlice.push_back(quantile({slice, slice + std::ptrdiff_t{kLatencySlice}}, q));
    }
    return median(std::move(perSlice));
}

namespace {
volatile std::uint64_t gCalibrationSink = 0;
}  // namespace

std::uint64_t calibrationNs() {
    AllocPause pause;
    const std::uint64_t start = nowNs();
    std::map<std::uint32_t, std::string> table;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;
    for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto key = static_cast<std::uint32_t>(x % 1024);
        std::string& slot = table[key];
        slot.assign(16 + x % 48, static_cast<char>('a' + x % 26));
        if ((x & 1) != 0) {
            const auto it = table.find(key ^ 5);
            if (it != table.end()) sum += it->second.size();
        }
        if ((x & 7) == 3) table.erase(key ^ 9);
        const std::vector<std::uint8_t> copy(slot.begin(), slot.end());
        sum += copy[copy.size() / 2];
    }
    // Random reads over a buffer larger than a core's share of cache, so the
    // loop feels the memory contention the bridge's working set does.
    static const std::vector<std::uint64_t> memory(1 << 19, 0x5bd1e995);
    for (int i = 0; i < 8000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += memory[x & (memory.size() - 1)];
    }
    gCalibrationSink = sum + table.size();
    return nowNs() - start;
}

double hostSlowdown(std::uint64_t calibrationBeforeNs, std::uint64_t calibrationAfterNs) {
    return static_cast<double>(calibrationBeforeNs + calibrationAfterNs) / 2.0 /
           kReferenceCalibrationNs;
}

void SpanReader::drain(const engine::AutomataEngine& engine, SpanLegs& into) {
    const telemetry::SpanBuffer& buffer = engine.spans();
    if (buffer.size() == 0) return;
    AllocPause pause;
    std::uint64_t newest = lastId_;
    std::size_t fresh = 0;
    for (const telemetry::Span& span : buffer.snapshot()) {
        if (span.id <= lastId_) continue;
        ++fresh;
        newest = std::max(newest, span.id);
        if (span.name == "parse") {
            into.parseNs += span.wallNs;
        } else if (span.name == "translation-logic") {
            into.translationLogicNs += span.wallNs;
        } else if (span.name == "compose") {
            into.composeNs += span.wallNs;
        } else if (span.name == "send") {
            into.sendNs += span.wallNs;
        }
    }
    lastId_ = newest;
    // A ring entirely of unread spans may have evicted unread ones too.
    if (fresh >= buffer.capacity()) ++into.overruns;
}

namespace {

const char* dialectName(mdl::MdlKind kind) {
    switch (kind) {
        case mdl::MdlKind::Binary: return "binary";
        case mdl::MdlKind::Text: return "text";
        case mdl::MdlKind::Xml: return "xml";
    }
    return "binary";
}

struct ReplayItem {
    std::shared_ptr<mdl::MessageCodec> codec;
    const Bytes* payload = nullptr;
    AbstractMessage parsed;  // owning parse, the compose input
};

/// Median over timed passes of ns per message; each pass runs `body` over
/// every item once.
template <typename Body>
double timePerMessage(const std::vector<ReplayItem>& items, double seconds, Body&& body) {
    std::vector<double> passes;
    const std::uint64_t deadline = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        const std::uint64_t start = nowNs();
        for (const ReplayItem& item : items) body(item);
        passes.push_back(static_cast<double>(nowNs() - start) /
                         static_cast<double>(items.size()));
    } while (nowNs() < deadline || passes.size() < 5);
    return median(std::move(passes));
}

template <typename Body>
double allocsPerMessage(const std::vector<ReplayItem>& items, Body&& body) {
    setAllocCounting(true);
    const AllocCounts before = allocTotal();
    for (const ReplayItem& item : items) body(item);
    const AllocCounts after = allocTotal();
    setAllocCounting(false);
    return static_cast<double>(after.count - before.count) / static_cast<double>(items.size());
}

}  // namespace

std::map<std::string, CodecCost> replayCodecs(const std::vector<CapturedMessage>& messages,
                                              double secondsPerDialect) {
    constexpr std::size_t kMaxPerDialect = 400;
    std::map<const engine::AutomataEngine*, std::vector<std::shared_ptr<mdl::MessageCodec>>>
        codecsOf;
    std::map<std::string, std::vector<ReplayItem>> byDialect;
    for (const CapturedMessage& message : messages) {
        auto& codecs = codecsOf[message.engine];
        if (codecs.empty()) {
            for (const auto& component : message.engine->merged().components()) {
                if (auto codec = message.engine->codecForColor(component->color())) {
                    codecs.push_back(std::move(codec));
                }
            }
        }
        // The owning codec is the first that both parses the payload and
        // composes the result back (an SSDP reply may also parse as HTTP).
        for (const auto& codec : codecs) {
            std::string error;
            auto parsed = codec->parse(message.payload, nullptr, &error);
            if (!parsed) continue;
            try {
                Bytes scratch;
                codec->composeInto(*parsed, scratch);
            } catch (const std::exception&) {
                continue;
            }
            auto& items = byDialect[dialectName(codec->document().kind())];
            if (items.size() < kMaxPerDialect) {
                items.push_back({codec, &message.payload, std::move(*parsed)});
            }
            break;
        }
    }

    std::map<std::string, CodecCost> costs;
    for (const auto& [dialect, items] : byDialect) {
        mdl::RxArena arena;
        std::string error;
        Bytes scratch;
        const auto parse = [&](const ReplayItem& item) {
            { auto parsed = item.codec->parse(*item.payload, &arena, &error); }
            arena.reset();
        };
        const auto compose = [&](const ReplayItem& item) {
            item.codec->composeInto(item.parsed, scratch);
        };
        // Warm the arena and scratch buffer, as the engine's are warm.
        for (const ReplayItem& item : items) {
            parse(item);
            compose(item);
        }
        CodecCost cost;
        cost.parseAllocs = allocsPerMessage(items, parse);
        cost.composeAllocs = allocsPerMessage(items, compose);
        cost.parseNs = timePerMessage(items, secondsPerDialect / 2, parse);
        cost.composeNs = timePerMessage(items, secondsPerDialect / 2, compose);
        costs[dialect] = cost;
    }
    return costs;
}

namespace {

double perLookup(double total, double lookups) { return lookups > 0 ? total / lookups : 0; }

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

std::vector<Metric> perLayerMetrics(const TracedPass& pass, const LayerContext& context) {
    const double n = pass.lookups;
    const LayerStats& l = pass.layers;
    const double rxUs = perLookup(static_cast<double>(l.rxNs) / 1e3, n);
    const double timerUs = perLookup(static_cast<double>(l.timerNs) / 1e3, n);
    const double legsUs = perLookup(static_cast<double>(pass.legs.total()) / 1e3, n);
    const double wallUs = perLookup(pass.wallNs / 1e3, n);
    const double windowTotal = perLookup(static_cast<double>(pass.windowTotal.count),
                                         pass.windowLookups);
    const double windowBridge = perLookup(static_cast<double>(pass.windowBridge.count),
                                          pass.windowLookups);

    std::vector<Metric> rows = {
        {"engine.rx_us_per_lookup", rxUs, "us"},
        {"engine.timer_us_per_lookup", timerUs, "us"},
        {"engine.timers_per_lookup", perLookup(static_cast<double>(l.timersFired), n), "count"},
        {"engine.timers_cancelled_share",
         share(static_cast<double>(l.timersCancelled), static_cast<double>(l.timersScheduled)),
         "share"},
        {"engine.allocs_per_lookup", windowBridge, "count"},
        {"engine.heap_kib_per_lookup",
         perLookup(static_cast<double>(pass.windowBridge.bytes) / 1024.0, pass.windowLookups),
         "KiB"},
        {"engine.sessions_per_lookup", perLookup(static_cast<double>(pass.sessions), n), "count"},
        {"engine.retransmits_per_lookup", perLookup(static_cast<double>(pass.retransmits), n),
         "count"},
        {"engine.aborts_per_lookup", perLookup(static_cast<double>(pass.aborts), n), "count"},
        {"engine.datagrams_in_per_lookup",
         perLookup(static_cast<double>(l.messagesDelivered), n), "count"},
        {"engine.unclaimed_share",
         l.messagesDelivered > 0
             ? 1.0 - static_cast<double>(pass.messagesIn) /
                         static_cast<double>(l.messagesDelivered)
             : 0.0,
         "share"},
        {"automata.step_us_per_lookup", rxUs + timerUs - legsUs, "us"},
    };
    for (const char* dialect : {"binary", "text", "xml"}) {
        const auto it = context.codecs.find(dialect);
        const CodecCost cost = it != context.codecs.end() ? it->second : CodecCost{};
        const std::string d = dialect;
        rows.push_back({"mdl.parse_ns." + d, cost.parseNs, "ns"});
        rows.push_back({"mdl.compose_ns." + d, cost.composeNs, "ns"});
        rows.push_back({"mdl.parse_allocs." + d, cost.parseAllocs, "count"});
        rows.push_back({"mdl.compose_allocs." + d, cost.composeAllocs, "count"});
    }
    const std::vector<Metric> tail = {
        {"mdl.msgs_per_lookup",
         perLookup(static_cast<double>(l.messagesDelivered + l.txMsgs), n), "count"},
        {"span.parse_us_per_lookup", perLookup(static_cast<double>(pass.legs.parseNs) / 1e3, n),
         "us"},
        {"merge.translation_logic_us_per_lookup",
         perLookup(static_cast<double>(pass.legs.translationLogicNs) / 1e3, n), "us"},
        {"span.compose_us_per_lookup",
         perLookup(static_cast<double>(pass.legs.composeNs) / 1e3, n), "us"},
        {"span.send_us_per_lookup", perLookup(static_cast<double>(pass.legs.sendNs) / 1e3, n),
         "us"},
        {"net.tx_us_per_lookup", perLookup(static_cast<double>(l.txNs) / 1e3, n), "us"},
        {"net.tx_msgs_per_lookup", perLookup(static_cast<double>(l.txMsgs), n), "count"},
        {"net.tx_bytes_per_lookup", perLookup(static_cast<double>(l.txBytes), n), "B"},
        {"net.loop_busy_share",
         share(static_cast<double>(l.rxNs + l.timerNs), static_cast<double>(l.loopNs)), "share"},
        {"bridge.registry_load_ms", context.registryMs, "ms"},
        {"bridge.deploy_ms", context.deployMs, "ms"},
        {"telemetry.trace_overhead_pct", context.traceOverheadPct, "%"},
        {"telemetry.recorder_overhead_pct", context.recorderOverheadPct, "%"},
        {"harness.us_per_lookup", wallUs - rxUs - timerUs, "us"},
        {"harness.allocs_per_lookup", windowTotal - windowBridge, "count"},
        {"lookup_fail_share", context.failShare, "share"},
    };
    rows.insert(rows.end(), tail.begin(), tail.end());
    return rows;
}

bool closureHolds(const TracedPass& pass, std::vector<std::string>& notes) {
    const double engineNs = static_cast<double>(pass.layers.rxNs + pass.layers.timerNs);
    const double legsNs = static_cast<double>(pass.legs.total());
    bool ok = true;
    if (legsNs > engineNs) {
        notes.push_back("closure FAILED: span legs " + std::to_string(legsNs) +
                        " ns exceed engine rx + timer " + std::to_string(engineNs) + " ns");
        ok = false;
    }
    if (engineNs > pass.wallNs) {
        notes.push_back("closure FAILED: engine rx + timer " + std::to_string(engineNs) +
                        " ns exceed the lookup wall " + std::to_string(pass.wallNs) + " ns");
        ok = false;
    }
    if (pass.legs.overruns > 0) {
        notes.push_back("closure FAILED: the span ring filled between " +
                        std::to_string(pass.legs.overruns) + " read-outs");
        ok = false;
    }
    return ok;
}

std::string accountingIdentity(const TracedPass& pass) {
    const std::uint64_t delivered = pass.layers.messagesDelivered;
    const std::uint64_t claimed = pass.messagesIn;
    const std::int64_t unclaimed =
        static_cast<std::int64_t>(delivered) - static_cast<std::int64_t>(claimed);
    return "accounting: delivered to bridge handlers " + std::to_string(delivered) +
           " = sum(messagesIn) " + std::to_string(claimed) + " + unclaimed " +
           std::to_string(unclaimed);
}

}  // namespace perfbench
