// Telemetry layer tests: metrics primitives, the span buffer/tracer, and an
// end-to-end check that a bridged SLP -> UPnP conversation produces a
// coherent span tree whose legs tile the paper's translation-time window
// (Fig 12(b)) and agree with the engine's counters.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/span.hpp"
#include "core/telemetry/trace_export.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/ssdp/ssdp_agents.hpp"
#include "sim_fixture.hpp"

namespace starlink {
namespace {

using testing::SimTest;

// -- metrics primitives -----------------------------------------------------

TEST(Histogram, BucketsObservationsWithLeSemantics) {
    telemetry::Histogram h({1.0, 2.0, 4.0});
    for (const double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h.observe(v);

    // Per-bin storage: (<=1), (<=2), (<=4), +Inf.
    EXPECT_EQ(h.bucketCounts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 106.0);
}

TEST(Histogram, RejectsMalformedBounds) {
    EXPECT_THROW(telemetry::Histogram({}), std::invalid_argument);
    EXPECT_THROW(telemetry::Histogram({1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(telemetry::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, MergeAddsCountsAndRejectsMismatchedBounds) {
    telemetry::Histogram a({10.0, 20.0});
    telemetry::Histogram b({10.0, 20.0});
    a.observe(5.0);
    b.observe(15.0);
    b.observe(50.0);

    a.merge(b);
    EXPECT_EQ(a.bucketCounts(), (std::vector<std::uint64_t>{1, 1, 1}));
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 70.0);

    telemetry::Histogram other({1.0, 2.0});
    EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndBoundsAreSticky) {
    auto& registry = telemetry::MetricsRegistry::global();
    auto& c1 = registry.counter("test_registry_counter_total");
    auto& c2 = registry.counter("test_registry_counter_total");
    EXPECT_EQ(&c1, &c2);

    auto& h1 = registry.histogram("test_registry_histogram", {1.0, 2.0});
    auto& h2 = registry.histogram("test_registry_histogram", {1.0, 2.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_THROW(registry.histogram("test_registry_histogram", {3.0, 4.0}),
                 std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusRenderExpandsHistogramsAndEscapesLabels) {
    auto& registry = telemetry::MetricsRegistry::global();
    registry.counter(telemetry::labeled("test_render_total", {{"kind", "a\"b"}})).add(3);
    auto& h = registry.histogram("test_render_ms", {1.0, 2.0});
    h.observe(0.5);
    h.observe(10.0);

    const std::string text = registry.renderPrometheus(1234567);
    EXPECT_NE(text.find("starlink_virtual_time_us 1234567"), std::string::npos);
    EXPECT_NE(text.find("test_render_total{kind=\"a\\\"b\"} 3"), std::string::npos);
    EXPECT_NE(text.find("# TYPE test_render_ms histogram"), std::string::npos);
    // Cumulative le buckets plus the implicit +Inf, then _sum/_count.
    EXPECT_NE(text.find("test_render_ms_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("test_render_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
    EXPECT_NE(text.find("test_render_ms_count 2"), std::string::npos);
}

// -- span buffer + tracer ---------------------------------------------------

TEST(SpanBuffer, OverflowKeepsNewestAndCountsDropped) {
    telemetry::SpanBuffer buffer(3);
    for (int i = 1; i <= 5; ++i) {
        telemetry::Span span;
        span.id = static_cast<telemetry::SpanId>(i);
        span.name = "s" + std::to_string(i);
        buffer.push(std::move(span));
    }
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.dropped(), 2u);

    const auto spans = buffer.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "s3");  // oldest retained first
    EXPECT_EQ(spans[2].name, "s5");
}

TEST(SpanBuffer, ZeroCapacityDisablesRecording) {
    telemetry::SpanBuffer buffer(0);
    buffer.push(telemetry::Span{});
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.dropped(), 1u);

    telemetry::SessionTracer tracer(buffer);
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.beginSession(net::TimePoint{}), 0u);
}

TEST(SessionTracer, BuildsNestedTreeAndForceClosesStragglers) {
    telemetry::SpanBuffer buffer(16);
    telemetry::SessionTracer tracer(buffer);
    const net::TimePoint t0{};

    const auto root = tracer.beginSession(t0);
    ASSERT_NE(root, 0u);
    EXPECT_TRUE(tracer.inSession());
    EXPECT_EQ(tracer.sessionOrdinal(), 1u);

    // parent 0 attaches to the session root; explicit parents nest deeper.
    const auto leg = tracer.begin("leg", t0 + net::ms(1));
    tracer.instant("child", t0 + net::ms(2), /*wallNs=*/777, leg);
    tracer.attr(leg, "k", "v");
    tracer.end(leg, t0 + net::ms(5));

    const auto straggler = tracer.begin("straggler", t0 + net::ms(6));
    (void)straggler;
    tracer.endSession(t0 + net::ms(10));
    EXPECT_FALSE(tracer.inSession());

    std::map<std::string, telemetry::Span> byName;
    for (const auto& span : buffer.snapshot()) byName[span.name] = span;
    ASSERT_EQ(byName.size(), 4u);
    EXPECT_EQ(byName["leg"].parent, root);
    EXPECT_EQ(byName["child"].parent, byName["leg"].id);
    EXPECT_EQ(byName["child"].wallNs, 777u);
    ASSERT_NE(byName["leg"].attr("k"), nullptr);
    EXPECT_EQ(*byName["leg"].attr("k"), "v");
    // The straggler was clamped to the session end, not lost.
    EXPECT_EQ(byName["straggler"].end, t0 + net::ms(10));
    EXPECT_EQ(byName["session"].session, 1u);
    for (const auto& [name, span] : byName) EXPECT_EQ(span.session, 1u) << name;
}

// -- minimal JSON reader for the Chrome trace round-trip --------------------
//
// Just enough JSON to re-read what trace_export writes: validates syntax and
// flattens each object of "traceEvents" into its string/number fields.

class MiniJson {
public:
    explicit MiniJson(const std::string& text) : s_(text) {}

    /// Parses the whole document; returns false on any syntax error.
    bool parse() {
        skipWs();
        if (!value(nullptr)) return false;
        skipWs();
        return i_ == s_.size();
    }

    const std::vector<std::map<std::string, std::string>>& events() const { return events_; }

private:
    bool value(std::map<std::string, std::string>* flat, const std::string& key = "") {
        if (i_ >= s_.size()) return false;
        switch (s_[i_]) {
            case '{': return object(nullptr);
            case '[': return array(key == "traceEvents");
            case '"': {
                std::string out;
                if (!string(&out)) return false;
                if (flat != nullptr) (*flat)[key] = out;
                return true;
            }
            default: {
                const std::size_t start = i_;
                while (i_ < s_.size() && std::string("+-.0123456789eEtruefalsn").find(s_[i_]) !=
                                             std::string::npos) {
                    ++i_;
                }
                if (i_ == start) return false;
                if (flat != nullptr) (*flat)[key] = s_.substr(start, i_ - start);
                return true;
            }
        }
    }

    bool object(std::map<std::string, std::string>* flat) {
        ++i_;  // '{'
        skipWs();
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key)) return false;
            skipWs();
            if (i_ >= s_.size() || s_[i_] != ':') return false;
            ++i_;
            skipWs();
            if (!value(flat, key)) return false;
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != '}') return false;
        return ++i_, true;
    }

    bool array(bool isEvents) {
        ++i_;  // '['
        skipWs();
        if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
        while (true) {
            skipWs();
            if (isEvents) {
                if (i_ >= s_.size() || s_[i_] != '{') return false;
                inEvents_ = true;
                std::map<std::string, std::string> flat;
                const std::size_t start = i_;
                ++i_;
                skipWs();
                bool ok = true;
                if (s_[i_] != '}') {
                    i_ = start;
                    ok = eventObject(&flat);
                } else {
                    ++i_;
                }
                inEvents_ = false;
                if (!ok) return false;
                events_.push_back(std::move(flat));
            } else if (!value(nullptr)) {
                return false;
            }
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != ']') return false;
        return ++i_, true;
    }

    /// An event object: top-level string/number fields land in `flat`;
    /// nested objects ("args") are validated but flattened one level down
    /// with their keys ("args.wall_ns").
    bool eventObject(std::map<std::string, std::string>* flat, const std::string& prefix = "") {
        ++i_;  // '{'
        skipWs();
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key)) return false;
            skipWs();
            if (i_ >= s_.size() || s_[i_] != ':') return false;
            ++i_;
            skipWs();
            if (i_ < s_.size() && s_[i_] == '{') {
                if (!eventObject(flat, prefix + key + ".")) return false;
            } else if (!value(flat, prefix + key)) {
                return false;
            }
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != '}') return false;
        return ++i_, true;
    }

    bool string(std::string* out) {
        if (i_ >= s_.size() || s_[i_] != '"') return false;
        ++i_;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\') {
                ++i_;
                if (i_ >= s_.size()) return false;
                switch (s_[i_]) {
                    case 'n': *out += '\n'; break;
                    case 't': *out += '\t'; break;
                    default: *out += s_[i_];
                }
            } else {
                *out += s_[i_];
            }
            ++i_;
        }
        if (i_ >= s_.size()) return false;
        ++i_;  // closing quote
        return true;
    }

    void skipWs() {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
                                  s_[i_] == '\r')) {
            ++i_;
        }
    }

    const std::string& s_;
    std::size_t i_ = 0;
    bool inEvents_ = false;
    std::vector<std::map<std::string, std::string>> events_;
};

// -- end-to-end: bridged SLP -> UPnP span tree ------------------------------

class TelemetrySpanTest : public SimTest {
protected:
    void SetUp() override { telemetry::setEnabled(true); }
    void TearDown() override { telemetry::setEnabled(false); }

    bridge::Starlink starlink{network};

    bridge::DeployedBridge& deploySlpToUpnp(std::size_t spanCapacity) {
        engine::EngineOptions options;
        options.spanCapacity = spanCapacity;
        return starlink.deploy(bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9"),
                               "10.0.0.9", options);
    }

    ssdp::Device::Config fastDevice() {
        ssdp::Device::Config config;
        config.responseDelayBase = net::ms(5);
        config.responseDelayJitter = net::ms(1);
        return config;
    }
};

TEST_F(TelemetrySpanTest, BridgedSessionProducesCoherentSpanTree) {
    constexpr int kLookups = 3;
    auto& engineCounters = telemetry::MetricsRegistry::global();
    auto& messagesIn = engineCounters.counter(
        telemetry::labeled("starlink_engine_messages_in_total", {{"bridge", "slp-to-upnp"}}));
    auto& messagesOut = engineCounters.counter(
        telemetry::labeled("starlink_engine_messages_out_total", {{"bridge", "slp-to-upnp"}}));
    const auto inBefore = messagesIn.value();
    const auto outBefore = messagesOut.value();

    auto& deployed = deploySlpToUpnp(4096);
    ssdp::Device device(network, fastDevice());
    slp::UserAgent client(network, slp::UserAgent::Config{});
    int successes = 0;
    for (int i = 0; i < kLookups; ++i) {
        client.lookup("service:printer", [&successes](const slp::UserAgent::Result& result) {
            if (!result.urls.empty()) ++successes;
        });
        run();
    }
    EXPECT_EQ(successes, kLookups);

    const auto& sessions = deployed.engine().sessions();
    ASSERT_EQ(sessions.size(), static_cast<std::size_t>(kLookups));
    for (const auto& session : sessions) EXPECT_TRUE(session.completed);

    // Index the spans per session / per leg name.
    struct PerSession {
        std::vector<telemetry::Span> parse, compose, translate, wait, retransmit;
        int roots = 0;
    };
    std::map<std::uint64_t, PerSession> perSession;
    const auto spans = deployed.engine().spans().snapshot();
    ASSERT_FALSE(spans.empty());
    for (const auto& span : spans) {
        ASSERT_GE(span.session, 1u);
        ASSERT_LE(span.session, sessions.size());
        auto& bucket = perSession[span.session];
        if (span.name == "session") ++bucket.roots;
        if (span.name == "parse") bucket.parse.push_back(span);
        if (span.name == "compose") bucket.compose.push_back(span);
        if (span.name == "translate") bucket.translate.push_back(span);
        if (span.name == "receive-wait") bucket.wait.push_back(span);
        if (span.name == "retransmit") bucket.retransmit.push_back(span);
    }
    ASSERT_EQ(perSession.size(), sessions.size());

    std::size_t totalIn = 0, totalOut = 0;
    for (std::uint64_t ordinal = 1; ordinal <= sessions.size(); ++ordinal) {
        const auto& record = sessions[ordinal - 1];
        const auto& legs = perSession[ordinal];
        EXPECT_EQ(legs.roots, 1) << "session " << ordinal;

        // Counter/span agreement: every received message was parsed, every
        // sent message left through a translate window or a retransmission.
        EXPECT_EQ(legs.parse.size(), record.messagesIn) << "session " << ordinal;
        EXPECT_EQ(legs.translate.size() + legs.retransmit.size(), record.messagesOut)
            << "session " << ordinal;
        totalIn += record.messagesIn;
        totalOut += record.messagesOut;

        // The virtually-instant legs carry real wall-clock cost.
        for (const auto& span : legs.parse) EXPECT_GT(span.wallNs, 0u);
        for (const auto& span : legs.compose) EXPECT_GT(span.wallNs, 0u);

        // Leg tiling: translate + receive-wait (up to the client reply)
        // cover the translation window exactly.
        const net::TimePoint replyAt = record.clientReply.value_or(record.lastSend);
        net::Duration covered{};
        for (const auto& span : legs.translate) {
            if (span.end <= replyAt) covered += span.duration();
        }
        for (const auto& span : legs.wait) {
            if (span.end <= replyAt) covered += span.duration();
        }
        EXPECT_EQ(covered, record.translationTime()) << "session " << ordinal;
    }
    EXPECT_EQ(messagesIn.value() - inBefore, totalIn);
    EXPECT_EQ(messagesOut.value() - outBefore, totalOut);

    // Chrome trace round-trip: the export is valid JSON, one complete event
    // per span (plus metadata), timestamps in virtual microseconds.
    const std::string json = telemetry::toChromeTrace(deployed.engine().spans(), "test-bridge");
    MiniJson reader(json);
    ASSERT_TRUE(reader.parse()) << json.substr(0, 400);
    std::size_t complete = 0, metadata = 0;
    bool sawWait = false;
    for (const auto& event : reader.events()) {
        ASSERT_TRUE(event.count("ph"));
        if (event.at("ph") == "X") {
            ++complete;
            EXPECT_TRUE(event.count("ts"));
            EXPECT_TRUE(event.count("dur"));
            EXPECT_TRUE(event.count("pid"));
            EXPECT_TRUE(event.count("tid"));
            if (event.at("name") == "receive-wait") sawWait = true;
        } else {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, spans.size());
    EXPECT_GT(metadata, 0u);
    EXPECT_TRUE(sawWait);
}

TEST_F(TelemetrySpanTest, SpanBufferOverflowSurfacesInDroppedCount) {
    auto& deployed = deploySlpToUpnp(4);  // far too small for one session
    ssdp::Device device(network, fastDevice());
    slp::UserAgent client(network, slp::UserAgent::Config{});
    client.lookup("service:printer", [](const slp::UserAgent::Result&) {});
    run();

    EXPECT_EQ(deployed.engine().spans().size(), 4u);
    EXPECT_GT(deployed.engine().spans().dropped(), 0u);
}

class TelemetryDisabledTest : public SimTest {
protected:
    bridge::Starlink starlink{network};
};

TEST_F(TelemetryDisabledTest, DisabledTelemetryRecordsNothing) {
    ASSERT_FALSE(telemetry::enabled());

    auto& deployed = starlink.deploy(
        bridge::models::forCase(bridge::models::Case::SlpToUpnp, "10.0.0.9"), "10.0.0.9");
    const std::string before = telemetry::MetricsRegistry::global().renderPrometheus();

    ssdp::Device device(network, ssdp::Device::Config{});
    slp::UserAgent client(network, slp::UserAgent::Config{});
    bool success = false;
    client.lookup("service:printer",
                  [&success](const slp::UserAgent::Result& result) { success = !result.urls.empty(); });
    run();
    EXPECT_TRUE(success);

    // Default EngineOptions: spans off; disabled flag: no metric moved.
    EXPECT_EQ(deployed.engine().spans().capacity(), 0u);
    EXPECT_EQ(deployed.engine().spans().size(), 0u);
    EXPECT_EQ(telemetry::MetricsRegistry::global().renderPrometheus(), before);
}

}  // namespace
}  // namespace starlink
