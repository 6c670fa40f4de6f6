// Flight recorder, postmortem bundles and deterministic replay.
//
// The replay-fidelity tests are the load-bearing ones: a session captured
// under seeded chaos, re-injected into a fresh island from its bundle alone,
// must reproduce the identical SessionRecord (abort code, message counts)
// and byte-identical outbound wire traffic -- across at least three bridge
// directions, as promised in docs/OBSERVABILITY.md.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/replay.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/telemetry/recorder.hpp"
#include "core/telemetry/span.hpp"
#include "protocols/peers.hpp"

namespace starlink {
namespace {

using testing::allocCalls;

using telemetry::FlightRecorder;
using telemetry::PostmortemBundle;
using telemetry::PostmortemSpool;
using telemetry::WireEvent;

Bytes payloadOf(const char* text) {
    const std::string s(text);
    return Bytes(s.begin(), s.end());
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
    FlightRecorder recorder(0);
    FlightRecorder::OpenLog session(recorder);
    EXPECT_FALSE(recorder.enabled());
    session.beginSession(1, 0);
    EXPECT_FALSE(session.inSession());
    session.recordTx(10, 7, payloadOf("x"));
    session.endSession(20, -600, 1, false, 1, 1, 0);
    EXPECT_EQ(recorder.last(), nullptr);
    EXPECT_EQ(recorder.bytesReserved(), 0u);
}

TEST(FlightRecorder, EventCodecRoundTripsEveryKind) {
    FlightRecorder recorder(64 * 1024);
    FlightRecorder::OpenLog session(recorder);
    session.beginSession(3, 100);
    ASSERT_TRUE(session.inSession());
    session.recordRx(100, 0xaabb, "10.0.0.1:427", "10.0.0.9:427", payloadOf("hello"));
    session.recordTransition(100, "SLP", "s10", "s11", WireEvent::kActionReceive,
                             "SLPSrvRequest");
    session.recordTranslate(112, "s11", "SSDP_MSearch");
    session.recordTx(112, 0xccdd, payloadOf("out-bytes"));
    session.recordConnect(150, 0xeeff, "10.0.0.1:49152", WireEvent::kConnectConnected, 2);
    session.recordFault(160, 0xeeff, WireEvent::kFaultPeerClosed, "mid-session close");
    session.endSession(200, -605, 3, false, 4, 5, 1);

    const FlightRecorder::SessionLog* log = recorder.last();
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->ordinal, 3u);
    EXPECT_FALSE(log->truncated);

    const std::vector<WireEvent> events = telemetry::decodeEvents(log->events);
    ASSERT_EQ(events.size(), 7u);

    EXPECT_EQ(events[0].kind, WireEvent::Kind::Rx);
    EXPECT_EQ(events[0].tsUs, 100);
    EXPECT_EQ(events[0].color, 0xaabbu);
    EXPECT_EQ(events[0].from, "10.0.0.1:427");
    EXPECT_EQ(events[0].to, "10.0.0.9:427");
    EXPECT_EQ(events[0].payload, payloadOf("hello"));

    EXPECT_EQ(events[1].kind, WireEvent::Kind::Transition);
    EXPECT_EQ(events[1].component, "SLP");
    EXPECT_EQ(events[1].state, "s10");
    EXPECT_EQ(events[1].stateTo, "s11");
    EXPECT_EQ(events[1].action, WireEvent::kActionReceive);
    EXPECT_EQ(events[1].messageType, "SLPSrvRequest");

    EXPECT_EQ(events[2].kind, WireEvent::Kind::Translate);
    EXPECT_EQ(events[2].state, "s11");
    EXPECT_EQ(events[2].messageType, "SSDP_MSearch");

    EXPECT_EQ(events[3].kind, WireEvent::Kind::Tx);
    EXPECT_EQ(events[3].color, 0xccddu);
    EXPECT_EQ(events[3].payload, payloadOf("out-bytes"));

    EXPECT_EQ(events[4].kind, WireEvent::Kind::TcpConnect);
    EXPECT_EQ(events[4].from, "10.0.0.1:49152");
    EXPECT_EQ(events[4].action, WireEvent::kConnectConnected);
    EXPECT_EQ(events[4].attempts, 2);

    EXPECT_EQ(events[5].kind, WireEvent::Kind::Fault);
    EXPECT_EQ(events[5].action, WireEvent::kFaultPeerClosed);
    EXPECT_EQ(events[5].from, "mid-session close");

    EXPECT_EQ(events[6].kind, WireEvent::Kind::SessionEnd);
    EXPECT_EQ(events[6].code, -605);
    EXPECT_EQ(events[6].cause, 3);
    EXPECT_FALSE(events[6].completed);
    EXPECT_EQ(events[6].messagesIn, 4u);
    EXPECT_EQ(events[6].messagesOut, 5u);
    EXPECT_EQ(events[6].retransmits, 1u);
}

Bytes fromHex(const char* hex) {
    Bytes out;
    for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2) {
        out.push_back(static_cast<std::uint8_t>(std::stoi(std::string(p, 2), nullptr, 16)));
    }
    return out;
}

// Pins the on-disk event format: a bundle's `events` blob is this log
// verbatim, and no bundle file is committed, so these bytes are the only
// guard against an encoder change that decodeEvents would still accept.
TEST(FlightRecorder, EncodingMatchesGoldenBytes) {
    constexpr std::size_t kLongString = 70000;  // past the u16 string length
    constexpr std::size_t kPayload = 20000;     // straddles a 16 KiB chunk
    FlightRecorder recorder(1024 * 1024);
    FlightRecorder::OpenLog session(recorder);
    session.beginSession(9, 100);
    session.recordRx(100, 0x0102030405060708ULL, "10.0.0.1:427", "10.0.0.9:427",
                     payloadOf("hello"));
    session.recordTransition(100, "SLP", std::string(kLongString, 'x'), "s11",
                             WireEvent::kActionReceive, "SLPSrvRequest");
    session.recordTranslate(112, "s11", "SSDP_MSearch");
    session.recordTx(112, 0xccdd, Bytes(kPayload, 0x5a));
    session.recordConnect(150, 0xeeff, "10.0.0.1:49152", WireEvent::kConnectConnected, 2);
    session.recordFault(160, 0xeeff, WireEvent::kFaultPeerClosed, "mid-session close");
    session.endSession(200, -605, 3, false, 4, 5, 1);

    // Frames: u32 body length, then u8 kind, i64 tsUs and the kind's fields,
    // little-endian; strings are u16-length-prefixed, blobs u32.
    Bytes expected = fromHex(
        "3600000001640000000000000008070605040302010c0031302e302e302e313a"
        "3432370c0031302e302e302e393a3432370500000068656c6c6f240001000464"
        "000000000000000300534c50ffff");
    expected.insert(expected.end(), 0xffff, 'x');  // the string, truncated
    const Bytes middle = fromHex(
        "0300733131000d00534c50537276526571756573741c00000005700000000000"
        "000003007331310c00535344505f4d536561726368354e000002700000000000"
        "0000ddcc000000000000204e0000");
    expected.insert(expected.end(), middle.begin(), middle.end());
    expected.insert(expected.end(), kPayload, 0x5a);
    const Bytes tail = fromHex(
        "26000000039600000000000000ffee0000000000000e0031302e302e302e313a"
        "343931353201020000002500000006a000000000000000ffee00000000000001"
        "11006d69642d73657373696f6e20636c6f73651b00000007c800000000000000"
        "a3fdffff0300040000000500000001000000");
    expected.insert(expected.end(), tail.begin(), tail.end());

    const FlightRecorder::SessionLog* log = recorder.last();
    ASSERT_NE(log, nullptr);
    EXPECT_FALSE(log->truncated);
    ASSERT_EQ(log->events.size(), expected.size());
    EXPECT_TRUE(log->events == expected) << "event log bytes differ from the golden encoding";

    const std::vector<WireEvent> events = telemetry::decodeEvents(log->events);
    ASSERT_EQ(events.size(), 7u);
    EXPECT_EQ(events[0].color, 0x0102030405060708ULL);
    EXPECT_EQ(events[0].payload, payloadOf("hello"));
    EXPECT_EQ(events[1].component, "SLP");
    EXPECT_EQ(events[1].state, std::string(0xffff, 'x'));
    EXPECT_EQ(events[1].stateTo, "s11");
    EXPECT_EQ(events[1].messageType, "SLPSrvRequest");
    EXPECT_EQ(events[2].messageType, "SSDP_MSearch");
    EXPECT_EQ(events[3].payload, Bytes(kPayload, 0x5a));
    EXPECT_EQ(events[4].from, "10.0.0.1:49152");
    EXPECT_EQ(events[4].attempts, 2);
    EXPECT_EQ(events[5].from, "mid-session close");
    EXPECT_EQ(events[6].tsUs, 200);
    EXPECT_EQ(events[6].code, -605);
    EXPECT_EQ(events[6].retransmits, 1u);
}

TEST(FlightRecorder, ByteCapTruncatesButKeepsTerminalRecord) {
    FlightRecorder recorder(256);  // tiny: a few events fit, most don't
    FlightRecorder::OpenLog session(recorder);
    session.beginSession(1, 0);
    const Bytes big(100, 0x41);
    for (int i = 0; i < 50; ++i) session.recordTx(i, 1, big);
    session.endSession(1000, -600, 1, false, 0, 50, 0);

    const FlightRecorder::SessionLog* log = recorder.last();
    ASSERT_NE(log, nullptr);
    EXPECT_TRUE(log->truncated);
    EXPECT_GT(log->droppedEvents, 0u);
    const std::vector<WireEvent> events = telemetry::decodeEvents(log->events);
    ASSERT_FALSE(events.empty());
    // The cap never drops the terminal record.
    EXPECT_EQ(events.back().kind, WireEvent::Kind::SessionEnd);
    EXPECT_EQ(events.back().code, -600);
}

TEST(FlightRecorder, RecentRingIsBounded) {
    FlightRecorder recorder(4096, /*ringSessions=*/3);
    FlightRecorder::OpenLog session(recorder);
    for (int s = 1; s <= 7; ++s) {
        session.beginSession(static_cast<std::uint64_t>(s), s * 10);
        session.recordTx(s * 10, 1, payloadOf("p"));
        session.endSession(s * 10 + 5, 0, 0, true, 1, 1, 0);
    }
    EXPECT_EQ(recorder.recent().size(), 3u);
    EXPECT_EQ(recorder.recent().front().ordinal, 5u);
    EXPECT_EQ(recorder.last()->ordinal, 7u);
}

TEST(FlightRecorder, ChunkMemoryIsRetainedAcrossSessions) {
    FlightRecorder recorder(64 * 1024);
    FlightRecorder::OpenLog session(recorder);
    session.beginSession(1, 0);
    const Bytes big(10000, 0x42);
    for (int i = 0; i < 5; ++i) session.recordTx(i, 1, big);
    session.endSession(100, 0, 0, true, 0, 5, 0);
    const std::size_t reserved = recorder.bytesReserved();
    EXPECT_GT(reserved, 0u);
    // A smaller follow-up session reuses the chunks; no growth.
    session.beginSession(2, 200);
    session.recordTx(201, 1, payloadOf("small"));
    session.endSession(210, 0, 0, true, 0, 1, 0);
    EXPECT_EQ(recorder.bytesReserved(), reserved);
}

// The header's cost claim: once the ring is full and every buffer has held a
// session of this size, record* allocates nothing and endSession allocates
// only the ring deque's node turnover.
TEST(FlightRecorder, SteadyStateRecordingDoesNotAllocate) {
    FlightRecorder recorder(1024 * 1024);
    FlightRecorder::OpenLog session(recorder);
    const Bytes request(300, 0x51);
    const Bytes reply(20000, 0x52);  // the log straddles a chunk boundary
    auto recordSession = [&](std::uint64_t ordinal) {
        const std::int64_t t = static_cast<std::int64_t>(ordinal) * 1000;
        session.beginSession(ordinal, t);
        session.recordRx(t, 1, "10.0.0.1:427", "10.0.0.9:427", request);
        session.recordTransition(t, "SLP", "s10", "s11", WireEvent::kActionReceive,
                                 "SLPSrvRequest");
        session.recordTranslate(t + 1, "s11", "SSDP_MSearch");
        session.recordTx(t + 1, 2, request);
        session.recordConnect(t + 2, 3, "10.0.0.1:49152", WireEvent::kConnectConnected, 1);
        session.recordRx(t + 3, 3, "10.0.0.1:49152", "", reply);
        session.recordFault(t + 4, 3, WireEvent::kFaultPeerClosed, "mid-session close");
    };
    const std::size_t warmup = 2 * FlightRecorder::kDefaultRingSessions;
    for (std::uint64_t s = 1; s <= warmup; ++s) {
        recordSession(s);
        session.endSession(static_cast<std::int64_t>(s) * 1000 + 5, 0, 0, true, 2, 1, 0);
    }

    constexpr std::uint64_t kSessions = 64;
    // libstdc++ fits ten 48-byte SessionLogs in a 512-byte deque node, so
    // pushing at the back and popping at the front allocates one node per
    // ten sessions; the bound leaves room for one per eight.
    constexpr std::uint64_t kMaxEndSessionAllocs = kSessions / 8;
    std::uint64_t recordAllocs = 0;
    std::uint64_t endAllocs = 0;
    for (std::uint64_t s = warmup + 1; s <= warmup + kSessions; ++s) {
        const std::uint64_t before = allocCalls();
        recordSession(s);
        const std::uint64_t between = allocCalls();
        session.endSession(static_cast<std::int64_t>(s) * 1000 + 5, 0, 0, true, 2, 1, 0);
        recordAllocs += between - before;
        endAllocs += allocCalls() - between;
    }
    EXPECT_EQ(recordAllocs, 0u);
    EXPECT_LE(endAllocs, kMaxEndSessionAllocs);
    ASSERT_NE(recorder.last(), nullptr);
    EXPECT_EQ(recorder.last()->ordinal, warmup + kSessions);
    EXPECT_EQ(telemetry::decodeEvents(recorder.last()->events).size(), 8u);
}

PostmortemBundle sampleBundle() {
    PostmortemBundle bundle;
    bundle.bridge = "upnp-to-slp";
    bundle.caseSlug = "upnp-to-slp";
    bundle.bridgeHost = "10.0.0.9";
    bundle.shard = 3;
    bundle.sessionOrdinal = 17;
    bundle.sessionSeed = 0x1234567890abcdefULL;
    bundle.retrySeed = 0xfedcba0987654321ULL;
    bundle.retryDraws = 9;
    bundle.modelIdentity = 0x5eedULL;
    bundle.abortCode = -600;
    bundle.cause = 1;
    bundle.processingDelayUs = 12000;
    bundle.sessionTimeoutUs = 30000000;
    bundle.receiveTimeoutUs = 7000000;
    bundle.retransmitJitterUs = 100000;
    bundle.idleTimeoutUs = 0;
    bundle.tcpConnectRetryDelayUs = 50000;
    bundle.tcpConnectRetryMaxDelayUs = 5000000;
    bundle.maxRetransmits = 5;
    bundle.tcpConnectAttempts = 3;
    bundle.retransmitBackoffMicros = 1500000;
    bundle.tcpMaxBacklogBytes = 256 * 1024;

    FlightRecorder recorder(4096);

    FlightRecorder::OpenLog session(recorder);
    session.beginSession(17, 0);
    session.recordRx(10, 1, "10.0.0.1:1900", "10.0.0.9:1900", payloadOf("M-SEARCH"));
    session.endSession(30000000, -600, 1, false, 1, 0, 0);
    bundle.events = recorder.last()->events;

    telemetry::Span root;
    root.id = 1;
    root.parent = 0;
    root.session = 17;
    root.name = "session";
    root.start = net::TimePoint{net::Duration{10}};
    root.end = net::TimePoint{net::Duration{30000000}};
    root.attrs.push_back({"result", "timeout"});
    telemetry::Span child = root;
    child.id = 2;
    child.parent = 1;
    child.name = "translate";
    bundle.spans = {root, child};
    return bundle;
}

TEST(PostmortemBundleCodec, RoundTripsEveryField) {
    const PostmortemBundle bundle = sampleBundle();
    const Bytes encoded = telemetry::encodeBundle(bundle);
    const PostmortemBundle decoded = telemetry::decodeBundle(encoded);

    EXPECT_EQ(decoded.bridge, bundle.bridge);
    EXPECT_EQ(decoded.caseSlug, bundle.caseSlug);
    EXPECT_EQ(decoded.bridgeHost, bundle.bridgeHost);
    EXPECT_EQ(decoded.shard, bundle.shard);
    EXPECT_EQ(decoded.sessionOrdinal, bundle.sessionOrdinal);
    EXPECT_EQ(decoded.sessionSeed, bundle.sessionSeed);
    EXPECT_EQ(decoded.retrySeed, bundle.retrySeed);
    EXPECT_EQ(decoded.retryDraws, bundle.retryDraws);
    EXPECT_EQ(decoded.modelIdentity, bundle.modelIdentity);
    EXPECT_EQ(decoded.abortCode, bundle.abortCode);
    EXPECT_EQ(decoded.cause, bundle.cause);
    EXPECT_EQ(decoded.processingDelayUs, bundle.processingDelayUs);
    EXPECT_EQ(decoded.sessionTimeoutUs, bundle.sessionTimeoutUs);
    EXPECT_EQ(decoded.receiveTimeoutUs, bundle.receiveTimeoutUs);
    EXPECT_EQ(decoded.retransmitJitterUs, bundle.retransmitJitterUs);
    EXPECT_EQ(decoded.idleTimeoutUs, bundle.idleTimeoutUs);
    EXPECT_EQ(decoded.tcpConnectRetryDelayUs, bundle.tcpConnectRetryDelayUs);
    EXPECT_EQ(decoded.tcpConnectRetryMaxDelayUs, bundle.tcpConnectRetryMaxDelayUs);
    EXPECT_EQ(decoded.maxRetransmits, bundle.maxRetransmits);
    EXPECT_EQ(decoded.tcpConnectAttempts, bundle.tcpConnectAttempts);
    EXPECT_EQ(decoded.retransmitBackoffMicros, bundle.retransmitBackoffMicros);
    EXPECT_EQ(decoded.tcpMaxBacklogBytes, bundle.tcpMaxBacklogBytes);
    EXPECT_EQ(decoded.truncated, bundle.truncated);
    EXPECT_EQ(decoded.events, bundle.events);

    ASSERT_EQ(decoded.spans.size(), 2u);
    EXPECT_EQ(decoded.spans[0].id, 1u);
    EXPECT_EQ(decoded.spans[0].name, "session");
    EXPECT_EQ(decoded.spans[0].start.time_since_epoch().count(), 10);
    ASSERT_EQ(decoded.spans[0].attrs.size(), 1u);
    EXPECT_EQ(decoded.spans[0].attrs[0].key, "result");
    EXPECT_EQ(decoded.spans[0].attrs[0].value, "timeout");
    EXPECT_EQ(decoded.spans[1].parent, 1u);
}

TEST(PostmortemBundleCodec, RejectsCorruptInput) {
    const PostmortemBundle bundle = sampleBundle();
    Bytes encoded = telemetry::encodeBundle(bundle);
    Bytes badMagic = encoded;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(telemetry::decodeBundle(badMagic), SpecError);
    Bytes shortened(encoded.begin(), encoded.begin() + encoded.size() / 2);
    EXPECT_THROW(telemetry::decodeBundle(shortened), SpecError);
    Bytes padded = encoded;
    padded.push_back(0);
    EXPECT_THROW(telemetry::decodeBundle(padded), SpecError);
    EXPECT_THROW(telemetry::decodeEvents(payloadOf("garbage!")), SpecError);
}

TEST(PostmortemSpoolTest, CapsBundleCountDeletingOldest) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "starlink-spool-cap").string();
    std::filesystem::remove_all(dir);
    PostmortemSpool spool(PostmortemSpool::Options{dir, 3});
    PostmortemBundle bundle = sampleBundle();
    std::vector<std::string> paths;
    for (int i = 0; i < 5; ++i) {
        bundle.sessionOrdinal = static_cast<std::uint64_t>(i + 1);
        const std::string path = spool.write(bundle);
        ASSERT_FALSE(path.empty());
        paths.push_back(path);
    }
    EXPECT_EQ(spool.written(), 5u);
    EXPECT_EQ(spool.files().size(), 3u);
    // The two oldest files are gone from disk; the three newest remain and
    // decode cleanly.
    EXPECT_FALSE(std::filesystem::exists(paths[0]));
    EXPECT_FALSE(std::filesystem::exists(paths[1]));
    for (std::size_t i = 2; i < paths.size(); ++i) {
        std::ifstream in(paths[i], std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream content;
        content << in.rdbuf();
        const std::string s = content.str();
        const PostmortemBundle decoded = telemetry::decodeBundle(Bytes(s.begin(), s.end()));
        EXPECT_EQ(decoded.sessionOrdinal, i + 1);
    }
    std::filesystem::remove_all(dir);
}

TEST(ModelIdentity, StableAndSpecSensitive) {
    using bridge::models::Case;
    const auto specA = bridge::models::forCase(Case::UpnpToSlp, "10.0.0.9");
    const auto specB = bridge::models::forCase(Case::UpnpToSlp, "10.0.0.9");
    EXPECT_EQ(bridge::models::modelSetIdentity(specA), bridge::models::modelSetIdentity(specB));
    const auto other = bridge::models::forCase(Case::SlpToBonjour, "10.0.0.9");
    EXPECT_NE(bridge::models::modelSetIdentity(specA), bridge::models::modelSetIdentity(other));
    auto mutated = specA;
    mutated.bridgeXml += " ";
    EXPECT_NE(bridge::models::modelSetIdentity(specA), bridge::models::modelSetIdentity(mutated));
}

TEST(ModelIdentity, CaseSlugRoundTrips) {
    for (const bridge::models::Direction& d : bridge::models::directions()) {
        EXPECT_EQ(bridge::models::directionBySlug(d.slug), &d);
    }
    EXPECT_EQ(bridge::models::directionBySlug("no-such-case"), nullptr);
    // The registry fleet's Case indexes the table's first six rows.
    for (const auto c : bridge::models::kAllCases) {
        EXPECT_EQ(&bridge::models::direction(c),
                  &bridge::models::directions()[static_cast<std::size_t>(c)]);
    }
}

// -- chaos capture + replay ---------------------------------------------------

engine::ShardEngineOptions chaosOptions(std::uint64_t seed) {
    engine::ShardEngineOptions options;
    options.shards = 1;
    options.baseSeed = seed;
    options.chaos = true;
    options.chaosLoss = 0.25;
    options.engine = peers::resilientEngineOptions();
    return options;
}

/// Runs `jobs` chaos sessions round-robin over the six paper directions on
/// one shard and returns their outcomes in submission order.
std::vector<engine::SessionOutcome> chaosOutcomes(std::uint64_t seed, int jobs,
                                                  const std::string& keyPrefix,
                                                  std::size_t recorderBytes) {
    engine::ShardEngineOptions options = chaosOptions(seed);
    options.engine.recorderSessionBytes = recorderBytes;
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < jobs; ++i) {
        engine::SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = keyPrefix + std::to_string(i);
        shardEngine.submit(job);
    }
    std::vector<engine::SessionOutcome> outcomes;
    for (const auto& result : shardEngine.run()) {
        outcomes.insert(outcomes.end(), result.outcomes.begin(), result.outcomes.end());
    }
    return outcomes;
}

// Two bases: a small batch, and a 120-session one whose ring recycles its
// log buffers many times over. A second recorder-off pass pins each batch
// as deterministic, so a recorder-on difference can only come from
// recording.
TEST(RecorderInvariance, RecordingDoesNotChangeSessionOutcomes) {
    struct Basis {
        std::uint64_t seed;
        int jobs;
        const char* keyPrefix;
    };
    for (const Basis& basis : {Basis{11, 18, "inv-"}, Basis{1234, 120, "rec-"}}) {
        SCOPED_TRACE("seed " + std::to_string(basis.seed));
        const auto off = chaosOutcomes(basis.seed, basis.jobs, basis.keyPrefix, 0);
        const auto on = chaosOutcomes(basis.seed, basis.jobs, basis.keyPrefix, 1024 * 1024);
        const auto offAgain = chaosOutcomes(basis.seed, basis.jobs, basis.keyPrefix, 0);
        ASSERT_FALSE(off.empty());
        EXPECT_EQ(off, offAgain) << "the recorder-off batch is not deterministic";
        ASSERT_EQ(off.size(), on.size());
        for (std::size_t i = 0; i < off.size(); ++i) {
            EXPECT_EQ(off[i], on[i]) << "outcome " << i
                                     << " changed when the recorder was enabled";
        }
    }
}

std::vector<PostmortemBundle> readBundles(const PostmortemSpool& spool) {
    std::vector<PostmortemBundle> bundles;
    for (const std::string& path : spool.files()) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream content;
        content << in.rdbuf();
        const std::string s = content.str();
        bundles.push_back(telemetry::decodeBundle(Bytes(s.begin(), s.end())));
    }
    return bundles;
}

/// Runs `sessions` chaos jobs of one direction with the recorder + spool on;
/// returns the spooled bundles (possibly none for a lucky seed).
std::vector<PostmortemBundle> captureAborts(bridge::models::Case c, std::uint64_t seed,
                                            const std::string& tag, int sessions = 12) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / ("starlink-replay-" + tag)).string();
    std::filesystem::remove_all(dir);
    PostmortemSpool spool(PostmortemSpool::Options{dir, 64});
    engine::ShardEngineOptions options = chaosOptions(seed);
    options.engine.recorderSessionBytes = 1024 * 1024;
    options.engine.postmortemSpool = &spool;
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < sessions; ++i) {
        engine::SessionJob job;
        job.caseId = c;
        job.key = "cap-" + tag + "-" + std::to_string(i);
        shardEngine.submit(job);
    }
    shardEngine.run();
    std::vector<PostmortemBundle> bundles = readBundles(spool);
    std::filesystem::remove_all(dir);
    return bundles;
}

/// Captures aborts for one direction (scanning a few seeds until chaos
/// produces at least one) and asserts every bundle replays bit-identically.
void expectDirectionReplays(bridge::models::Case c, const char* tag) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto bundles =
            captureAborts(c, seed, std::string(tag) + "-" + std::to_string(seed));
        if (bundles.empty()) continue;
        for (const PostmortemBundle& bundle : bundles) {
            SCOPED_TRACE("case " + std::string(tag) + " seed " + std::to_string(seed) +
                         " session #" + std::to_string(bundle.sessionOrdinal) + " abort " +
                         std::to_string(bundle.abortCode));
            const bridge::ReplayComparison result = bridge::replayBundle(bundle);
            EXPECT_TRUE(result.ran);
            EXPECT_TRUE(result.recordMatches) << result.detail;
            EXPECT_TRUE(result.wireMatches) << result.detail;
        }
        return;  // one seed with captures is enough per direction
    }
    FAIL() << "no chaos seed in [1,8] produced an abort for " << tag;
}

TEST(ReplayFidelity, UpnpToSlpRepliesBitIdentically) {
    expectDirectionReplays(bridge::models::Case::UpnpToSlp, "upnp-to-slp");
}

TEST(ReplayFidelity, BonjourToSlpRepliesBitIdentically) {
    expectDirectionReplays(bridge::models::Case::BonjourToSlp, "bonjour-to-slp");
}

TEST(ReplayFidelity, SlpToBonjourRepliesBitIdentically) {
    expectDirectionReplays(bridge::models::Case::SlpToBonjour, "slp-to-bonjour");
}

TEST(ReplayFidelity, UpnpToBonjourRepliesBitIdentically) {
    expectDirectionReplays(bridge::models::Case::UpnpToBonjour, "upnp-to-bonjour");
}

/// The bundles a lookup spools against `direction`'s bridge deployed as the
/// live daemon deploys it (Starlink::deploy with a spool and no case label of
/// its own) with no service behind it, so the session waits out its watchdog.
std::vector<PostmortemBundle> spoolLoneAbort(const bridge::models::Direction& direction) {
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "starlink-replay-daemon").string();
    std::filesystem::remove_all(dir);
    PostmortemSpool spool(PostmortemSpool::Options{dir, 8});
    engine::EngineOptions options;
    options.recorderSessionBytes = 1024 * 1024;
    options.postmortemSpool = &spool;
    peers::SimIsland island;
    island.deploy(direction, options);
    island.client.emplace(island.network, direction);
    EXPECT_EQ(island.runLookups(1), 0);
    std::vector<PostmortemBundle> bundles = readBundles(spool);
    std::filesystem::remove_all(dir);
    return bundles;
}

// The live daemon's bundles must name a case replay can resolve.
TEST(ReplayFidelity, DaemonDeployedBundleReplays) {
    const std::vector<PostmortemBundle> bundles =
        spoolLoneAbort(bridge::models::direction(bridge::models::Case::SlpToUpnp));
    ASSERT_EQ(bundles.size(), 1u);
    const PostmortemBundle& bundle = bundles.front();
    EXPECT_EQ(bundle.caseSlug, "slp-to-upnp");
    EXPECT_EQ(bundle.bridgeHost, peers::SimIsland::kBridgeHost);
    EXPECT_EQ(bundle.modelIdentity,
              bridge::models::modelSetIdentity(bridge::models::forCase(
                  bridge::models::Case::SlpToUpnp, peers::SimIsland::kBridgeHost)));
    const bridge::ReplayComparison result = bridge::replayBundle(bundle);
    EXPECT_TRUE(result.ok()) << result.detail;
}

// The extension rows replay from their slug alone, as the paper's six do: the
// one-argument overload resolves caseSlug through the direction table.
TEST(ReplayFidelity, ExtensionDirectionBundlesReplay) {
    for (const char* slug : {"slp-to-ldap", "slp-to-wsd"}) {
        SCOPED_TRACE(slug);
        const std::vector<PostmortemBundle> bundles =
            spoolLoneAbort(*bridge::models::directionBySlug(slug));
        ASSERT_EQ(bundles.size(), 1u);
        EXPECT_EQ(bundles.front().caseSlug, slug);
        const bridge::ReplayComparison result = bridge::replayBundle(bundles.front());
        EXPECT_TRUE(result.ok()) << result.detail;
    }
}

TEST(ReplayGuards, TruncatedBundleIsRefused) {
    PostmortemBundle bundle = sampleBundle();
    bundle.truncated = true;
    bundle.droppedEvents = 12;
    EXPECT_THROW(bridge::replayBundle(bundle), SpecError);
}

TEST(ReplayGuards, UnknownCaseSlugIsRefused) {
    PostmortemBundle bundle = sampleBundle();
    bundle.caseSlug = "hand-rolled-bridge";
    EXPECT_THROW(bridge::replayBundle(bundle), SpecError);
}

TEST(ReplayGuards, ModelDriftIsRefused) {
    PostmortemBundle bundle = sampleBundle();
    // sampleBundle stamps a fake fingerprint that cannot match the real
    // upnp-to-slp model set.
    EXPECT_THROW(bridge::replayBundle(bundle), SpecError);
}

}  // namespace
}  // namespace starlink
