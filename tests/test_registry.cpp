// Hot-swap model deployment: the versioned bridge registry.
//
// Under test (core/bridge/registry.hpp):
//   - the lint gate: a candidate with ANY error-severity finding -- including
//     an unparseable document, which is what a reload racing a file write
//     produces -- is rejected with bridge.deploy-rejected and the registry
//     keeps serving what it served before; each distinct document is linted
//     once, keyed by content and reported under its models/ file name, and a
//     warm load costs fewer allocations than one lint of every model file;
//   - versioning and identity: accepted sets get monotonic versions, carry
//     the same FNV-1a fingerprints postmortem bundles record, and every
//     generation ever published stays resolvable by version or fingerprint;
//   - the canary protocol: session-key-hash cohort assignment (deterministic,
//     shard-count-invariant), automatic rollback on per-code abort-rate
//     regression, automatic promotion after a clean streak;
//   - replay fail-fast: a bundle whose fingerprint does not match the model
//     set is refused BEFORE any model document is parsed;
//   - the mid-run swap determinism contract: an N-shard workload with a swap
//     in the middle reproduces the 1-shard run record for record, and every
//     outcome carries the version its session was pinned to.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/error.hpp"
#include "core/bridge/registry.hpp"
#include "core/bridge/replay.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/lint/linter.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/recorder.hpp"

namespace starlink {
namespace {

namespace fs = std::filesystem;
using bridge::ModelRegistry;
using bridge::ModelRegistryOptions;
using bridge::RegistryEvent;
using bridge::models::Case;
using bridge::models::kAllCases;
using bridge::models::Role;

std::array<bridge::models::DeploymentSpec, 6> builtinSpecs(int httpPort = 8085) {
    std::array<bridge::models::DeploymentSpec, 6> specs;
    for (const Case c : kAllCases) {
        specs[static_cast<std::size_t>(c)] =
            bridge::models::forCase(c, "10.0.0.9", httpPort);
    }
    return specs;
}

/// Options wired to a test-local metrics registry so parallel tests never
/// race on the process-global one.
ModelRegistryOptions testOptions(telemetry::MetricsRegistry& metrics) {
    ModelRegistryOptions options;
    options.metrics = &metrics;
    return options;
}

errc::ErrorCode thrownCode(const std::function<void()>& body) {
    try {
        body();
    } catch (const StarlinkError& error) {
        return error.code();
    }
    return errc::ErrorCode::Ok;
}

/// The message of the SpecError `body` throws; empty when it throws none.
std::string thrownMessage(const std::function<void()>& body) {
    try {
        body();
    } catch (const SpecError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::BridgeDeployRejected);
        return error.what();
    }
    return "";
}

/// slp.mdl.xml with one field's marshaller misspelt: exactly one lint error
/// (mdl.marshaller.unknown) in a document four of the six directions share.
std::string misspeltSlpMdl() {
    std::string mdl = bridge::models::slpMdl();
    const std::string field = "<LangTag>String</LangTag>";
    const std::size_t at = mdl.find(field);
    EXPECT_NE(at, std::string::npos);
    return mdl.replace(at, field.size(), "<LangTag>Strng</LangTag>");
}

/// The lines of `text` that contain `needle`.
std::vector<std::string> linesWith(const std::string& text, const std::string& needle) {
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) end = text.size();
        std::string line = text.substr(begin, end - begin);
        if (line.find(needle) != std::string::npos) lines.push_back(std::move(line));
        begin = end + 1;
    }
    return lines;
}

TEST(ModelRegistry, FirstLoadBecomesActiveAndPinsIt) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};

    // Before the first load there is nothing to pin -- a coded refusal, not
    // a null deref at session start.
    EXPECT_EQ(thrownCode([&] { registry.pin("session-0"); }),
              errc::ErrorCode::BridgeVersionUnknown);

    const auto v1 = registry.loadBuiltins();
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->version(), 1u);
    EXPECT_EQ(registry.active(), v1);
    EXPECT_EQ(registry.canary(), nullptr);
    EXPECT_EQ(registry.pin("session-0"), v1);

    // The per-case fingerprints are EXACTLY what modelSetIdentity computes
    // over the equivalent forCase spec -- the value postmortem bundles carry.
    for (const Case c : kAllCases) {
        EXPECT_EQ(v1->identityFor(c),
                  bridge::models::modelSetIdentity(bridge::models::forCase(c, "10.0.0.9")))
            << bridge::models::direction(c).slug;
    }
}

TEST(ModelRegistry, LintGateRejectsDefectiveCandidateAndKeepsServing) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto v1 = registry.loadBuiltins();

    // An unparseable bridge document is what a loader racing a half-written
    // file would see: the lint gate must reject it, not the daemon abort.
    auto specs = builtinSpecs();
    specs[static_cast<std::size_t>(Case::SlpToUpnp)].bridgeXml =
        "<bridge name='torn'><merge>this is not a complete docum";
    EXPECT_EQ(thrownCode([&] { registry.loadSpecs(std::move(specs), "torn-write"); }),
              errc::ErrorCode::BridgeDeployRejected);

    // The registry is untouched: same active set, no canary, no version burn.
    EXPECT_EQ(registry.active(), v1);
    EXPECT_EQ(registry.canary(), nullptr);
    const auto v2 = registry.loadSpecs(builtinSpecs(8090), "fixed");
    EXPECT_EQ(v2->version(), 2u) << "a rejected candidate must not burn a version";
}

TEST(ModelRegistry, LintGateKeysDocumentsByContentNotFileName) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto v1 = registry.loadBuiltins();

    // One case carries its own, broken slp.mdl.xml while three others share
    // the good one. A gate keyed by file name would lint the first
    // slp.mdl.xml it met and skip this variant; keyed by content, the
    // variant gets its own pass, labelled with its direction.
    auto specs = builtinSpecs();
    specs[static_cast<std::size_t>(Case::SlpToBonjour)].protocols[0].mdlXml = misspeltSlpMdl();
    const std::string message =
        thrownMessage([&] { registry.loadSpecs(std::move(specs), "case-local-variant"); });
    EXPECT_NE(message.find("(1 error finding)"), std::string::npos) << message;
    const auto findings = linesWith(message, "[mdl.marshaller.unknown]");
    ASSERT_EQ(findings.size(), 1u) << message;
    EXPECT_EQ(findings[0].rfind("slp.mdl.xml@slp-to-bonjour:", 0), 0u) << findings[0];
    EXPECT_EQ(registry.active(), v1);
}

TEST(ModelRegistry, LintGateOverAllTenDirectionsIsClean) {
    // Every direction's documents, each distinct content once. With one
    // copy per direction instead, slp-to-upnp alone would need 8 x 4 x 4 =
    // 128 role combinations, past the linter's cap of 64.
    std::vector<const bridge::models::Direction*> directions;
    std::vector<bridge::models::DeploymentSpec> specs;
    for (const bridge::models::Direction& d : bridge::models::directions()) {
        directions.push_back(&d);
        specs.push_back(bridge::models::forDirection(d, "10.0.0.9"));
    }
    ASSERT_EQ(directions.size(), 10u);
    const std::vector<lint::Diagnostic> findings = bridge::lintGate(directions, specs);
    EXPECT_TRUE(findings.empty()) << lint::renderText(findings);
}

TEST(ModelRegistry, WarmLoadAllocatesLessThanOneLintOfEveryModel) {
    // The gate lints each distinct document once and resolves bridge roles
    // without re-parsing, so re-deploying the six-direction fleet costs less
    // than linting every models/ file once. Allocation counts repeat exactly
    // from run to run, unlike wall time.
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    registry.loadBuiltins();  // warm: first-use statics and the embedded table

    const std::uint64_t beforeLoad = testing::allocCalls();
    registry.loadBuiltins();
    const std::uint64_t loadAllocs = testing::allocCalls() - beforeLoad;

    const std::uint64_t beforeLint = testing::allocCalls();
    {
        lint::Linter linter;
        for (const auto& [file, bytes] : bridge::models::embeddedDocuments()) {
            linter.addModel(file, bytes);
        }
        EXPECT_TRUE(linter.run().empty());
    }
    const std::uint64_t lintAllocs = testing::allocCalls() - beforeLint;
    EXPECT_LT(loadAllocs, lintAllocs);
}

TEST(ModelRegistry, ImmediateSwapPublishesAndRetainsHistory) {
    telemetry::MetricsRegistry metrics;
    std::vector<RegistryEvent> events;
    ModelRegistry registry{testOptions(metrics)};
    registry.onEvent = [&events](const RegistryEvent& event) { events.push_back(event); };

    const auto v1 = registry.loadBuiltins();
    const auto v2 = registry.loadSpecs(builtinSpecs(8090), "port-8090");
    EXPECT_EQ(registry.active(), v2);
    EXPECT_EQ(registry.pin("any-key")->version(), 2u);
    EXPECT_EQ(registry.swapsTotal(), 2u);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].kind, RegistryEvent::Kind::Swapped);
    EXPECT_EQ(events[1].fromVersion, 1u);
    EXPECT_EQ(events[1].toVersion, 2u);

    // Retired generations stay resolvable by version AND by fingerprint --
    // that is how replay finds the models that produced an old bundle. The
    // port knob only reaches cases where the bridge HOSTS the http server
    // (the port is baked into the server automaton), so UpnpToSlp is the
    // case whose fingerprint distinguishes the generations.
    EXPECT_EQ(registry.byVersion(1), v1);
    EXPECT_NE(v1->identityFor(Case::UpnpToSlp), v2->identityFor(Case::UpnpToSlp));
    EXPECT_EQ(registry.byCaseIdentity(Case::UpnpToSlp, v1->identityFor(Case::UpnpToSlp)), v1);
    EXPECT_EQ(registry.byCaseIdentity(Case::UpnpToSlp, v2->identityFor(Case::UpnpToSlp)), v2);
    EXPECT_EQ(registry.byCaseIdentity(Case::UpnpToSlp, 0xdeadbeefULL), nullptr);

    // The version gauge tracks the active set.
    EXPECT_EQ(metrics.gauge("starlink_registry_active_version").value(), 2);
}

TEST(ModelRegistry, CanaryCohortIsDeterministicInKeyOnly) {
    for (const char* key : {"a", "session-17", "swap-99", "zz-top"}) {
        EXPECT_FALSE(ModelRegistry::inCanaryCohort(key, 0.0));
        EXPECT_TRUE(ModelRegistry::inCanaryCohort(key, 100.0));
        // Stable across calls, and monotone in the percent knob: a key in
        // the 20% cohort is in every larger cohort.
        const bool at20 = ModelRegistry::inCanaryCohort(key, 20.0);
        EXPECT_EQ(at20, ModelRegistry::inCanaryCohort(key, 20.0));
        if (at20) {
            EXPECT_TRUE(ModelRegistry::inCanaryCohort(key, 75.0));
        }
    }
    // The split lands near the dial over a realistic key population.
    int canary = 0;
    for (int i = 0; i < 2000; ++i) {
        if (ModelRegistry::inCanaryCohort("session-" + std::to_string(i), 30.0)) ++canary;
    }
    EXPECT_GT(canary, 2000 * 30 / 100 / 2);
    EXPECT_LT(canary, 2000 * 30 / 100 * 2);
}

TEST(ModelRegistry, CanaryRollsBackOnPerCodeAbortRegression) {
    telemetry::MetricsRegistry metrics;
    ModelRegistryOptions options = testOptions(metrics);
    options.canaryPercent = 50.0;
    options.windowSessions = 64;
    options.minCanarySessions = 16;
    options.rollbackRatio = 2.0;
    std::vector<RegistryEvent> events;
    ModelRegistry registry{options};
    registry.onEvent = [&events](const RegistryEvent& event) { events.push_back(event); };

    registry.loadBuiltins();
    const auto v2 = registry.loadSpecs(builtinSpecs(8090), "candidate");
    ASSERT_EQ(registry.canary(), v2);
    ASSERT_EQ(events.back().kind, RegistryEvent::Kind::CanaryStarted);

    // Stable cohort runs clean; the candidate aborts every session with one
    // code. Past the occupancy gate the per-code judge must withdraw it.
    for (int i = 0; i < 64; ++i) registry.noteSession(1, false);
    for (int i = 0; i < 32; ++i) {
        registry.noteSession(2, true, errc::ErrorCode::EngineSessionTimeout);
        if (registry.canary() == nullptr) break;
    }
    EXPECT_EQ(registry.canary(), nullptr);
    EXPECT_EQ(registry.active()->version(), 1u);
    EXPECT_EQ(registry.rollbacksTotal(), 1u);
    ASSERT_EQ(events.back().kind, RegistryEvent::Kind::RolledBack);
    EXPECT_NE(events.back().detail.find(errc::to_string(errc::ErrorCode::EngineSessionTimeout)),
              std::string::npos)
        << "rollback detail should name the regressing code: " << events.back().detail;
    EXPECT_EQ(metrics.counter("starlink_registry_rollbacks_total").value(), 1u);

    // New sessions pin the restored active version again.
    EXPECT_EQ(registry.pin("post-rollback")->version(), 1u);
    // The rolled-back generation stays resolvable -- its bundles are exactly
    // the ones worth replaying.
    EXPECT_EQ(registry.byVersion(2), v2);
}

TEST(ModelRegistry, CanaryPromotesAfterCleanStreak) {
    telemetry::MetricsRegistry metrics;
    ModelRegistryOptions options = testOptions(metrics);
    options.canaryPercent = 25.0;
    options.minCanarySessions = 8;
    options.promoteAfter = 20;
    std::vector<RegistryEvent> events;
    ModelRegistry registry{options};
    registry.onEvent = [&events](const RegistryEvent& event) { events.push_back(event); };

    registry.loadBuiltins();
    registry.loadSpecs(builtinSpecs(8090), "candidate");
    for (int i = 0; i < 40; ++i) registry.noteSession(1, false);
    for (int i = 0; i < 20; ++i) registry.noteSession(2, false);

    EXPECT_EQ(registry.canary(), nullptr);
    ASSERT_NE(registry.active(), nullptr);
    EXPECT_EQ(registry.active()->version(), 2u);
    EXPECT_EQ(registry.rollbacksTotal(), 0u);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().kind, RegistryEvent::Kind::Promoted);
}

// -- satellite: replay must refuse a fingerprint mismatch BEFORE loading ----

TEST(ReplayIdentity, MismatchIsRefusedBeforeAnyModelIsParsed) {
    telemetry::PostmortemBundle bundle;
    bundle.bridge = "slp-to-upnp";
    bundle.caseSlug = bridge::models::direction(Case::SlpToUpnp).slug;
    bundle.bridgeHost = "10.0.0.9";
    bundle.abortCode = static_cast<std::int32_t>(errc::ErrorCode::EngineSessionTimeout);
    bundle.modelIdentity = 0x1234'5678'9abc'def0ULL;

    // The spec is GARBAGE on purpose: if replay touched any model document
    // before checking the fingerprint, this would surface as xml.parse, not
    // bridge.identity-mismatch.
    bridge::models::DeploymentSpec garbage;
    garbage.bridgeXml = "<<<< this is not xml";
    bridge::models::ProtocolModel protocol;
    protocol.mdlXml = "also not xml";
    protocol.automatonXml = "still not xml";
    garbage.protocols.push_back(protocol);

    try {
        bridge::replayBundle(bundle, garbage);
        FAIL() << "mismatched fingerprint must be refused";
    } catch (const SpecError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::BridgeIdentityMismatch);
        EXPECT_NE(std::string(error.what()).find("identity"), std::string::npos);
    }

    // A matching fingerprint passes the gate (and then fails later, on the
    // garbage models, with a DIFFERENT code) -- proving the gate really
    // compares fingerprints rather than rejecting everything.
    bundle.modelIdentity = bridge::models::modelSetIdentity(garbage);
    EXPECT_NE(thrownCode([&] { bridge::replayBundle(bundle, garbage); }),
              errc::ErrorCode::BridgeIdentityMismatch);
}

// -- satellite: directory loads are memory-first and torn-write-safe --------

class RegistryDirectory : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("starlink-registry-" + std::to_string(::getpid()) + "-" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        writeExportLayout(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    static void write(const fs::path& path, const std::string& content) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << path;
        out << content;
    }

    /// The starlinkd-export layout subset the six-direction fleet needs.
    static void writeExportLayout(const fs::path& dir) {
        namespace models = bridge::models;
        write(dir / "slp.mdl.xml", models::slpMdl());
        write(dir / "dns.mdl.xml", models::dnsMdl());
        write(dir / "ssdp.mdl.xml", models::ssdpMdl());
        write(dir / "http.mdl.xml", models::httpMdl());
        for (const Role role : {Role::Server, Role::Client}) {
            const std::string suffix = role == Role::Server ? "server" : "client";
            write(dir / ("slp." + suffix + ".automaton.xml"), models::slpAutomaton(role));
            write(dir / ("mdns." + suffix + ".automaton.xml"), models::mdnsAutomaton(role));
            write(dir / ("ssdp." + suffix + ".automaton.xml"), models::ssdpAutomaton(role));
            write(dir / ("http." + suffix + ".automaton.xml"), models::httpAutomaton(role));
        }
        for (const Case c : kAllCases) {
            std::string name = models::direction(c).name;
            std::replace(name.begin(), name.end(), ' ', '-');
            write(dir / (name + ".bridge.xml"), models::forCase(c, "10.0.0.9").bridgeXml);
        }
    }

    fs::path dir_;
};

TEST_F(RegistryDirectory, LoadReproducesBuiltinFingerprints) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto set = registry.loadDirectory(dir_.string());
    ASSERT_NE(set, nullptr);
    // The export/load round trip is fingerprint-lossless: the on-disk fleet
    // is byte-identical to the builtins, so replay of a builtin-produced
    // bundle resolves against a directory-loaded generation.
    for (const Case c : kAllCases) {
        EXPECT_EQ(set->identityFor(c),
                  bridge::models::modelSetIdentity(bridge::models::forCase(c, "10.0.0.9")))
            << bridge::models::direction(c).slug;
    }
}

TEST_F(RegistryDirectory, MissingFileIsRejectedNamingThePath) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto v1 = registry.loadBuiltins();

    fs::remove(dir_ / "slp.mdl.xml");
    try {
        registry.loadDirectory(dir_.string());
        FAIL() << "missing file must reject the candidate";
    } catch (const SpecError& error) {
        EXPECT_EQ(error.code(), errc::ErrorCode::BridgeDeployRejected);
        EXPECT_NE(std::string(error.what()).find("slp.mdl.xml"), std::string::npos)
            << error.what();
    }
    EXPECT_EQ(registry.active(), v1) << "the old generation must keep serving";
}

TEST_F(RegistryDirectory, SharedDocumentDefectIsReportedOnceUnderItsFileName) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto v1 = registry.loadBuiltins();

    // slp.mdl.xml is shared by four directions: the operator's one edit is
    // one finding, named after the file they edited.
    write(dir_ / "slp.mdl.xml", misspeltSlpMdl());
    const std::string message = thrownMessage([&] { registry.loadDirectory(dir_.string()); });
    EXPECT_NE(message.find("(1 error finding)"), std::string::npos) << message;
    const auto findings = linesWith(message, "[mdl.marshaller.unknown]");
    ASSERT_EQ(findings.size(), 1u) << message;
    EXPECT_EQ(findings[0].rfind("slp.mdl.xml:", 0), 0u) << findings[0];
    EXPECT_EQ(registry.active(), v1);
}

TEST_F(RegistryDirectory, TornWriteIsRejectedNotFatal) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    const auto v1 = registry.loadBuiltins();

    // Simulate a reload racing a model update: the document on disk is a
    // half-written prefix. Because the loader slurps files fully BEFORE any
    // parsing, the failure is a clean deploy rejection, never a daemon abort
    // or a bridge running half a model.
    const std::string whole = bridge::models::slpMdl();
    write(dir_ / "slp.mdl.xml", whole.substr(0, whole.size() / 2));
    EXPECT_EQ(thrownCode([&] { registry.loadDirectory(dir_.string()); }),
              errc::ErrorCode::BridgeDeployRejected);
    EXPECT_EQ(registry.active(), v1);
    EXPECT_EQ(registry.pin("after-torn-reload"), v1);
}

// -- satellite: determinism survives a mid-run swap -------------------------

std::vector<engine::SessionResult> runSwapWorkload(int shards, int sessions, int swapAt) {
    telemetry::MetricsRegistry metrics;
    ModelRegistry registry{testOptions(metrics)};
    registry.loadBuiltins();

    engine::ShardEngineOptions options;
    options.shards = shards;
    options.registry = &registry;
    engine::ShardEngine shardEngine{options};
    for (int i = 0; i < sessions; ++i) {
        if (i == swapAt) registry.loadSpecs(builtinSpecs(8090), "v2-port-8090");
        engine::SessionJob job;
        job.caseId = kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "swap-" + std::to_string(i);
        shardEngine.submit(job);
    }
    return shardEngine.run();
}

TEST(RegistrySwap, MidRunSwapBitIdenticalAcrossShardCounts) {
    const int kSessions = 96;
    const int kSwapAt = 48;
    const auto sequential = runSwapWorkload(1, kSessions, kSwapAt);
    const auto sharded = runSwapWorkload(8, kSessions, kSwapAt);

    ASSERT_EQ(sequential.size(), static_cast<std::size_t>(kSessions));
    ASSERT_EQ(sharded.size(), sequential.size());
    std::size_t completed = 0;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        // Version pinning is decided at submit time, so it is a pure
        // function of submission order -- identical at any shard count.
        const std::uint64_t expectedVersion = i < static_cast<std::size_t>(kSwapAt) ? 1 : 2;
        EXPECT_EQ(sequential[i].modelVersion, expectedVersion) << sequential[i].job.key;
        EXPECT_EQ(sharded[i].modelVersion, expectedVersion) << sharded[i].job.key;
        // ... and every terminal record carries the version it ran on.
        ASSERT_FALSE(sequential[i].outcomes.empty()) << sequential[i].job.key;
        for (const auto& outcome : sequential[i].outcomes) {
            EXPECT_EQ(outcome.modelVersion, expectedVersion);
            if (outcome.completed) ++completed;
        }
        // The bit-identity contract (SessionOutcome::operator== covers the
        // pinned version too).
        EXPECT_EQ(sequential[i].outcomes, sharded[i].outcomes) << sequential[i].job.key;
        EXPECT_EQ(sequential[i].discovered, sharded[i].discovered);
    }
    // The swap is not a degenerate pass: sessions on BOTH versions complete.
    EXPECT_GT(completed, static_cast<std::size_t>(kSessions) / 2);
}

}  // namespace
}  // namespace starlink
