// Versioned model-set registry: hot-swap deployment for the bridge fleet
// (ROADMAP item 4 -- "runtime interoperability" should mean the models change
// without restarting the fleet).
//
// A ModelSet is one immutable, lint-gated generation of the six-direction
// discovery fleet: per-case DeploymentSpecs plus the FNV-1a identity hash of
// each (the same fingerprint postmortem bundles carry). The ModelRegistry
// owns the generations and the swap protocol:
//
//   load      -- loadDirectory() slurps every spec file fully into memory
//                FIRST (a reload racing a file write must never parse a
//                half-written document), then runs the full cross-layer
//                linter over the closure, each distinct document once
//                (lintGate), as a hard deploy gate: any
//                error-severity diagnostic rejects the candidate with
//                bridge.deploy-rejected and the registry keeps serving
//                whatever it served before. A rejected set never gets a
//                version number.
//   publish   -- an accepted set is stamped with a monotonic version. The
//                FIRST set becomes active outright; later sets either swap
//                immediately (canaryPercent == 0) or enter canary.
//   pin       -- pin(sessionKey) returns the set a session starts on, by
//                session-key hash (canary cohort = hash % 10000 <
//                canaryPercent * 100, deterministic, shard-count-invariant).
//                A bridge runs a set by publishing it (DeployedBridge::
//                publish); each session keeps the generation it opened on,
//                so in-flight sessions finish on their version -- no pause,
//                no socket rebind.
//   judge     -- noteSession() feeds per-cohort sliding windows of terminal
//                outcomes. When any abort code's rate in the canary window
//                regresses beyond rollbackRatio x the stable window's rate
//                (minCanarySessions gate), the canary is rolled back
//                automatically; after promoteAfter clean canary sessions it
//                is promoted to active.
//
// Telemetry: starlink_registry_active_version / _canary_version gauges,
// _swaps_total / _rollbacks_total / _reload_failures_total counters, and
// per-cohort session/abort gauges -- all in the caller-supplied registry
// (the process-global one by default).
//
// Thread safety: every public method is mutex-guarded; pin() hands out
// shared_ptr copies, so shard threads never touch registry state after
// submit time. The returned ModelSet is deeply immutable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/error/error_code.hpp"
#include "core/lint/diagnostic.hpp"
#include "core/telemetry/metrics.hpp"

namespace starlink::bridge {

/// One immutable generation of the six-direction model fleet.
class ModelSet {
public:
    /// Monotonic registry version (1 = first accepted set). 0 never occurs
    /// in a published set, so engines use it as "no registry in play".
    std::uint64_t version() const { return version_; }
    /// Where the set came from: "builtin", a directory path, or a
    /// caller-supplied label (loadSpecs).
    const std::string& source() const { return source_; }
    /// FNV-1a fingerprint of one case's spec -- the exact value
    /// models::modelSetIdentity() computes and postmortem bundles carry.
    std::uint64_t identityFor(models::Case c) const {
        return identities_[static_cast<std::size_t>(c)];
    }
    /// Order-sensitive fold of the six per-case identities: one number that
    /// names the whole generation.
    std::uint64_t identity() const { return identity_; }
    const models::DeploymentSpec& specFor(models::Case c) const {
        return specs_[static_cast<std::size_t>(c)];
    }

private:
    friend class ModelRegistry;
    std::uint64_t version_ = 0;
    std::string source_;
    std::array<models::DeploymentSpec, 6> specs_{};
    std::array<std::uint64_t, 6> identities_{};
    std::uint64_t identity_ = 0;
};

/// Registry lifecycle notification (the daemon turns these into summary
/// lines; tests assert on them).
struct RegistryEvent {
    enum class Kind {
        Swapped,       ///< a new version became active (first load or immediate swap)
        CanaryStarted, ///< a new version entered the canary cohort
        Promoted,      ///< the canary became active (manual or promoteAfter)
        RolledBack,    ///< the canary was withdrawn (manual or abort-rate regression)
        ReloadFailed,  ///< a candidate was rejected; the old version keeps serving
    };
    Kind kind = Kind::Swapped;
    std::uint64_t fromVersion = 0;
    std::uint64_t toVersion = 0;
    std::string detail;
};

const char* registryEventName(RegistryEvent::Kind kind);

/// The deploy gate's findings over `specs`, where specs[i] is assembled from
/// directions[i]. Each distinct document is linted once: keyed by content,
/// labelled with the models/ file name its Direction row gives, and a
/// different content under a name already taken (a case-local variant) gets
/// its own pass labelled "<file>@<slug>".
std::vector<lint::Diagnostic> lintGate(std::span<const models::Direction* const> directions,
                                       std::span<const models::DeploymentSpec> specs);

struct ModelRegistryOptions {
    /// Topology baked into loadBuiltins() specs (mirrors ShardEngineOptions).
    std::string bridgeHost = "10.0.0.9";
    int bridgeHttpPort = 8085;
    /// Share of new sessions pinned to a freshly loaded set, in percent.
    /// 0 = no canary, every load swaps immediately. The live daemon treats
    /// any other value as a time-based canary: every session opened after
    /// the publish runs the candidate, live ones finish on the stable set.
    double canaryPercent = 0.0;
    /// Roll back when any abort code's canary-window rate exceeds the stable
    /// window's rate for that code times this factor. With a clean stable
    /// cohort any canary abort regresses (rate > 0 == rollback).
    double rollbackRatio = 2.0;
    /// Sliding-window length per cohort, in sessions.
    std::size_t windowSessions = 256;
    /// Minimum canary-window occupancy before the judge may roll back.
    std::size_t minCanarySessions = 32;
    /// Auto-promote after this many canary sessions without a rollback
    /// (0 = promotion stays manual via promoteCanary()).
    std::size_t promoteAfter = 0;
    /// Metrics destination; nullptr = the process-global registry.
    telemetry::MetricsRegistry* metrics = nullptr;
};

class ModelRegistry {
public:
    explicit ModelRegistry(ModelRegistryOptions options = {});
    ~ModelRegistry();  // out-of-line: CohortWindow is incomplete here

    const ModelRegistryOptions& options() const { return options_; }

    /// Publishes the built-in models::forCase fleet (at options' host/port).
    /// Shares loadDirectory's assemble + lint + publish path; only the
    /// documents differ (the embedded models/ files).
    std::shared_ptr<const ModelSet> loadBuiltins();

    /// Loads the models/ file layout from `dir` (slp.mdl.xml,
    /// slp.server.automaton.xml, ..., SLP-to-UPnP.bridge.xml): every file is
    /// read fully into memory first, the whole closure is linted, and only a
    /// clean candidate is published. Throws SpecError:
    ///   bridge.deploy-rejected -- missing/unreadable file or any
    ///                             error-severity lint finding (listed in
    ///                             the message); the registry is unchanged.
    std::shared_ptr<const ModelSet> loadDirectory(const std::string& dir);

    /// Publishes caller-built specs (tests, synthetic candidates). The same
    /// lint gate applies -- a defective spec set is rejected identically.
    std::shared_ptr<const ModelSet> loadSpecs(std::array<models::DeploymentSpec, 6> specs,
                                              std::string source);

    /// The stable generation (nullptr before the first load).
    std::shared_ptr<const ModelSet> active() const;
    /// The generation under canary, nullptr when none.
    std::shared_ptr<const ModelSet> canary() const;

    /// The generation a new session with this key starts on. Deterministic:
    /// the cohort depends only on (key, canaryPercent), never on shard count
    /// or call order. Throws SpecError(bridge.version-unknown) before the
    /// first load.
    std::shared_ptr<const ModelSet> pin(const std::string& sessionKey);

    /// Whether `sessionKey` falls in the canary cohort at `percent` --
    /// FNV-1a(key) % 10000 < percent * 100, the same hash ShardEngine
    /// dispatches by.
    static bool inCanaryCohort(const std::string& sessionKey, double percent);

    /// Feeds one terminal session outcome into the cohort windows and runs
    /// the judge: automatic rollback on per-code regression, automatic
    /// promotion after promoteAfter clean canary sessions. Outcomes for
    /// versions no longer active/canary are ignored (late finishers).
    void noteSession(std::uint64_t version, bool aborted,
                     errc::ErrorCode code = errc::ErrorCode::Ok);

    /// Promotes the canary to active. False when no canary is in flight.
    bool promoteCanary();
    /// Withdraws the canary; the active version keeps serving. False when
    /// no canary is in flight.
    bool rollbackCanary(const std::string& reason);

    /// Resolves a retained generation by one case's identity fingerprint --
    /// how replay matches a postmortem bundle to the models that produced
    /// it. Every generation ever published stays resolvable (rolled-back
    /// ones included: their bundles are exactly the interesting ones).
    std::shared_ptr<const ModelSet> byCaseIdentity(models::Case c,
                                                   std::uint64_t identity) const;
    /// Resolves by registry version number.
    std::shared_ptr<const ModelSet> byVersion(std::uint64_t version) const;

    /// Lifetime counters (also exported as metrics).
    std::uint64_t swapsTotal() const;
    std::uint64_t rollbacksTotal() const;
    std::uint64_t reloadFailuresTotal() const;

    /// Fired (under the registry mutex) on every lifecycle transition.
    std::function<void(const RegistryEvent&)> onEvent;

    /// Records a rejected candidate for the reload-failure counter/event
    /// without touching the generations (the daemon calls this when
    /// loadDirectory throws, so /metrics shows the failure).
    void noteReloadFailure(const std::string& detail);

private:
    struct CohortWindow;

    /// Assembles the six cases from `documents` (models/ file names), then
    /// lints and publishes them through loadSpecs.
    std::shared_ptr<const ModelSet> loadDocuments(const models::Documents& documents,
                                                  std::string source);

    std::shared_ptr<const ModelSet> publishLocked(std::shared_ptr<ModelSet> set);
    void emitLocked(RegistryEvent event);
    void refreshGaugesLocked();
    bool judgeLocked();  // true when the canary was rolled back

    ModelRegistryOptions options_;
    mutable std::mutex mutex_;
    std::shared_ptr<const ModelSet> active_;
    std::shared_ptr<const ModelSet> canary_;
    std::vector<std::shared_ptr<const ModelSet>> generations_;
    std::uint64_t nextVersion_ = 1;
    std::uint64_t swaps_ = 0;
    std::uint64_t rollbacks_ = 0;
    std::uint64_t reloadFailures_ = 0;
    std::size_t canarySessionsSeen_ = 0;

    std::unique_ptr<CohortWindow> stableWindow_;
    std::unique_ptr<CohortWindow> canaryWindow_;

    telemetry::MetricsRegistry* metrics_ = nullptr;
    telemetry::Gauge* activeVersionGauge_ = nullptr;
    telemetry::Gauge* canaryVersionGauge_ = nullptr;
    telemetry::Counter* swapsCounter_ = nullptr;
    telemetry::Counter* rollbacksCounter_ = nullptr;
    telemetry::Counter* reloadFailuresCounter_ = nullptr;
    telemetry::Gauge* canarySessionsGauge_ = nullptr;
    telemetry::Gauge* canaryAbortsGauge_ = nullptr;
    telemetry::Gauge* stableSessionsGauge_ = nullptr;
    telemetry::Gauge* stableAbortsGauge_ = nullptr;
};

}  // namespace starlink::bridge
