#include "core/bridge/registry.hpp"

#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/lint/linter.hpp"

namespace starlink::bridge {

namespace fs = std::filesystem;
using models::Case;

namespace {

/// Same FNV-1a 64 the shard engine dispatches by: the canary cohort must be
/// a pure function of the session key so an N-shard and a 1-shard run pin
/// identical versions to identical keys.
std::uint64_t fnv1a(const std::string& key) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Reads a file fully into memory in one shot. The reload path must never
/// hand a partially read document to any parser: the whole string exists
/// before anything looks at byte one, so a writer racing us produces either
/// yesterday's document or today's -- a torn read surfaces as a lint parse
/// error and the candidate is rejected, never half-loaded.
std::string slurpWhole(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw SpecError(errc::ErrorCode::BridgeDeployRejected,
                        "model registry: cannot read '" + path.string() +
                            "'; the candidate directory is incomplete");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        throw SpecError(errc::ErrorCode::BridgeDeployRejected,
                        "model registry: i/o error reading '" + path.string() + "'");
    }
    return std::move(buffer).str();
}

}  // namespace

std::vector<lint::Diagnostic> lintGate(std::span<const models::Direction* const> directions,
                                       std::span<const models::DeploymentSpec> specs) {
    // Keyed by content, a document shared by several directions (slp.mdl.xml
    // by four) is parsed, linted and reported once, and a shared automaton
    // enters the linter's role search once instead of once per direction.
    lint::Linter linter;
    std::set<std::string_view> added;  // views into `specs`, alive until run()
    std::set<std::string> labels;
    const auto add = [&](std::string label, const char* slug, const std::string& xmlText) {
        if (!added.insert(xmlText).second) return;
        if (!labels.insert(label).second) label += std::string("@") + slug;
        linter.addModel(label, xmlText);
    };
    for (std::size_t d = 0; d < specs.size(); ++d) {
        const models::Direction& direction = *directions[d];
        const models::DeploymentSpec& spec = specs[d];
        for (std::size_t i = 0; i < spec.protocols.size(); ++i) {
            const models::ProtocolModel& p = spec.protocols[i];
            const bool named = i < direction.protocols.size();
            add(named ? direction.protocols[i].first : "mdl", direction.slug, p.mdlXml);
            add(named ? direction.protocols[i].second : "automaton", direction.slug,
                p.automatonXml);
        }
        add(direction.bridge, direction.slug, spec.bridgeXml);
    }
    return linter.run();
}

const char* registryEventName(RegistryEvent::Kind kind) {
    switch (kind) {
        case RegistryEvent::Kind::Swapped: return "swapped";
        case RegistryEvent::Kind::CanaryStarted: return "canary-started";
        case RegistryEvent::Kind::Promoted: return "promoted";
        case RegistryEvent::Kind::RolledBack: return "rolled-back";
        case RegistryEvent::Kind::ReloadFailed: return "reload-failed";
    }
    return "unknown";
}

/// Per-cohort sliding window of terminal outcomes with a per-code abort
/// histogram kept incrementally (the judge runs on every session).
struct ModelRegistry::CohortWindow {
    std::size_t capacity = 256;
    std::deque<errc::ErrorCode> outcomes;  // Ok == completed
    std::size_t aborts = 0;
    std::map<errc::ErrorCode, std::size_t> abortsByCode;

    void note(bool aborted, errc::ErrorCode code) {
        const errc::ErrorCode entry = aborted ? code : errc::ErrorCode::Ok;
        outcomes.push_back(entry);
        if (aborted) {
            ++aborts;
            ++abortsByCode[entry];
        }
        while (capacity != 0 && outcomes.size() > capacity) {
            const errc::ErrorCode old = outcomes.front();
            outcomes.pop_front();
            if (old != errc::ErrorCode::Ok) {
                --aborts;
                auto it = abortsByCode.find(old);
                if (it != abortsByCode.end() && --it->second == 0) abortsByCode.erase(it);
            }
        }
    }

    std::size_t size() const { return outcomes.size(); }
    double rateFor(errc::ErrorCode code) const {
        if (outcomes.empty()) return 0.0;
        const auto it = abortsByCode.find(code);
        const std::size_t n = it == abortsByCode.end() ? 0 : it->second;
        return static_cast<double>(n) / static_cast<double>(outcomes.size());
    }
    void reset() {
        outcomes.clear();
        aborts = 0;
        abortsByCode.clear();
    }
};

ModelRegistry::ModelRegistry(ModelRegistryOptions options) : options_(std::move(options)) {
    metrics_ = options_.metrics != nullptr ? options_.metrics
                                           : &telemetry::MetricsRegistry::global();
    activeVersionGauge_ = &metrics_->gauge("starlink_registry_active_version");
    canaryVersionGauge_ = &metrics_->gauge("starlink_registry_canary_version");
    swapsCounter_ = &metrics_->counter("starlink_registry_swaps_total");
    rollbacksCounter_ = &metrics_->counter("starlink_registry_rollbacks_total");
    reloadFailuresCounter_ = &metrics_->counter("starlink_registry_reload_failures_total");
    canarySessionsGauge_ = &metrics_->gauge(
        telemetry::labeled("starlink_registry_cohort_sessions", {{"cohort", "canary"}}));
    canaryAbortsGauge_ = &metrics_->gauge(
        telemetry::labeled("starlink_registry_cohort_aborts", {{"cohort", "canary"}}));
    stableSessionsGauge_ = &metrics_->gauge(
        telemetry::labeled("starlink_registry_cohort_sessions", {{"cohort", "stable"}}));
    stableAbortsGauge_ = &metrics_->gauge(
        telemetry::labeled("starlink_registry_cohort_aborts", {{"cohort", "stable"}}));
    stableWindow_ = std::make_unique<CohortWindow>();
    canaryWindow_ = std::make_unique<CohortWindow>();
    stableWindow_->capacity = options_.windowSessions;
    canaryWindow_->capacity = options_.windowSessions;
}

ModelRegistry::~ModelRegistry() = default;

std::shared_ptr<const ModelSet> ModelRegistry::loadBuiltins() {
    return loadDocuments(models::builtinDocuments(options_.bridgeHost, options_.bridgeHttpPort),
                         "builtin");
}

std::shared_ptr<const ModelSet> ModelRegistry::loadDirectory(const std::string& dir) {
    const fs::path root(dir);
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        throw SpecError(errc::ErrorCode::BridgeDeployRejected,
                        "model registry: '" + dir + "' is not a readable directory");
    }
    // Slurp every file the six cases name fully into memory: nothing is
    // parsed until every byte of every document is resident.
    models::Documents documents;
    const auto slurpOnce = [&](const char* file) {
        if (!documents.contains(file)) documents.emplace(file, slurpWhole(root / file));
    };
    for (const Case c : models::kAllCases) {
        const models::Direction& direction = models::direction(c);
        for (const auto& [mdlFile, automatonFile] : direction.protocols) {
            slurpOnce(mdlFile);
            slurpOnce(automatonFile);
        }
        slurpOnce(direction.bridge);
    }
    return loadDocuments(documents, dir);
}

std::shared_ptr<const ModelSet> ModelRegistry::loadDocuments(const models::Documents& documents,
                                                             std::string source) {
    // Assembled in the built-in protocol order, so an unmodified export
    // fingerprints identically to the builtins.
    std::array<models::DeploymentSpec, 6> specs;
    for (const Case c : models::kAllCases) {
        specs[static_cast<std::size_t>(c)] = models::assemble(models::direction(c), documents);
    }
    return loadSpecs(std::move(specs), std::move(source));
}

std::shared_ptr<const ModelSet> ModelRegistry::loadSpecs(
    std::array<models::DeploymentSpec, 6> specs, std::string source) {
    // Hard deploy gate: any error-severity finding rejects the candidate.
    std::array<const models::Direction*, 6> directions;
    for (const Case c : models::kAllCases) {
        directions[static_cast<std::size_t>(c)] = &models::direction(c);
    }
    const std::vector<lint::Diagnostic> findings = lintGate(directions, specs);
    if (lint::hasErrors(findings)) {
        std::size_t errors = 0;
        for (const lint::Diagnostic& d : findings) {
            if (d.severity == lint::Severity::Error) ++errors;
        }
        throw SpecError(errc::ErrorCode::BridgeDeployRejected,
                        "model registry: candidate '" + source + "' rejected by the lint gate (" +
                            std::to_string(errors) + " error finding" + (errors == 1 ? "" : "s") +
                            "):\n" + lint::renderText(findings));
    }

    auto set = std::make_shared<ModelSet>();
    set->source_ = std::move(source);
    set->specs_ = std::move(specs);
    std::uint64_t whole = 14695981039346656037ULL;
    for (const Case c : models::kAllCases) {
        const std::uint64_t id = models::modelSetIdentity(set->specs_[static_cast<std::size_t>(c)]);
        set->identities_[static_cast<std::size_t>(c)] = id;
        for (int shift = 0; shift < 64; shift += 8) {
            whole ^= (id >> shift) & 0xff;
            whole *= 1099511628211ULL;
        }
    }
    set->identity_ = whole;

    std::lock_guard<std::mutex> lock(mutex_);
    return publishLocked(std::move(set));
}

std::shared_ptr<const ModelSet> ModelRegistry::publishLocked(std::shared_ptr<ModelSet> set) {
    set->version_ = nextVersion_++;
    std::shared_ptr<const ModelSet> published = std::move(set);
    generations_.push_back(published);

    if (!active_) {
        // First generation: active outright, nothing to canary against.
        active_ = published;
        ++swaps_;
        swapsCounter_->add();
        emitLocked({RegistryEvent::Kind::Swapped, 0, published->version(),
                    "initial model set from " + published->source()});
    } else if (options_.canaryPercent <= 0.0) {
        // No canary configured: atomic swap. In-flight sessions keep their
        // pinned shared_ptr; new pins see the new active immediately.
        const std::uint64_t from = active_->version();
        active_ = published;
        canary_.reset();
        canaryWindow_->reset();
        canarySessionsSeen_ = 0;
        ++swaps_;
        swapsCounter_->add();
        emitLocked({RegistryEvent::Kind::Swapped, from, published->version(),
                    "swap from " + published->source()});
    } else {
        // Canary: the candidate serves only its key cohort until the judge
        // promotes or rolls it back. A newer candidate replaces an
        // unjudged one (last writer wins, stable stays untouched).
        const std::uint64_t from = canary_ ? canary_->version() : active_->version();
        canary_ = published;
        canaryWindow_->reset();
        canarySessionsSeen_ = 0;
        emitLocked({RegistryEvent::Kind::CanaryStarted, from, published->version(),
                    "canary at " + std::to_string(options_.canaryPercent) + "% from " +
                        published->source()});
    }
    refreshGaugesLocked();
    return published;
}

std::shared_ptr<const ModelSet> ModelRegistry::active() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return active_;
}

std::shared_ptr<const ModelSet> ModelRegistry::canary() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return canary_;
}

bool ModelRegistry::inCanaryCohort(const std::string& sessionKey, double percent) {
    if (percent <= 0.0) return false;
    if (percent >= 100.0) return true;
    // Basis points over the dispatch hash: deterministic, shard-count-
    // invariant, and uncorrelated with `hash % shards` for sane shard
    // counts (the modulus differs).
    return static_cast<double>(fnv1a(sessionKey) % 10000) < percent * 100.0;
}

std::shared_ptr<const ModelSet> ModelRegistry::pin(const std::string& sessionKey) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!active_) {
        throw SpecError(errc::ErrorCode::BridgeVersionUnknown,
                        "model registry: pin before any model set was loaded");
    }
    if (canary_ && inCanaryCohort(sessionKey, options_.canaryPercent)) return canary_;
    return active_;
}

void ModelRegistry::noteSession(std::uint64_t version, bool aborted, errc::ErrorCode code) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (canary_ && version == canary_->version()) {
        canaryWindow_->note(aborted, code);
        ++canarySessionsSeen_;
        if (!judgeLocked() && options_.promoteAfter != 0 &&
            canarySessionsSeen_ >= options_.promoteAfter) {
            const std::uint64_t from = active_ ? active_->version() : 0;
            const std::uint64_t to = canary_->version();
            active_ = canary_;
            canary_.reset();
            canaryWindow_->reset();
            canarySessionsSeen_ = 0;
            ++swaps_;
            swapsCounter_->add();
            emitLocked({RegistryEvent::Kind::Promoted, from, to,
                        "canary clean after " + std::to_string(options_.promoteAfter) +
                            " sessions"});
        }
    } else if (active_ && version == active_->version()) {
        stableWindow_->note(aborted, code);
    }
    // else: a late finisher on a retired version -- nothing to judge.
    refreshGaugesLocked();
}

bool ModelRegistry::judgeLocked() {
    if (!canary_ || canaryWindow_->size() < options_.minCanarySessions) return false;
    // Per-code regression: any abort code whose canary rate exceeds the
    // stable cohort's rate for the SAME code by rollbackRatio. A clean
    // stable window makes any canary abort a regression.
    for (const auto& [code, count] : canaryWindow_->abortsByCode) {
        const double canaryRate = canaryWindow_->rateFor(code);
        const double stableRate = stableWindow_->rateFor(code);
        if (canaryRate > stableRate * options_.rollbackRatio) {
            std::ostringstream detail;
            detail << "abort code " << errc::to_error_code(code) << " ("
                   << errc::to_string(code) << ") regressed: canary " << count << "/"
                   << canaryWindow_->size() << " vs stable "
                   << static_cast<std::size_t>(stableRate *
                                               static_cast<double>(stableWindow_->size()) +
                                               0.5)
                   << "/" << stableWindow_->size();
            const std::uint64_t from = canary_->version();
            const std::uint64_t to = active_ ? active_->version() : 0;
            canary_.reset();
            canaryWindow_->reset();
            canarySessionsSeen_ = 0;
            ++rollbacks_;
            rollbacksCounter_->add();
            emitLocked({RegistryEvent::Kind::RolledBack, from, to, detail.str()});
            return true;
        }
    }
    return false;
}

bool ModelRegistry::promoteCanary() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!canary_) return false;
    const std::uint64_t from = active_ ? active_->version() : 0;
    const std::uint64_t to = canary_->version();
    active_ = canary_;
    canary_.reset();
    canaryWindow_->reset();
    canarySessionsSeen_ = 0;
    ++swaps_;
    swapsCounter_->add();
    emitLocked({RegistryEvent::Kind::Promoted, from, to, "manual promotion"});
    refreshGaugesLocked();
    return true;
}

bool ModelRegistry::rollbackCanary(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!canary_) return false;
    const std::uint64_t from = canary_->version();
    const std::uint64_t to = active_ ? active_->version() : 0;
    canary_.reset();
    canaryWindow_->reset();
    canarySessionsSeen_ = 0;
    ++rollbacks_;
    rollbacksCounter_->add();
    emitLocked({RegistryEvent::Kind::RolledBack, from, to, reason});
    refreshGaugesLocked();
    return true;
}

std::shared_ptr<const ModelSet> ModelRegistry::byCaseIdentity(Case c,
                                                              std::uint64_t identity) const {
    std::lock_guard<std::mutex> lock(mutex_);
    // Newest first: when an unchanged document set reloads under a new
    // version (identical fingerprint), replay resolves to the latest.
    for (auto it = generations_.rbegin(); it != generations_.rend(); ++it) {
        if ((*it)->identityFor(c) == identity) return *it;
    }
    return nullptr;
}

std::shared_ptr<const ModelSet> ModelRegistry::byVersion(std::uint64_t version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& set : generations_) {
        if (set->version() == version) return set;
    }
    return nullptr;
}

std::uint64_t ModelRegistry::swapsTotal() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return swaps_;
}

std::uint64_t ModelRegistry::rollbacksTotal() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rollbacks_;
}

std::uint64_t ModelRegistry::reloadFailuresTotal() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reloadFailures_;
}

void ModelRegistry::noteReloadFailure(const std::string& detail) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++reloadFailures_;
    reloadFailuresCounter_->add();
    const std::uint64_t keeping = active_ ? active_->version() : 0;
    emitLocked({RegistryEvent::Kind::ReloadFailed, keeping, keeping, detail});
}

void ModelRegistry::emitLocked(RegistryEvent event) {
    {
        auto line = STARLINK_LOG(Info, "registry");
        line << registryEventName(event.kind) << " v" << event.fromVersion << " -> v"
             << event.toVersion;
        if (!event.detail.empty()) line << " (" << event.detail << ")";
    }
    if (onEvent) onEvent(event);
}

void ModelRegistry::refreshGaugesLocked() {
    activeVersionGauge_->set(active_ ? static_cast<std::int64_t>(active_->version()) : 0);
    canaryVersionGauge_->set(canary_ ? static_cast<std::int64_t>(canary_->version()) : 0);
    canarySessionsGauge_->set(static_cast<std::int64_t>(canaryWindow_->size()));
    canaryAbortsGauge_->set(static_cast<std::int64_t>(canaryWindow_->aborts));
    stableSessionsGauge_->set(static_cast<std::int64_t>(stableWindow_->size()));
    stableAbortsGauge_->set(static_cast<std::int64_t>(stableWindow_->aborts));
}

}  // namespace starlink::bridge
