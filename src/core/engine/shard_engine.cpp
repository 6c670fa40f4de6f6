#include "core/engine/shard_engine.hpp"

#include <map>
#include <stdexcept>
#include <thread>

#include "core/bridge/registry.hpp"
#include "protocols/peers.hpp"

namespace starlink::engine {

/// Everything one worker thread owns. Jobs are placed here at submit() time
/// (before any thread exists); results/reports/spans are read by the
/// coordinator after join(). Thread creation and join order those accesses,
/// so the struct needs no locks.
struct ShardEngine::Shard {
    int index = 0;
    telemetry::MetricsRegistry registry;
    struct Pending {
        SessionJob job;
        std::size_t submitIndex = 0;
        /// The model-set generation pinned at submit() time (nullptr = no
        /// registry). The shared_ptr keeps the generation alive for the
        /// session even if the registry swaps or rolls back mid-run.
        std::shared_ptr<const bridge::ModelSet> pinned;
    };
    std::vector<Pending> queue;
    std::vector<std::pair<std::size_t, SessionResult>> results;
    std::vector<telemetry::Span> spans;
    ShardReport report;
    /// One pooled island per direction, keyed by (int)Case, and every
    /// generation compiled for one, keyed by ((int)Case, version).
    std::map<int, std::unique_ptr<peers::SimIsland>> islands;
    std::map<std::pair<int, std::uint64_t>, std::shared_ptr<ModelGeneration>> generations;
    std::string error;  // first fatal error; empty == clean run
    // Island span snapshots are rebased into a shard-local id/session space
    // at harvest time (each island's tracer counts from 1), and shards are
    // rebased again into the global space at merge -- so the merged trace
    // has unique span ids and session ordinals, no dangling parents.
    std::uint64_t spanIdBase = 0;
    std::uint64_t sessionBase = 0;
};

ShardEngine::ShardEngine(ShardEngineOptions options) : options_(std::move(options)) {
    if (options_.shards < 1) throw std::invalid_argument("shard engine: shards must be >= 1");
    shards_.reserve(static_cast<std::size_t>(options_.shards));
    for (int i = 0; i < options_.shards; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        shard->report.shard = i;
        shards_.push_back(std::move(shard));
    }
}

ShardEngine::~ShardEngine() = default;

std::uint64_t ShardEngine::keyHash(const std::string& key) {
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
    for (const unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t ShardEngine::deriveSeed(const std::string& key, std::uint64_t baseSeed) {
    // One SplitMix64 scramble so key hash and base seed mix into all bits.
    return Rng(keyHash(key) ^ (baseSeed * 0x9e3779b97f4a7c15ULL)).next();
}

int ShardEngine::shardFor(const std::string& key) const {
    return static_cast<int>(keyHash(key) % static_cast<std::uint64_t>(options_.shards));
}

bool ShardEngine::submit(SessionJob job) {
    if (ran_) throw std::logic_error("shard engine: submit after run");
    Shard& shard = *shards_[static_cast<std::size_t>(shardFor(job.key))];
    // Version pinning happens HERE, on the coordinator thread, before any
    // worker exists: the pinned generation is a pure function of the key and
    // the registry state at submit time, so an N-shard run pins exactly what
    // the 1-shard run pins (determinism contract).
    std::shared_ptr<const bridge::ModelSet> pinned;
    if (options_.registry != nullptr) pinned = options_.registry->pin(job.key);
    if (options_.maxPendingPerShard != 0 &&
        shard.queue.size() >= options_.maxPendingPerShard) {
        // Overload: refuse loudly with a coded result instead of queueing
        // without bound. Runs single-threaded (submit precedes run), so the
        // shard's registry and results slice are safe to touch here.
        ++shard.report.shed;
        shard.registry
            .counter(telemetry::labeled("starlink_engine_sessions_shed_total",
                                        {{"shard", std::to_string(shard.index)}}))
            .add();
        // Shed sessions never reach an engine, so account for them HERE the
        // way completeSession would have: a per-code abort count and (when
        // spans are on) a terminal session span -- 1-shard and N-shard runs
        // then report overload identically to sessions aborted in-engine.
        const char* slug = bridge::models::direction(job.caseId).slug;
        shard.registry
            .counter(telemetry::labeled(
                "starlink_engine_sessions_aborted_total",
                {{"bridge", slug},
                 {"code",
                  std::to_string(errc::to_error_code(errc::ErrorCode::EngineOverload))},
                 {"cause", errc::to_string(errc::ErrorCode::EngineOverload)}}))
            .add();
        if (options_.engine.spanCapacity > 0) {
            telemetry::Span span;
            span.id = 0;  // synthetic: a unique id is assigned at merge
            span.name = "session";
            span.attrs = {
                {"bridge", slug},
                {"result", "shed"},
                {"error_code",
                 std::to_string(errc::to_error_code(errc::ErrorCode::EngineOverload))},
                {"error_name", std::string(errc::to_string(errc::ErrorCode::EngineOverload))},
                {"messages_in", "0"},
                {"messages_out", "0"},
                {"retransmits", "0"},
                {"translation_us", "0"}};
            shard.spans.push_back(std::move(span));
        }
        SessionResult result;
        result.job = std::move(job);
        result.shard = shard.index;
        result.shed = true;
        result.error = errc::ErrorCode::EngineOverload;
        result.modelVersion = pinned ? pinned->version() : 0;
        shard.results.emplace_back(submitted_++, std::move(result));
        return false;
    }
    shard.queue.push_back({std::move(job), submitted_++, std::move(pinned)});
    return true;
}

const std::vector<SessionResult>& ShardEngine::run() {
    if (ran_) throw std::logic_error("shard engine: run called twice");
    ran_ = true;

    // One worker per shard. With a single shard, skip the thread and run
    // inline -- the sequential harnesses stay exactly that, and a debugger
    // sees one stack.
    if (options_.shards == 1) {
        runShard(*shards_[0]);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(shards_.size());
        for (auto& shard : shards_) {
            workers.emplace_back([this, &shard] { runShard(*shard); });
        }
        for (std::thread& worker : workers) worker.join();
    }

    // Stitch per-shard slices back into submission order and surface the
    // merged artifacts. Single-threaded from here on. Span ids and session
    // ordinals -- already unique within a shard (harvest rebases per island)
    // -- are rebased once more into one global space, so the merged trace
    // never aliases two shards' sessions onto the same id.
    results_.resize(submitted_);
    std::uint64_t idBase = 0;
    std::uint64_t sessionBase = 0;
    std::vector<telemetry::Span> synthetic;
    for (auto& shard : shards_) {
        if (!shard->error.empty()) {
            throw std::runtime_error("shard " + std::to_string(shard->index) + ": " +
                                     shard->error);
        }
        for (auto& [submitIndex, result] : shard->results) {
            results_[submitIndex] = std::move(result);
        }
        reports_.push_back(shard->report);
        for (telemetry::Span& span : shard->spans) {
            if (span.id == 0) {  // synthetic shed span: numbered below
                synthetic.push_back(std::move(span));
                continue;
            }
            span.id += idBase;
            if (span.parent != 0) span.parent += idBase;
            if (span.session != 0) span.session += sessionBase;
            spans_.push_back(std::move(span));
        }
        idBase += shard->spanIdBase;
        sessionBase += shard->sessionBase;
        shard->spans.clear();
    }
    // Shed sessions' terminal spans (recorded with id 0 at submit time, no
    // engine behind them) get fresh ids and session ordinals past everything
    // real, so they show up as their own sessions in the merged trace.
    for (telemetry::Span& span : synthetic) {
        span.id = ++idBase;
        span.session = ++sessionBase;
        spans_.push_back(std::move(span));
    }
    return results_;
}

net::Duration ShardEngine::makespan() const {
    net::Duration worst = net::us(0);
    for (const ShardReport& report : reports_) worst = std::max(worst, report.busyVirtual);
    return worst;
}

double ShardEngine::virtualSessionsPerSecond() const {
    const double seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(makespan()).count();
    if (seconds <= 0) return 0;
    std::size_t completed = 0;
    for (const ShardReport& report : reports_) completed += report.completedSessions;
    return static_cast<double>(completed) / seconds;
}

void ShardEngine::mergeMetricsInto(telemetry::MetricsRegistry& target) const {
    for (const auto& shard : shards_) target.mergeFrom(shard->registry);
}

const telemetry::MetricsRegistry& ShardEngine::shardMetrics(int shard) const {
    return shards_.at(static_cast<std::size_t>(shard))->registry;
}

void ShardEngine::runShard(Shard& shard) {
    try {
        for (const Shard::Pending& pending : shard.queue) {
            const SessionJob& job = pending.job;

            // Lazily deploy this direction's island. Deployment parses the
            // MDL/automata/bridge models and compiles codec plans once per
            // (shard, direction); sessions then reuse the island -- including
            // the engine's compose scratch buffer and codec plans.
            const std::uint64_t pinnedVersion =
                pending.pinned ? pending.pinned->version() : 0;
            const std::pair<int, std::uint64_t> pin{static_cast<int>(job.caseId), pinnedVersion};
            std::unique_ptr<peers::SimIsland>& slot = shard.islands[pin.first];
            if (!slot) {
                slot = std::make_unique<peers::SimIsland>();
                EngineOptions engineOptions = options_.engine;
                engineOptions.metrics = &shard.registry;
                engineOptions.shardId = shard.index;
                const char* host = peers::SimIsland::kBridgeHost;
                slot->deployed = &slot->starlink.deploy(
                    pending.pinned ? pending.pinned->specFor(job.caseId)
                                   : bridge::models::forCase(job.caseId, host),
                    host, engineOptions, pinnedVersion);
                shard.generations.emplace(pin, slot->deployed->engine().generation());
            }
            peers::SimIsland& island = *slot;
            AutomataEngine& engine = island.deployed->engine();
            // A job pinned to another version than the island serves: publish
            // that generation (compiled once per version) first, the same swap
            // the live daemon makes. No session is live between jobs, so the
            // old generation retires at once.
            if (engine.generation()->version != pinnedVersion) {
                std::shared_ptr<ModelGeneration>& generation = shard.generations[pin];
                if (!generation) {
                    generation =
                        island.starlink.compile(pending.pinned->specFor(job.caseId), pinnedVersion);
                }
                engine.publish(generation);
            }

            // Derandomise the island: every stochastic stream the session
            // touches is rewound to a value derived from the session seed
            // alone. Pool history cannot leak into this session's behaviour.
            const std::uint64_t seed =
                job.seed != 0 ? job.seed : deriveSeed(job.key, options_.baseSeed);
            Rng seeds(seed);
            island.network.reseed(seeds.next());
            engine.reseedRetry(seeds.next());
            engine.noteSessionSeed(seed);
            const std::uint64_t chaosSeed = seeds.next();
            const std::uint64_t serviceSeed = seeds.next();
            const std::uint64_t clientSeed = seeds.next();
            if (options_.chaos) island.chaos(chaosSeed, options_.chaosLoss);

            // Collect outcomes through the completion callback: the engine's
            // history is a bounded ring now, so absolute indexing into
            // sessions() could miss records a busy island evicts.
            SessionResult result;
            result.job = job;
            result.job.seed = seed;
            result.shard = shard.index;
            result.modelVersion = pinnedVersion;
            engine.onSessionComplete = [&result, &shard](const SessionRecord& record) {
                SessionOutcome outcome;
                outcome.completed = record.completed;
                outcome.cause = record.cause;
                outcome.code = record.code;
                outcome.messagesIn = record.messagesIn;
                outcome.messagesOut = record.messagesOut;
                outcome.retransmits = record.retransmits;
                outcome.translationUs = record.translationTime().count();
                outcome.sessionUs = record.sessionTime().count();
                outcome.modelVersion = record.modelVersion;
                result.outcomes.push_back(outcome);
                ++shard.report.bridgeSessions;
                if (record.completed) ++shard.report.completedSessions;
            };
            // Freshly seeded legacy endpoints per session: agent-internal
            // state (rngs, xid counters, caches) never crosses sessions.
            peers::ServiceConfigs services;
            services.each([&](auto& config) { config.seed = serviceSeed; });
            peers::ClientConfigs clients =
                options_.chaos ? peers::chaosClientConfigs() : peers::ClientConfigs{};
            // The SLP user agent draws no randomness, so its config has no seed.
            clients.upnp.seed = clientSeed;
            clients.bonjour.seed = clientSeed;
            island.spawn(bridge::models::direction(job.caseId), services, clients);
            const bool discovered = island.runLookups(1) == 1;
            // Tear down before the next session reseeds the network: closing
            // a peer's open connection samples a latency from it.
            island.network.clearFaultSchedule();
            island.client.reset();
            island.service.reset();
            engine.onSessionComplete = nullptr;

            // Feed the canary judge. noteSession is mutex-guarded; ordering
            // across shards is nondeterministic but irrelevant to THIS run's
            // outcomes (every pin already happened at submit time) -- only
            // future pins see a rollback/promotion.
            if (options_.registry != nullptr && pinnedVersion != 0) {
                for (const SessionOutcome& outcome : result.outcomes) {
                    options_.registry->noteSession(pinnedVersion, !outcome.completed,
                                                   outcome.code);
                }
            }

            result.discovered = discovered;
            if (discovered) ++shard.report.discovered;
            ++shard.report.jobs;
            shard.results.emplace_back(pending.submitIndex, std::move(result));
        }
    } catch (const std::exception& error) {
        shard.error = error.what();
    }

    // Post-run accounting, then island teardown ON THIS THREAD (each
    // framework uninstalls the thread-local log time source it installed):
    // the virtual time each island's clock consumed, and its engine's span
    // snapshot.
    for (auto& [caseKey, island] : shard.islands) {
        shard.report.busyVirtual += std::chrono::duration_cast<net::Duration>(
            island->clock.now() - net::TimePoint{});
        if (island->deployed == nullptr) continue;  // its deploy threw
        auto snapshot = island->deployed->engine().spans().snapshot();
        std::uint64_t maxId = 0;
        std::uint64_t maxSession = 0;
        for (telemetry::Span& span : snapshot) {
            maxId = std::max(maxId, span.id);
            maxSession = std::max(maxSession, span.session);
            span.id += shard.spanIdBase;
            if (span.parent != 0) span.parent += shard.spanIdBase;
            if (span.session != 0) span.session += shard.sessionBase;
        }
        shard.spanIdBase += maxId;
        shard.sessionBase += maxSession;
        shard.spans.insert(shard.spans.end(), snapshot.begin(), snapshot.end());
    }
    shard.islands.clear();
}

}  // namespace starlink::engine
