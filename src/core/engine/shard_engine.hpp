// Sharded multi-threaded bridge driver.
//
// The paper evaluates one bridge session at a time; the production target is
// a mediator serving MANY concurrent conversations without perturbing the
// single-session numbers Fig 12(b) reproduces. The whole reproduction is
// built from single-threaded simulation islands -- a VirtualClock, an
// EventScheduler, a SimNetwork and the engines driving them share no state
// across islands -- so the scaling unit here is the SHARD: one OS thread
// owning one private island per bridge direction, serving every session
// whose key hashes to it. A model swap publishes into the island.
//
// Shard-confinement rules (docs/CONCURRENCY.md has the full audit):
//   - dispatch is hash-by-session-key, decided at submit() time; there is no
//     work stealing, so a session's shard -- and therefore every object its
//     execution touches -- is fixed before any thread starts;
//   - each shard owns its islands, its metrics registry and its results
//     slice outright; worker threads communicate with the coordinating
//     thread only through thread creation/join (which order all accesses);
//   - process-global state is limited to the log level (atomic), the
//     telemetry enabled flag (atomic), and the global MetricsRegistry
//     (mutex-guarded registration, lock-free atomic recording);
//   - per-shard MetricsRegistry instances and per-island SpanBuffers are
//     merged AFTER the run (MetricsRegistry::mergeFrom, spans()), so the hot
//     path never takes a cross-thread lock.
//
// Determinism: a session's outcome is a pure function of (case, seed). Each
// session reseeds its island's network rng, anchors a seed-derived fault
// schedule at the island's current virtual time, reseeds the engine's
// retransmission jitter and gets freshly seeded legacy agents -- so pooled
// islands serve session k bit-identically whether 0 or 10'000 sessions ran
// before it, which is exactly why an 8-shard run reproduces a 1-shard run
// record for record (tests/test_shard_stress.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bridge/models.hpp"
#include "core/engine/automata_engine.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/span.hpp"
#include "net/clock.hpp"

namespace starlink::bridge {
class ModelRegistry;
class ModelSet;
}  // namespace starlink::bridge

namespace starlink::engine {

/// One bridged conversation to serve: which of the six directions, under
/// which session key (the dispatch + determinism handle).
struct SessionJob {
    /// Dispatch key: fnv1a(key) % shards picks the serving shard, and the
    /// key is folded into the session seed, so equal keys mean equal
    /// behaviour at any shard count.
    std::string key;
    bridge::models::Case caseId = bridge::models::Case::SlpToUpnp;
    /// 0 = derive from (key, ShardEngineOptions::baseSeed).
    std::uint64_t seed = 0;
};

/// Every island is a peers::SimIsland, so its topology (client 10.0.0.1,
/// service 10.0.0.3, bridge 10.0.0.9) and chaos profile mirror the demo
/// harnesses by construction.
struct ShardEngineOptions {
    /// Number of worker threads / island pools. Sessions are partitioned by
    /// key hash; 1 reproduces the classic sequential harnesses.
    int shards = 1;
    /// Folded into every derived session seed (a different baseSeed replays
    /// the same workload under different randomness).
    std::uint64_t baseSeed = 0x5747524c494e4bULL;
    /// Applied to every deployed bridge. EngineOptions::metrics is
    /// overwritten per shard with the shard's private registry.
    EngineOptions engine;

    /// Chaos mode: every session runs under a seed-derived FaultSchedule
    /// (loss bursts, latency spikes, partition flaps, connect blackholes)
    /// plus this steady per-hop loss (peers::SimIsland::chaos), and the
    /// legacy clients get peers::chaosClientConfigs(): they re-send and
    /// eventually give up, as in `starlinkd chaos`.
    bool chaos = false;
    double chaosLoss = 0.05;

    /// Admission control: cap on jobs queued per shard at submit() time
    /// (0 = unbounded). Past the cap submit() SHEDS the job -- it returns
    /// false and the job's SessionResult carries engine.overload -- instead
    /// of growing the pending queue without bound. NOTE the bound is per
    /// shard, so with a cap in force the shed SET depends on the shard
    /// count; the N-shard == 1-shard determinism contract is stated for
    /// unbounded admission (the default), and per-shard-count runs remain
    /// individually deterministic either way.
    std::size_t maxPendingPerShard = 0;

    /// Hot-swap deployment: when set, every job pins a model-set generation
    /// AT SUBMIT TIME (registry->pin(job.key), canary cohort by key hash).
    /// Before a job whose pinned version differs from the one its island
    /// serves, the island publishes the pinned generation (compiled once per
    /// shard, direction and version) -- the engine's one swap mechanism, so
    /// a swap mid-workload never pauses a shard or moves a session.
    /// Terminal outcomes are fed back (noteSession) so canary regression
    /// rolls the candidate back automatically. The registry must outlive
    /// the engine and have an active set before the first submit. nullptr =
    /// the classic fixed models::forCase deployment.
    bridge::ModelRegistry* registry = nullptr;
};

/// The shard-invariant summary of one bridge SessionRecord: everything a
/// session "did", with absolute virtual timestamps reduced to durations so
/// records compare bit-for-bit across pooled islands whose clocks differ.
struct SessionOutcome {
    bool completed = false;
    FailureCause cause = FailureCause::None;
    /// Exact taxonomy code of the abort (Ok iff completed); lets sharded
    /// consumers rebuild the per-code abort histogram without the records.
    errc::ErrorCode code = errc::ErrorCode::Ok;
    std::size_t messagesIn = 0;
    std::size_t messagesOut = 0;
    std::size_t retransmits = 0;
    std::int64_t translationUs = 0;
    std::int64_t sessionUs = 0;
    /// Registry version the session was pinned to (0 = no registry). Part
    /// of the bit-identity contract: version assignment is a pure function
    /// of (key, canaryPercent, submit order), never of shard count.
    std::uint64_t modelVersion = 0;

    bool operator==(const SessionOutcome&) const = default;
};

/// What one submitted job produced. Under chaos a single lookup may open
/// zero bridge sessions (every datagram lost) or several (the client
/// re-asked after the bridge aborted), hence the vector.
struct SessionResult {
    SessionJob job;
    int shard = 0;
    /// The legacy client's callback reported at least one discovered URL.
    bool discovered = false;
    /// Admission control refused the job at submit() time: it never ran,
    /// outcomes is empty, and `error` is engine.overload.
    bool shed = false;
    errc::ErrorCode error = errc::ErrorCode::Ok;
    /// The generation pinned at submit time (0 = no registry in play).
    std::uint64_t modelVersion = 0;
    std::vector<SessionOutcome> outcomes;
};

/// Per-shard accounting, available after run().
struct ShardReport {
    int shard = 0;
    std::size_t jobs = 0;
    std::size_t bridgeSessions = 0;
    std::size_t completedSessions = 0;
    std::size_t discovered = 0;
    /// Jobs refused by admission control (ShardEngineOptions::
    /// maxPendingPerShard); also exported as
    /// starlink_engine_sessions_shed_total in the shard's registry.
    std::size_t shed = 0;
    /// Virtual time this shard's islands consumed, summed across its
    /// per-direction islands. The aggregate throughput denominator is the MAX
    /// over shards (the virtual makespan): shards are independent islands,
    /// so a real deployment runs them wall-parallel.
    net::Duration busyVirtual = net::us(0);
};

class ShardEngine {
public:
    explicit ShardEngine(ShardEngineOptions options = {});
    ~ShardEngine();

    ShardEngine(const ShardEngine&) = delete;
    ShardEngine& operator=(const ShardEngine&) = delete;

    /// FNV-1a 64 of the session key -- the dispatch hash. Stable across
    /// processes and shard counts (dispatch is hash % shards).
    static std::uint64_t keyHash(const std::string& key);
    /// The seed a job with this key gets when SessionJob::seed == 0.
    static std::uint64_t deriveSeed(const std::string& key, std::uint64_t baseSeed);

    const ShardEngineOptions& options() const { return options_; }
    int shardFor(const std::string& key) const;

    /// Queues a job on its hash-selected shard. Must be called before run().
    /// Returns false when admission control sheds the job (per-shard pending
    /// queue at maxPendingPerShard): the job still yields a SessionResult --
    /// shed=true, error=engine.overload, no outcomes -- so callers account
    /// for every submission either way.
    bool submit(SessionJob job);

    /// Serves every submitted job: one thread per shard, each draining its
    /// own queue in submission order against its private island pool.
    /// Blocking; callable once. Returns results in SUBMISSION order.
    const std::vector<SessionResult>& run();

    const std::vector<SessionResult>& results() const { return results_; }
    const std::vector<ShardReport>& reports() const { return reports_; }

    /// Max over shards of ShardReport::busyVirtual.
    net::Duration makespan() const;
    /// Completed bridge sessions per second of virtual makespan -- the
    /// deterministic aggregate-throughput figure bench/throughput_sweep
    /// gates on.
    double virtualSessionsPerSecond() const;

    /// Folds every shard's private registry into `target`
    /// (telemetry::MetricsRegistry::mergeFrom). Call after run().
    void mergeMetricsInto(telemetry::MetricsRegistry& target) const;
    /// Read-only view of one shard's registry (tests).
    const telemetry::MetricsRegistry& shardMetrics(int shard) const;

    /// Every island's span snapshot, concatenated shard-major (empty unless
    /// ShardEngineOptions::engine.spanCapacity > 0). Merged at export: span
    /// buffers stay single-threaded island property during the run.
    const std::vector<telemetry::Span>& spans() const { return spans_; }

private:
    struct Shard;

    void runShard(Shard& shard);

    ShardEngineOptions options_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<SessionResult> results_;
    std::vector<ShardReport> reports_;
    std::vector<telemetry::Span> spans_;
    std::size_t submitted_ = 0;
    bool ran_ = false;
};

}  // namespace starlink::engine
