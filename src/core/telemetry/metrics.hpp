// Process-wide metrics registry: counters, gauges, fixed-bucket histograms.
//
// The paper's evaluation is one end-to-end timing claim (Fig 12); steering
// further performance work needs visibility INSIDE the parse -> translate ->
// compose -> network pipeline. This registry is the aggregation half of that
// measurement layer (the per-session half is span.hpp).
//
// Hot-path discipline: callers resolve a Counter*/Gauge*/Histogram* ONCE
// (registration takes a mutex, references stay stable for the registry's
// lifetime) and then record through relaxed atomics -- the record path is
// lock-free and allocation-free. Instrumentation woven into the codec hot
// paths is additionally gated by the single process-wide telemetry flag
// (enabled(), default off), so a build with telemetry compiled in costs one
// relaxed load and a predicted branch per operation when observability is
// not requested.
//
// Timebase: the registry itself never reads a clock. Callers observe
// durations in whatever timebase fits the metric -- virtual-time
// milliseconds for session legs, wall nanoseconds for parse/compose CPU
// cost -- and the Prometheus exposition can stamp the snapshot with the
// simulation's virtual time (renderPrometheus(virtualTimeUs)).
//
// Metric names follow Prometheus conventions; labels are baked into the
// registered name ("starlink_codec_parse_ns{protocol=\"slp\",path=\"plan\"}",
// see labeled()) so the hot path never formats strings.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace starlink::telemetry {

namespace detail {
extern std::atomic<bool> gEnabled;
}  // namespace detail

/// Process-wide switch for metric recording (spans are gated per engine via
/// EngineOptions::spanCapacity instead). Default off: benchmarks and tests
/// that do not ask for observability pay only the flag check, inlined here so
/// the disabled fast path is a single relaxed load -- no cross-TU call.
inline bool enabled() { return detail::gEnabled.load(std::memory_order_relaxed); }
void setEnabled(bool on);

/// Builds "name{k1=\"v1\",k2=\"v2\"}". Label values are escaped for the
/// Prometheus exposition (backslash, quote, newline).
using Label = std::pair<std::string_view, std::string_view>;
std::string labeled(std::string_view name, std::span<const Label> labels);
inline std::string labeled(std::string_view name, std::initializer_list<Label> labels) {
    return labeled(name, std::span<const Label>(labels.begin(), labels.size()));
}

class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i]; one implicit +Inf bucket catches the rest.
/// observe() is lock-free (one relaxed fetch_add per bucket/count, a CAS
/// loop for the double-valued sum).
class Histogram {
public:
    /// `bounds` must be non-empty and strictly increasing.
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts, bounds().size() + 1 entries (last is +Inf).
    std::vector<std::uint64_t> bucketCounts() const;

    /// Adds another histogram's observations into this one. Throws
    /// std::invalid_argument when the bucket bounds differ.
    void merge(const Histogram& other);

private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Named metric store. Registration is mutex-guarded and idempotent (same
/// name returns the same instance); returned pointers stay valid for the
/// registry's lifetime, so callers cache them once and record lock-free.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry every subsystem records into.
    static MetricsRegistry& global();

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /// Re-registering an existing histogram name with different bounds
    /// throws std::invalid_argument.
    Histogram& histogram(const std::string& name, std::vector<double> bounds);

    /// Prometheus text exposition (families grouped, histograms expanded to
    /// _bucket/_sum/_count). When `virtualTimeUs` is given the snapshot is
    /// stamped with the simulation clock as starlink_virtual_time_us.
    std::string renderPrometheus(std::optional<std::int64_t> virtualTimeUs = std::nullopt) const;

    /// Adds every metric of `other` into this registry, creating missing
    /// entries on the fly (histograms are created with the other's bounds;
    /// merging histograms registered under the same name with different
    /// bounds throws std::invalid_argument). This is the aggregation step of
    /// the sharded engine: each shard records into a private registry with no
    /// cross-thread traffic, and an exporter folds the shards together after
    /// (or during) the run. Safe against concurrent recording on either side;
    /// in-flight observations land in whichever snapshot comes next.
    void mergeFrom(const MetricsRegistry& other);

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// -- wall-clock helpers for nanosecond leg costs ----------------------------
//
// The virtual clock never advances during parse/translate/compose (they are
// instantaneous in simulation time); their real CPU cost is measured on the
// steady clock and reported in nanoseconds.

std::uint64_t wallNowNs();
inline std::uint64_t wallSinceNs(std::uint64_t startNs) { return wallNowNs() - startNs; }

}  // namespace starlink::telemetry
