#include "core/telemetry/metrics.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

namespace starlink::telemetry {

namespace detail {
std::atomic<bool> gEnabled{false};
}  // namespace detail

namespace {
/// Splits "family{labels}" into its parts; `labels` keeps the braces' inner
/// text ("" when the name carries none).
void splitName(const std::string& name, std::string& family, std::string& labels) {
    const auto brace = name.find('{');
    if (brace == std::string::npos) {
        family = name;
        labels.clear();
        return;
    }
    family = name.substr(0, brace);
    const auto close = name.rfind('}');
    labels = name.substr(brace + 1, close == std::string::npos ? std::string::npos
                                                               : close - brace - 1);
}

std::string formatDouble(double v) {
    std::ostringstream out;
    out << v;
    return out.str();
}
}  // namespace

void setEnabled(bool on) { detail::gEnabled.store(on, std::memory_order_relaxed); }

std::string labeled(std::string_view name, std::span<const Label> labels) {
    std::string out(name);
    if (labels.empty()) return out;
    out += '{';
    bool first = true;
    for (const auto& [key, value] : labels) {
        if (!first) out += ',';
        first = false;
        out += key;
        out += "=\"";
        for (const char c : value) {
            switch (c) {
                case '\\': out += "\\\\"; break;
                case '"': out += "\\\""; break;
                case '\n': out += "\\n"; break;
                default: out += c;
            }
        }
        out += '"';
    }
    out += '}';
    return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
    if (bounds_.empty()) throw std::invalid_argument("histogram: no bucket bounds");
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1]) {
            throw std::invalid_argument("histogram: bounds must be strictly increasing");
        }
    }
}

void Histogram::observe(double v) {
    std::size_t bucket = bounds_.size();  // +Inf
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (v <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + v, std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
}

void Histogram::merge(const Histogram& other) {
    if (other.bounds_ != bounds_) {
        throw std::invalid_argument("histogram merge: bucket bounds differ");
    }
    const auto counts = other.bucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
        buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    const double add = other.sum();
    double current = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(current, current + add, std::memory_order_relaxed)) {
    }
}

MetricsRegistry& MetricsRegistry::global() {
    static MetricsRegistry registry;
    return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
    std::lock_guard lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
    std::lock_guard lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot) {
        slot = std::make_unique<Histogram>(std::move(bounds));
    } else if (slot->bounds() != bounds) {
        throw std::invalid_argument("histogram '" + name + "' re-registered with different bounds");
    }
    return *slot;
}

void MetricsRegistry::mergeFrom(const MetricsRegistry& other) {
    if (&other == this) return;
    std::scoped_lock lock(mutex_, other.mutex_);
    for (const auto& [name, counter] : other.counters_) {
        auto& slot = counters_[name];
        if (!slot) slot = std::make_unique<Counter>();
        slot->add(counter->value());
    }
    for (const auto& [name, gauge] : other.gauges_) {
        auto& slot = gauges_[name];
        if (!slot) slot = std::make_unique<Gauge>();
        slot->add(gauge->value());
    }
    for (const auto& [name, histogram] : other.histograms_) {
        auto& slot = histograms_[name];
        if (!slot) slot = std::make_unique<Histogram>(histogram->bounds());
        slot->merge(*histogram);
    }
}

std::string MetricsRegistry::renderPrometheus(std::optional<std::int64_t> virtualTimeUs) const {
    std::lock_guard lock(mutex_);
    std::ostringstream out;
    if (virtualTimeUs) {
        out << "# TYPE starlink_virtual_time_us gauge\n"
            << "starlink_virtual_time_us " << *virtualTimeUs << "\n";
    }

    std::string family, labels, lastFamily;
    auto typeLine = [&](const std::string& name, const char* kind) {
        splitName(name, family, labels);
        if (family != lastFamily) {
            out << "# TYPE " << family << ' ' << kind << '\n';
            lastFamily = family;
        }
    };

    for (const auto& [name, counter] : counters_) {
        typeLine(name, "counter");
        out << name << ' ' << counter->value() << '\n';
    }
    for (const auto& [name, gauge] : gauges_) {
        typeLine(name, "gauge");
        out << name << ' ' << gauge->value() << '\n';
    }
    for (const auto& [name, histogram] : histograms_) {
        typeLine(name, "histogram");
        // `le` composes with any labels baked into the registered name.
        auto bucketLine = [&](const std::string& le, std::uint64_t cumulative) {
            out << family << "_bucket{";
            if (!labels.empty()) out << labels << ',';
            out << "le=\"" << le << "\"} " << cumulative << '\n';
        };
        const auto counts = histogram->bucketCounts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < histogram->bounds().size(); ++i) {
            cumulative += counts[i];
            bucketLine(formatDouble(histogram->bounds()[i]), cumulative);
        }
        cumulative += counts.back();
        bucketLine("+Inf", cumulative);
        out << family << "_sum" << (labels.empty() ? "" : "{" + labels + "}") << ' '
            << formatDouble(histogram->sum()) << '\n';
        out << family << "_count" << (labels.empty() ? "" : "{" + labels + "}") << ' '
            << histogram->count() << '\n';
    }
    return out.str();
}

std::uint64_t wallNowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

}  // namespace starlink::telemetry
