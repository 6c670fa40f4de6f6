#include "core/telemetry/span.hpp"

#include <algorithm>

namespace starlink::telemetry {

void SpanBuffer::push(Span span) {
    if (capacity_ == 0) {
        ++dropped_;
        return;
    }
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(span));
        return;
    }
    // Full: overwrite the oldest.
    ring_[head_] = std::move(span);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void SpanBuffer::clear() {
    ring_.clear();
    head_ = 0;
}

std::vector<Span> SpanBuffer::snapshot() const {
    std::vector<Span> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
}

SpanId SessionTracer::beginSession(net::TimePoint now) {
    if (!enabled()) return 0;
    session_ = ++buffer_->sessions_;
    Span span;
    span.id = buffer_->nextId_++;
    span.session = session_;
    span.name = "session";
    span.start = now;
    root_ = span.id;
    open_.push_back(std::move(span));
    return root_;
}

SpanId SessionTracer::begin(std::string name, net::TimePoint now, SpanId parent) {
    if (!enabled()) return 0;
    Span span;
    span.id = buffer_->nextId_++;
    span.parent = parent != 0 ? parent : root_;
    span.session = session_;
    span.name = std::move(name);
    span.start = now;
    open_.push_back(std::move(span));
    return open_.back().id;
}

SpanId SessionTracer::instant(std::string name, net::TimePoint now, std::uint64_t wallNs,
                              SpanId parent) {
    if (!enabled()) return 0;
    Span span;
    span.id = buffer_->nextId_++;
    span.parent = parent != 0 ? parent : root_;
    span.session = session_;
    span.name = std::move(name);
    span.start = now;
    span.end = now;
    span.wallNs = wallNs;
    const SpanId id = span.id;
    commit(std::move(span));
    return id;
}

Span* SessionTracer::find(SpanId id) {
    for (auto& span : open_) {
        if (span.id == id) return &span;
    }
    return nullptr;
}

void SessionTracer::attr(SpanId id, std::string key, std::string value) {
    if (Span* span = find(id)) {
        span->attrs.push_back({std::move(key), std::move(value)});
    }
}

void SessionTracer::end(SpanId id, net::TimePoint now, std::uint64_t wallNs) {
    if (id == 0) return;
    const auto it = std::find_if(open_.begin(), open_.end(),
                                 [id](const Span& span) { return span.id == id; });
    if (it == open_.end()) return;
    Span span = std::move(*it);
    open_.erase(it);
    span.end = now;
    span.wallNs = wallNs;
    commit(std::move(span));
}

void SessionTracer::endSession(net::TimePoint now) {
    if (root_ == 0) return;
    // Commit stragglers first so the root lands last (exporters do not care,
    // but a truncated buffer then favours keeping the root).
    std::vector<Span> stragglers;
    stragglers.swap(open_);
    Span rootSpan;
    bool haveRoot = false;
    for (auto& span : stragglers) {
        span.end = now;
        if (span.id == root_) {
            rootSpan = std::move(span);
            haveRoot = true;
        } else {
            span.attrs.push_back({"truncated", "session-end"});
            commit(std::move(span));
        }
    }
    if (haveRoot) commit(std::move(rootSpan));
    root_ = 0;
}

void SessionTracer::commit(Span span) { buffer_->push(std::move(span)); }

}  // namespace starlink::telemetry
