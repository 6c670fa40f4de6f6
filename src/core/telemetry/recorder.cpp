#include "core/telemetry/recorder.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/telemetry/span.hpp"

namespace starlink::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Little-endian primitive encoding. Strings carry a u16 length, blobs a u32;
// every event is framed by a u32 byte count so a reader can skip unknown
// kinds of a future version.

void putU8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void putU16(Bytes& out, std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void putU32(Bytes& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
}

void putU64(Bytes& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<std::uint8_t>(v >> shift));
    }
}

void putI32(Bytes& out, std::int32_t v) { putU32(out, static_cast<std::uint32_t>(v)); }
void putI64(Bytes& out, std::int64_t v) { putU64(out, static_cast<std::uint64_t>(v)); }

void putStr(Bytes& out, std::string_view s) {
    const std::size_t n = std::min<std::size_t>(s.size(), 0xffff);
    putU16(out, static_cast<std::uint16_t>(n));
    out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
}

void putBlob(Bytes& out, const Bytes& b) {
    putU32(out, static_cast<std::uint32_t>(b.size()));
    out.insert(out.end(), b.begin(), b.end());
}

/// Bounds-checked reader over an encoded buffer; every decode error is a
/// SpecViolation (the bundle/spec layer's "malformed input" code) so corrupt
/// files surface as coded errors, not UB.
class Reader {
public:
    Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }
    std::uint16_t u16() {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] |
                                                     (std::uint16_t{data_[pos_ + 1]} << 8));
        pos_ += 2;
        return v;
    }
    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        pos_ += 4;
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        pos_ += 8;
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    std::string str() {
        const std::uint16_t n = u16();
        need(n);
        std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
        pos_ += n;
        return s;
    }
    Bytes blob() {
        const std::uint32_t n = u32();
        need(n);
        Bytes b(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return b;
    }

private:
    void need(std::size_t n) const {
        if (size_ - pos_ < n) {
            throw SpecError(errc::ErrorCode::SpecViolation,
                            "flight recorder: truncated encoding (wanted " +
                                std::to_string(n) + " bytes, " +
                                std::to_string(size_ - pos_) + " left)");
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/// Frames one event into `out`, cleared first: a u32 length placeholder, the
/// kind byte and tsUs, then whatever `body` appends straight from the
/// record* arguments; the length is patched last. `out` keeps its capacity,
/// so once warm this allocates nothing.
template <typename Body>
void frameEvent(Bytes& out, WireEvent::Kind kind, std::int64_t tsUs, Body&& body) {
    out.clear();
    putU32(out, 0);
    putU8(out, static_cast<std::uint8_t>(kind));
    putI64(out, tsUs);
    body(out);
    const std::uint32_t length = static_cast<std::uint32_t>(out.size() - 4);
    for (std::size_t i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(length >> (8 * i));
}

WireEvent decodeEventBody(Reader& in, std::size_t bodyEnd) {
    WireEvent event;
    const std::uint8_t kind = in.u8();
    if (kind < 1 || kind > 7) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "flight recorder: unknown event kind " + std::to_string(kind));
    }
    event.kind = static_cast<WireEvent::Kind>(kind);
    event.tsUs = in.i64();
    switch (event.kind) {
        case WireEvent::Kind::Rx:
            event.color = in.u64();
            event.from = in.str();
            event.to = in.str();
            event.payload = in.blob();
            break;
        case WireEvent::Kind::Tx:
            event.color = in.u64();
            event.payload = in.blob();
            break;
        case WireEvent::Kind::TcpConnect:
            event.color = in.u64();
            event.from = in.str();
            event.action = in.u8();
            event.attempts = in.i32();
            break;
        case WireEvent::Kind::Transition:
            event.component = in.str();
            event.state = in.str();
            event.stateTo = in.str();
            event.action = in.u8();
            event.messageType = in.str();
            break;
        case WireEvent::Kind::Translate:
            event.state = in.str();
            event.messageType = in.str();
            break;
        case WireEvent::Kind::Fault:
            event.color = in.u64();
            event.action = in.u8();
            event.from = in.str();
            break;
        case WireEvent::Kind::SessionEnd:
            event.code = in.i32();
            event.cause = in.u8();
            event.completed = in.u8() != 0;
            event.messagesIn = in.u32();
            event.messagesOut = in.u32();
            event.retransmits = in.u32();
            break;
    }
    if (in.remaining() != bodyEnd) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "flight recorder: event length does not match its body");
    }
    return event;
}

}  // namespace

std::vector<WireEvent> decodeEvents(const Bytes& encoded) {
    std::vector<WireEvent> events;
    Reader in(encoded.data(), encoded.size());
    while (!in.done()) {
        const std::uint32_t length = in.u32();
        if (length > in.remaining()) {
            throw SpecError(errc::ErrorCode::SpecViolation,
                            "flight recorder: event frame overruns the log");
        }
        events.push_back(decodeEventBody(in, in.remaining() - length));
    }
    return events;
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::OpenLog::~OpenLog() { recorder_->chunks_ -= chunks_.size(); }

void FlightRecorder::OpenLog::beginSession(std::uint64_t ordinal, std::int64_t tsUs) {
    (void)tsUs;
    if (!recorder_->enabled()) return;
    open_ = true;
    ordinal_ = ordinal;
    used_ = 0;  // rewind; chunks stay allocated for the next session
    truncated_ = false;
    droppedEvents_ = 0;
}

void FlightRecorder::OpenLog::appendScratch() {
    if (used_ + recorder_->scratch_.size() > recorder_->cap_) {
        truncated_ = true;
        ++droppedEvents_;
        return;
    }
    appendUnconditional();
}

void FlightRecorder::OpenLog::appendUnconditional() {
    const Bytes& scratch = recorder_->scratch_;
    const std::uint8_t* src = scratch.data();
    std::size_t left = scratch.size();
    while (left > 0) {
        const std::size_t chunkIndex = used_ / kChunkBytes;
        const std::size_t offset = used_ % kChunkBytes;
        if (chunkIndex == chunks_.size()) {
            chunks_.push_back(std::make_unique<std::uint8_t[]>(kChunkBytes));
            ++recorder_->chunks_;
        }
        const std::size_t n = std::min(left, kChunkBytes - offset);
        std::memcpy(chunks_[chunkIndex].get() + offset, src, n);
        src += n;
        left -= n;
        used_ += n;
    }
}

void FlightRecorder::OpenLog::recordRx(std::int64_t tsUs, std::uint64_t color, std::string_view from,
                              std::string_view to, const Bytes& payload) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::Rx, tsUs, [&](Bytes& out) {
        putU64(out, color);
        putStr(out, from);
        putStr(out, to);
        putBlob(out, payload);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::recordTx(std::int64_t tsUs, std::uint64_t color, const Bytes& payload) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::Tx, tsUs, [&](Bytes& out) {
        putU64(out, color);
        putBlob(out, payload);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::recordConnect(std::int64_t tsUs, std::uint64_t color,
                                   std::string_view target, std::uint8_t outcome,
                                   std::int32_t attempts) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::TcpConnect, tsUs, [&](Bytes& out) {
        putU64(out, color);
        putStr(out, target);
        putU8(out, outcome);
        putI32(out, attempts);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::recordTransition(std::int64_t tsUs, std::string_view component,
                                      std::string_view from, std::string_view to,
                                      std::uint8_t action, std::string_view messageType) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::Transition, tsUs, [&](Bytes& out) {
        putStr(out, component);
        putStr(out, from);
        putStr(out, to);
        putU8(out, action);
        putStr(out, messageType);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::recordTranslate(std::int64_t tsUs, std::string_view state,
                                     std::string_view messageType) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::Translate, tsUs, [&](Bytes& out) {
        putStr(out, state);
        putStr(out, messageType);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::recordFault(std::int64_t tsUs, std::uint64_t color, std::uint8_t fault,
                                 std::string_view detail) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::Fault, tsUs, [&](Bytes& out) {
        putU64(out, color);
        putU8(out, fault);
        putStr(out, detail);
    });
    appendScratch();
}

void FlightRecorder::OpenLog::endSession(std::int64_t tsUs, std::int32_t code, std::uint8_t cause,
                                bool completed, std::uint32_t messagesIn,
                                std::uint32_t messagesOut, std::uint32_t retransmits) {
    if (!open_) return;
    frameEvent(recorder_->scratch_, WireEvent::Kind::SessionEnd, tsUs, [&](Bytes& out) {
        putI32(out, code);
        putU8(out, cause);
        putU8(out, completed ? 1 : 0);
        putU32(out, messagesIn);
        putU32(out, messagesOut);
        putU32(out, retransmits);
    });
    // The terminal record always lands, cap or not: a log without its end
    // event would be ambiguous about how the session died.
    appendUnconditional();

    // A full ring hands its oldest log over for reuse: its events buffer
    // keeps its capacity, so a warm ring copies the session without growing.
    std::deque<SessionLog>& recent = recorder_->recent_;
    SessionLog log;
    if (!recent.empty() && recent.size() >= recorder_->ringCapacity_) {
        log = std::move(recent.front());
        recent.pop_front();
    }
    log.ordinal = ordinal_;
    log.truncated = truncated_;
    log.droppedEvents = droppedEvents_;
    log.events.clear();
    std::size_t left = used_;
    for (const auto& chunk : chunks_) {
        if (left == 0) break;
        const std::size_t n = std::min(left, kChunkBytes);
        log.events.insert(log.events.end(), chunk.get(), chunk.get() + n);
        left -= n;
    }
    recent.push_back(std::move(log));
    while (recent.size() > recorder_->ringCapacity_) recent.pop_front();
    open_ = false;
    used_ = 0;
}

// ---------------------------------------------------------------------------
// PostmortemBundle

namespace {
constexpr std::uint32_t kBundleMagic = 0x52464C53;  // "SLFR"
constexpr std::uint16_t kBundleVersion = 1;

void putSpan(Bytes& out, const Span& span) {
    putU64(out, span.id);
    putU64(out, span.parent);
    putU64(out, span.session);
    putStr(out, span.name);
    putI64(out, span.start.time_since_epoch().count());
    putI64(out, span.end.time_since_epoch().count());
    putU64(out, span.wallNs);
    putU16(out, static_cast<std::uint16_t>(std::min<std::size_t>(span.attrs.size(), 0xffff)));
    for (const SpanAttr& attr : span.attrs) {
        putStr(out, attr.key);
        putStr(out, attr.value);
    }
}

Span getSpan(Reader& in) {
    Span span;
    span.id = in.u64();
    span.parent = in.u64();
    span.session = in.u64();
    span.name = in.str();
    span.start = net::TimePoint{net::Duration{in.i64()}};
    span.end = net::TimePoint{net::Duration{in.i64()}};
    span.wallNs = in.u64();
    const std::uint16_t attrs = in.u16();
    span.attrs.reserve(attrs);
    for (std::uint16_t i = 0; i < attrs; ++i) {
        SpanAttr attr;
        attr.key = in.str();
        attr.value = in.str();
        span.attrs.push_back(std::move(attr));
    }
    return span;
}

}  // namespace

Bytes encodeBundle(const PostmortemBundle& bundle) {
    Bytes out;
    out.reserve(256 + bundle.events.size());
    putU32(out, kBundleMagic);
    putU16(out, kBundleVersion);
    putStr(out, bundle.bridge);
    putStr(out, bundle.caseSlug);
    putStr(out, bundle.bridgeHost);
    putI32(out, bundle.shard);
    putU64(out, bundle.sessionOrdinal);
    putU64(out, bundle.sessionSeed);
    putU64(out, bundle.retrySeed);
    putU64(out, bundle.retryDraws);
    putU64(out, bundle.modelIdentity);
    putI32(out, bundle.abortCode);
    putU8(out, bundle.cause);
    putI64(out, bundle.processingDelayUs);
    putI64(out, bundle.sessionTimeoutUs);
    putI64(out, bundle.receiveTimeoutUs);
    putI64(out, bundle.retransmitJitterUs);
    putI64(out, bundle.idleTimeoutUs);
    putI64(out, bundle.tcpConnectRetryDelayUs);
    putI64(out, bundle.tcpConnectRetryMaxDelayUs);
    putI32(out, bundle.maxRetransmits);
    putI32(out, bundle.tcpConnectAttempts);
    putI64(out, bundle.retransmitBackoffMicros);
    putU64(out, bundle.tcpMaxBacklogBytes);
    putU8(out, bundle.truncated ? 1 : 0);
    putU64(out, bundle.droppedEvents);
    putBlob(out, bundle.events);
    putU32(out, static_cast<std::uint32_t>(bundle.spans.size()));
    for (const Span& span : bundle.spans) putSpan(out, span);
    return out;
}

PostmortemBundle decodeBundle(const Bytes& encoded) {
    Reader in(encoded.data(), encoded.size());
    if (in.remaining() < 6 || in.u32() != kBundleMagic) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "postmortem bundle: bad magic (not a bundle file?)");
    }
    PostmortemBundle bundle;
    bundle.version = in.u16();
    if (bundle.version != kBundleVersion) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "postmortem bundle: unsupported version " +
                            std::to_string(bundle.version));
    }
    bundle.bridge = in.str();
    bundle.caseSlug = in.str();
    bundle.bridgeHost = in.str();
    bundle.shard = in.i32();
    bundle.sessionOrdinal = in.u64();
    bundle.sessionSeed = in.u64();
    bundle.retrySeed = in.u64();
    bundle.retryDraws = in.u64();
    bundle.modelIdentity = in.u64();
    bundle.abortCode = in.i32();
    bundle.cause = in.u8();
    bundle.processingDelayUs = in.i64();
    bundle.sessionTimeoutUs = in.i64();
    bundle.receiveTimeoutUs = in.i64();
    bundle.retransmitJitterUs = in.i64();
    bundle.idleTimeoutUs = in.i64();
    bundle.tcpConnectRetryDelayUs = in.i64();
    bundle.tcpConnectRetryMaxDelayUs = in.i64();
    bundle.maxRetransmits = in.i32();
    bundle.tcpConnectAttempts = in.i32();
    bundle.retransmitBackoffMicros = in.i64();
    bundle.tcpMaxBacklogBytes = in.u64();
    bundle.truncated = in.u8() != 0;
    bundle.droppedEvents = in.u64();
    bundle.events = in.blob();
    const std::uint32_t spanCount = in.u32();
    bundle.spans.reserve(spanCount);
    for (std::uint32_t i = 0; i < spanCount; ++i) bundle.spans.push_back(getSpan(in));
    if (!in.done()) {
        throw SpecError(errc::ErrorCode::SpecViolation,
                        "postmortem bundle: trailing bytes after the span table");
    }
    return bundle;
}

// ---------------------------------------------------------------------------
// PostmortemSpool

PostmortemSpool::PostmortemSpool(Options options) : options_(std::move(options)) {}

std::string PostmortemSpool::write(const PostmortemBundle& bundle) {
    std::scoped_lock lock(mutex_);
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(options_.directory, ec);
    if (ec) {
        STARLINK_LOG(Warn, "recorder") << "postmortem spool: cannot create '"
                                       << options_.directory << "': " << ec.message();
        return {};
    }
    // Stable, sortable, collision-free names: sequence + bridge + code.
    std::string bridge = bundle.bridge.empty() ? "bridge" : bundle.bridge;
    for (char& c : bridge) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_')) c = '_';
    }
    char seqText[16];
    std::snprintf(seqText, sizeof(seqText), "%06llu",
                  static_cast<unsigned long long>(++seq_));
    const fs::path path = fs::path(options_.directory) /
                          ("pm-" + std::string(seqText) + "-" + bridge + "-" +
                           std::to_string(bundle.abortCode) + ".slfr");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            STARLINK_LOG(Warn, "recorder") << "postmortem spool: cannot write "
                                           << path.string();
            --seq_;
            return {};
        }
        const Bytes encoded = encodeBundle(bundle);
        out.write(reinterpret_cast<const char*>(encoded.data()),
                  static_cast<std::streamsize>(encoded.size()));
    }
    files_.push_back(path.string());
    while (options_.maxBundles != 0 && files_.size() > options_.maxBundles) {
        fs::remove(files_.front(), ec);  // best-effort; the cap is advisory
        files_.pop_front();
    }
    return path.string();
}

std::uint64_t PostmortemSpool::written() const {
    std::scoped_lock lock(mutex_);
    return seq_;
}

std::vector<std::string> PostmortemSpool::files() const {
    std::scoped_lock lock(mutex_);
    return {files_.begin(), files_.end()};
}

}  // namespace starlink::telemetry
