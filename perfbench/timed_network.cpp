// The timing decorator: a net::Network that forwards to a real backend and
// times every call the bridge makes into it and every upcall it receives.
//
// It is handed to bridge::Starlink, while the legacy peers keep the raw
// backend, so only the bridge's work is attributed:
//   - receive upcalls (datagram, TCP chunk, accept, connect result) add to
//     rxNs: network-engine dispatch, automaton step, parse, translation and
//     any synchronous send;
//   - tasks the bridge schedules (delayed compose+send, retransmit, idle and
//     session deadlines) add to timerNs;
//   - sendTo/send add to txNs (nested inside the two above).
// Only the outermost upcall on a thread is timed, and allocations inside it
// count as bridge allocations. The decorator's own allocations (wrapping a
// task or connection, capturing traffic) run under AllocPause.
#include <utility>

#include "perfbench.hpp"

namespace perfbench {

using namespace starlink;

void LayerStats::add(const LayerStats& other) {
    rxNs += other.rxNs;
    rxCalls += other.rxCalls;
    timerNs += other.timerNs;
    timersFired += other.timersFired;
    timersScheduled += other.timersScheduled;
    timersCancelled += other.timersCancelled;
    txNs += other.txNs;
    txMsgs += other.txMsgs;
    txBytes += other.txBytes;
    messagesDelivered += other.messagesDelivered;
    loopNs += other.loopNs;
}

namespace {

/// Times one upcall into the bridge (outermost scope only).
class Upcall {
public:
    Upcall(std::uint64_t& ns, std::uint64_t& calls)
        : ns_(ns), start_(scope_.outer() ? nowNs() : 0) {
        ++calls;
    }
    ~Upcall() {
        if (scope_.outer()) ns_ += nowNs() - start_;
    }
    Upcall(const Upcall&) = delete;
    Upcall& operator=(const Upcall&) = delete;

private:
    BridgeScope scope_;
    std::uint64_t& ns_;
    std::uint64_t start_;
};

void capture(LayerStats& stats, const Bytes& payload) {
    if (stats.captured.size() >= stats.captureLimit) return;
    AllocPause pause;
    stats.captured.push_back(payload);
}

/// Times a bridge send and counts it.
template <typename Send>
void timedSend(LayerStats& stats, const Bytes& payload, Send&& send) {
    capture(stats, payload);
    const std::uint64_t start = nowNs();
    send();
    stats.txNs += nowNs() - start;
    ++stats.txMsgs;
    stats.txBytes += payload.size();
}

class TimedScheduler final : public net::TaskScheduler {
public:
    TimedScheduler(net::TaskScheduler& inner, LayerStats& stats) : inner_(inner), stats_(stats) {}

    net::EventId schedule(net::Duration delay, std::function<void()> fn) override {
        ++stats_.timersScheduled;
        std::function<void()> wrapped;
        {
            AllocPause pause;
            wrapped = [&stats = stats_, fn = std::move(fn)] {
                Upcall upcall(stats.timerNs, stats.timersFired);
                fn();
            };
        }
        return inner_.schedule(delay, std::move(wrapped));
    }

    bool cancel(net::EventId id) override {
        const bool cancelled = inner_.cancel(id);
        if (cancelled) ++stats_.timersCancelled;
        return cancelled;
    }

private:
    net::TaskScheduler& inner_;
    LayerStats& stats_;
};

class TimedUdp final : public net::UdpSocket {
public:
    TimedUdp(std::unique_ptr<net::UdpSocket> inner, LayerStats& stats)
        : inner_(std::move(inner)), stats_(stats) {
        inner_->onDatagram([this](const Bytes& payload, const net::Address& from) {
            if (!handler_) return;
            Upcall upcall(stats_.rxNs, stats_.rxCalls);
            ++stats_.messagesDelivered;
            capture(stats_, payload);
            handler_(payload, from);
        });
    }

    const net::Address& localAddress() const override { return inner_->localAddress(); }
    void joinGroup(const net::Address& group) override { inner_->joinGroup(group); }
    void leaveGroup(const net::Address& group) override { inner_->leaveGroup(group); }
    void sendTo(const net::Address& dest, const Bytes& payload) override {
        timedSend(stats_, payload, [&] { inner_->sendTo(dest, payload); });
    }

private:
    std::unique_ptr<net::UdpSocket> inner_;
    LayerStats& stats_;
};

class TimedTcp final : public net::TcpConnection {
public:
    static std::shared_ptr<net::TcpConnection> wrap(std::shared_ptr<net::TcpConnection> inner,
                                                    LayerStats& stats) {
        if (!inner) return nullptr;
        AllocPause pause;
        std::shared_ptr<TimedTcp> self(new TimedTcp(std::move(inner), stats));
        std::weak_ptr<TimedTcp> weak = self;
        self->inner_->onData([weak](const Bytes& payload) {
            if (auto live = weak.lock()) live->deliver(payload);
        });
        self->inner_->onClose([weak] {
            if (auto live = weak.lock()) live->closed();
        });
        return self;
    }

    void send(const Bytes& payload) override {
        timedSend(stats_, payload, [&] { inner_->send(payload); });
    }
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }
    const net::Address& localAddress() const override { return inner_->localAddress(); }
    const net::Address& remoteAddress() const override { return inner_->remoteAddress(); }

private:
    TimedTcp(std::shared_ptr<net::TcpConnection> inner, LayerStats& stats)
        : inner_(std::move(inner)), stats_(stats) {}

    void deliver(const Bytes& payload) {
        if (!dataHandler_) return;
        Upcall upcall(stats_.rxNs, stats_.rxCalls);
        ++stats_.messagesDelivered;
        capture(stats_, payload);
        dataHandler_(payload);
    }
    void closed() {
        if (!closeHandler_) return;
        Upcall upcall(stats_.rxNs, stats_.rxCalls);
        closeHandler_();
    }

    std::shared_ptr<net::TcpConnection> inner_;
    LayerStats& stats_;
};

class TimedListener final : public net::TcpListener {
public:
    TimedListener(std::unique_ptr<net::TcpListener> inner, LayerStats& stats)
        : inner_(std::move(inner)), stats_(stats) {
        inner_->onAccept([this](std::shared_ptr<net::TcpConnection> conn) {
            if (!handler_) return;
            auto wrapped = TimedTcp::wrap(std::move(conn), stats_);
            Upcall upcall(stats_.rxNs, stats_.rxCalls);
            handler_(std::move(wrapped));
        });
    }

    const net::Address& localAddress() const override { return inner_->localAddress(); }

private:
    std::unique_ptr<net::TcpListener> inner_;
    LayerStats& stats_;
};

class TimedNetwork final : public net::Network {
public:
    TimedNetwork(net::Network& inner, LayerStats& stats)
        : inner_(inner), stats_(stats), scheduler_(inner.scheduler(), stats) {}

    net::TaskScheduler& scheduler() override { return scheduler_; }
    net::TimePoint now() const override { return inner_.now(); }

    std::unique_ptr<net::UdpSocket> openUdp(const std::string& host,
                                            std::uint16_t port = 0) override {
        auto inner = inner_.openUdp(host, port);
        AllocPause pause;
        return std::make_unique<TimedUdp>(std::move(inner), stats_);
    }

    std::unique_ptr<net::TcpListener> listenTcp(const std::string& host,
                                                std::uint16_t port) override {
        auto inner = inner_.listenTcp(host, port);
        AllocPause pause;
        return std::make_unique<TimedListener>(std::move(inner), stats_);
    }

    void connectTcp(const std::string& host, const net::Address& dest, ConnectCallback onResult,
                    ConnectErrorCallback onError = nullptr) override {
        AllocPause pause;
        LayerStats& stats = stats_;
        ConnectErrorCallback timedError;
        if (onError) {
            timedError = [&stats, onError = std::move(onError)](errc::ErrorCode code,
                                                                 const std::string& detail) {
                Upcall upcall(stats.rxNs, stats.rxCalls);
                onError(code, detail);
            };
        }
        inner_.connectTcp(
            host, dest,
            [&stats, onResult = std::move(onResult)](std::shared_ptr<net::TcpConnection> conn) {
                auto wrapped = TimedTcp::wrap(std::move(conn), stats);
                Upcall upcall(stats.rxNs, stats.rxCalls);
                if (onResult) onResult(std::move(wrapped));
            },
            std::move(timedError));
    }

    bool runUntil(std::function<bool()> done, net::Duration timeout) override {
        const std::uint64_t start = nowNs();
        const bool result = inner_.runUntil(std::move(done), timeout);
        stats_.loopNs += nowNs() - start;
        return result;
    }

    const char* backendName() const override { return inner_.backendName(); }

private:
    net::Network& inner_;
    LayerStats& stats_;
    TimedScheduler scheduler_;
};

}  // namespace

std::unique_ptr<net::Network> makeTimedNetwork(net::Network& inner, LayerStats& stats) {
    return std::make_unique<TimedNetwork>(inner, stats);
}

}  // namespace perfbench
