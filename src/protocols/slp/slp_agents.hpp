// Legacy SLP applications: a Service Agent (answers lookups) and a User
// Agent (issues lookups) -- the OpenSLP stand-ins of the case study.
//
// Latency model: the paper's Fig 12(a) measures OpenSLP answering a lookup
// in ~6.0 s (min 5982 / median 6022 / max 6053 ms); that cost sits on the
// SERVICE side of the exchange, which is why the paper's bridge cases ending
// in SLP (UPnP->SLP, Bonjour->SLP) also pay ~6.2 s (Fig 12(b) cases 3/6):
// "the cost of translation is bounded by the response of the legacy
// protocols". The ServiceAgent therefore charges a configurable
// responseDelay before replying, defaulting to the calibrated OpenSLP-like
// window; the UserAgent returns at the first matching reply.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "protocols/slp/slp_codec.hpp"

namespace starlink::slp {

/// Answers SrvRqst multicasts for one advertised service.
class ServiceAgent {
public:
    struct Config {
        std::string host = "10.0.0.3";
        std::string serviceType = "service:printer";
        std::string url = "service:printer://10.0.0.3:515/queue1";
        /// Service attributes, matched against request predicates (RFC 2608
        /// section 8.1; this subset evaluates single "(key=value)" terms).
        std::map<std::string, std::string> attributes;
        /// OpenSLP-like processing window before the reply leaves.
        net::Duration responseDelayBase = net::ms(5980);
        net::Duration responseDelayJitter = net::ms(70);
        std::uint64_t seed = 7;
    };

    ServiceAgent(net::Network& network, Config config);

    std::size_t requestsServed() const { return served_; }
    const Config& config() const { return config_; }

private:
    void onDatagram(const Bytes& payload, const net::Address& from);

    net::Network& network_;
    Config config_;
    Rng rng_;
    std::unique_ptr<net::UdpSocket> socket_;
    std::size_t served_ = 0;
};

/// Issues one SrvRqst and reports the replies.
class UserAgent {
public:
    struct Config {
        std::string host = "10.0.0.1";
        /// Give up if nothing answers within this window (OpenSLP's default
        /// multicast wait is 15 s).
        net::Duration timeout = net::ms(15000);
        /// Re-multicast the pending SrvRqst every interval until a reply
        /// lands (OpenSLP paces multicast convergence the same way).
        /// 0 = never retransmit (the default keeps runs byte-identical).
        net::Duration retransmitInterval = net::ms(0);
    };

    struct Result {
        std::vector<std::string> urls;       // empty == lookup timed out
        net::Duration elapsed = net::ms(0);  // request out -> first reply (or timeout)
    };
    using Callback = std::function<void(const Result&)>;

    UserAgent(net::Network& network, Config config);

    /// Multicasts a lookup for `serviceType`; the callback fires at the
    /// first matching reply or at timeout. One lookup may be in flight at a
    /// time per agent.
    void lookup(const std::string& serviceType, Callback callback);

private:
    void onDatagram(const Bytes& payload, const net::Address& from);
    void finish(Result result);

    net::Network& network_;
    Config config_;
    std::unique_ptr<net::UdpSocket> socket_;
    std::uint16_t nextXid_ = 0x1000;

    std::optional<std::uint16_t> pendingXid_;
    net::TimePoint sentAt_{};
    std::optional<net::EventId> timeoutEvent_;
    std::optional<net::EventId> resendEvent_;
    Bytes lastRequest_;
    Callback callback_;

    void scheduleResend();
};

}  // namespace starlink::slp
