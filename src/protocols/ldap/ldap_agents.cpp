#include "protocols/ldap/ldap_agents.hpp"

#include <utility>

namespace starlink::ldap {

DirectoryServer::DirectoryServer(net::Network& network, Config config)
    : network_(network), config_(std::move(config)), rng_(config_.seed) {
    listener_ = network_.listenTcp(config_.host, config_.port);
    listener_->onAccept([this](std::shared_ptr<net::TcpConnection> connection) {
        connections_.push_back(connection);
        auto weak = std::weak_ptr<net::TcpConnection>(connection);
        connection->onData([this, weak](const Bytes& data) {
            if (auto conn = weak.lock()) onRequest(conn, data);
        });
        connection->onClose([this, weak] {
            const auto conn = weak.lock();
            std::erase_if(connections_, [&conn](const auto& held) { return held == conn; });
        });
    });
}

void DirectoryServer::onRequest(const std::shared_ptr<net::TcpConnection>& connection,
                                const Bytes& data) {
    const auto request = decodeRequest(data);
    if (!request) return;

    SearchResult result;
    result.messageId = request->messageId;
    result.resultCode = 32;  // noSuchObject until a match is found
    for (const Entry& entry : entries_) {
        if (!request->serviceClass.empty() && entry.serviceClass != request->serviceClass) {
            continue;
        }
        if (!filterMatches(request->filter, entry.attributes)) continue;
        result.resultCode = 0;
        result.dn = entry.dn;
        result.url = entry.url;
        break;
    }

    const auto jitterUs = config_.responseDelayJitter.count();
    const net::Duration delay =
        config_.responseDelayBase + (jitterUs > 0 ? net::us(rng_.range(0, jitterUs)) : net::us(0));
    const Bytes encoded = encode(result);
    network_.scheduler().schedule(delay, [this, connection, encoded] {
        if (!connection->isOpen()) return;
        connection->send(encoded);
        ++served_;
    });
}

void DirectoryClient::search(const std::string& directoryHost, std::uint16_t directoryPort,
                             const std::string& serviceClass, const std::string& filter,
                             Callback callback) {
    SearchRequest request;
    request.messageId = nextId_++;
    request.serviceClass = serviceClass;
    request.filter = filter;
    // Exactly one Result per search: the reply, or a failure when the
    // connection fails or closes first (a bridge that aborts its session
    // closes the connection unanswered).
    const net::TimePoint start = network_.now();
    auto pending = std::make_shared<Callback>(std::move(callback));
    const auto report = [this, start, pending](Result result) {
        if (!*pending) return;
        const Callback done = std::exchange(*pending, nullptr);
        result.elapsed = std::chrono::duration_cast<net::Duration>(network_.now() - start);
        done(result);
    };
    network_.connectTcp(
        host_, net::Address{directoryHost, directoryPort},
        [request, report](std::shared_ptr<net::TcpConnection> connection) {
            if (!connection) {
                report({});
                return;
            }
            connection->onData([request, report, connection](const Bytes& data) {
                Result result;
                const auto decoded = decodeResult(data);
                if (decoded && decoded->messageId == request.messageId &&
                    decoded->resultCode == 0) {
                    result.success = true;
                    result.url = decoded->url;
                }
                connection->close();
                report(result);
            });
            connection->onClose([report] { report({}); });
            connection->send(encode(request));
        });
}

}  // namespace starlink::ldap
