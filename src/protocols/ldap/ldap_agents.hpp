// Legacy LDAP-style directory applications: a directory server holding
// service entries with attributes, and a one-shot search client. Both speak
// the simplified framing of ldap_codec.hpp over simulated TCP.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "protocols/ldap/ldap_codec.hpp"

namespace starlink::ldap {

/// One directory entry: a registered service with attributes.
struct Entry {
    std::string dn;            // "cn=printer1,dc=services,dc=local"
    std::string serviceClass;  // "service:printer"
    std::string url;
    std::map<std::string, std::string> attributes;
};

/// Serves search requests over TCP; first entry matching class + filter
/// wins (the codec's single-URL result mirrors the SLP subset).
class DirectoryServer {
public:
    struct Config {
        std::string host = "10.0.0.3";
        std::uint16_t port = kPort;
        net::Duration responseDelayBase = net::ms(70);
        net::Duration responseDelayJitter = net::ms(20);
        std::uint64_t seed = 29;
    };

    DirectoryServer(net::Network& network, Config config);

    void addEntry(Entry entry) { entries_.push_back(std::move(entry)); }

    const std::vector<Entry>& entries() const { return entries_; }
    std::size_t searchesServed() const { return served_; }
    const Config& config() const { return config_; }

private:
    void onRequest(const std::shared_ptr<net::TcpConnection>& connection, const Bytes& data);

    net::Network& network_;
    Config config_;
    Rng rng_;
    std::unique_ptr<net::TcpListener> listener_;
    std::vector<std::shared_ptr<net::TcpConnection>> connections_;
    std::vector<Entry> entries_;
    std::size_t served_ = 0;
};

/// Issues one search per call against a directory (or a bridge posing as
/// one).
class DirectoryClient {
public:
    struct Result {
        bool success = false;
        std::string url;
        net::Duration elapsed = net::ms(0);
    };
    using Callback = std::function<void(const Result&)>;

    struct Config {
        std::string host = "10.0.0.1";
    };

    DirectoryClient(net::Network& network, std::string host)
        : network_(network), host_(std::move(host)) {}
    DirectoryClient(net::Network& network, Config config)
        : DirectoryClient(network, std::move(config.host)) {}

    void search(const std::string& directoryHost, std::uint16_t directoryPort,
                const std::string& serviceClass, const std::string& filter, Callback callback);

private:
    net::Network& network_;
    std::string host_;
    std::uint16_t nextId_ = 0x6000;
};

}  // namespace starlink::ldap
