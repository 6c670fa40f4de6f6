// starlink_probe -- scripted live client for a `starlinkd serve
// --transport=os` daemon, used by tools/daemon_smoke.sh (and by hand).
//
//   starlink_probe lookup [--proto slp|upnp|bonjour] --port-base B
//                  [--bind A] [--sessions N] [--timeout-ms T] [--retransmit-ms R]
//       Run N sequential discovery lookups against the daemon over REAL
//       loopback sockets, through the same net::OsNetwork backend the daemon
//       uses (--port-base must match the daemon's so logical ports resolve
//       to the same wire ports). Prints one line per lookup; exits 0 iff
//       every lookup discovered a service URL.
//
//   starlink_probe scrape --port P [--host A] [--path /metrics]
//       Fetch the daemon's metrics endpoint with a plain blocking TCP
//       socket -- deliberately NOT OsNetwork, whose client connections are
//       length-prefix framed; a Prometheus scrape is raw HTTP. Prints the
//       response body; exits 0 iff the status line says 200.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/net/os_network.hpp"
#include "protocols/peers.hpp"

namespace {

using namespace starlink;

int usage() {
    std::cerr << "usage: starlink_probe lookup [--proto slp|upnp|bonjour] --port-base B\n"
                 "                      [--bind A] [--sessions N] [--timeout-ms T]\n"
                 "                      [--retransmit-ms R]\n"
                 "       starlink_probe scrape --port P [--host A] [--path /metrics]\n";
    return 2;
}

int cmdLookup(const std::string& proto, const std::string& bindAddress, int portBase,
              int sessions, int timeoutMs, int retransmitMs) {
    // Same capability gate the conformance suite uses: in sandboxes whose
    // kernel will not deliver multicast on loopback no discovery request can
    // reach the daemon; 77 is the automake/ctest "skip" convention.
    if (!net::OsNetwork::loopbackMulticastUsable()) {
        std::cerr << "probe: loopback multicast unusable in this sandbox; skipping\n";
        return 77;
    }
    net::OsNetwork::Options netOptions;
    netOptions.bindAddress = bindAddress;
    netOptions.portBase = static_cast<std::uint16_t>(portBase);
    net::OsNetwork network{netOptions};

    // One client agent reused across lookups, like a real legacy peer. The
    // windows are kept tight because this backend pays them in wall time.
    const auto protocol = peers::protocolBySlug(proto);
    if (!protocol) return usage();
    peers::ClientConfigs configs;
    configs.slp.timeout = net::ms(timeoutMs);
    // Real discovery clients re-ask until something answers; 0 keeps the SLP
    // default of no re-send (the reload smoke's hitless-swap batch).
    if (retransmitMs > 0) configs.slp.retransmitInterval = net::ms(retransmitMs);
    configs.upnp.mxWindowBase = net::ms(30);
    configs.upnp.mxWindowJitter = net::ms(3);
    configs.bonjour.aggregationBase = net::ms(20);
    configs.bonjour.aggregationJitter = net::ms(2);
    peers::Client client(network, *protocol, configs);

    int successes = 0;
    for (int i = 1; i <= sessions; ++i) {
        bool settled = false;
        std::vector<std::string> urls;
        client.lookup([&settled, &urls](const peers::Client::Result& r) {
            urls = r.urls;
            settled = true;
        });
        network.runUntil([&settled] { return settled; },
                         net::ms(timeoutMs) + net::ms(2000));
        if (settled && !urls.empty()) {
            ++successes;
            std::cout << "lookup #" << i << ": ok " << urls.front() << "\n";
        } else {
            std::cout << "lookup #" << i << ": " << (settled ? "empty" : "unsettled") << "\n";
        }
    }
    std::cout << "probe: " << successes << "/" << sessions << " lookups discovered\n";
    return successes == sessions ? 0 : 1;
}

int cmdScrape(const std::string& host, int port, const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::cerr << "probe: socket: " << std::strerror(errno) << "\n";
        return 1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        std::cerr << "probe: bad host '" << host << "'\n";
        ::close(fd);
        return 1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        std::cerr << "probe: connect " << host << ":" << port << ": "
                  << std::strerror(errno) << "\n";
        ::close(fd);
        return 1;
    }
    const std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) < 0) {
        std::cerr << "probe: send: " << std::strerror(errno) << "\n";
        ::close(fd);
        return 1;
    }
    std::string response;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        response.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const auto headerEnd = response.find("\r\n\r\n");
    std::cout << (headerEnd == std::string::npos ? response
                                                 : response.substr(headerEnd + 4));
    return response.rfind("HTTP/1.1 200", 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string command = argc >= 2 ? argv[1] : "";
    std::string proto = "slp";
    std::string bindAddress = "127.0.0.1";
    std::string host = "127.0.0.1";
    std::string path = "/metrics";
    int portBase = 0;
    int sessions = 1;
    int timeoutMs = 3000;
    int port = 0;
    int retransmitMs = 0;
    try {
        for (int i = 2; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--proto" && i + 1 < argc) proto = argv[++i];
            else if (flag == "--bind" && i + 1 < argc) bindAddress = argv[++i];
            else if (flag == "--host" && i + 1 < argc) host = argv[++i];
            else if (flag == "--path" && i + 1 < argc) path = argv[++i];
            else if (flag == "--port-base" && i + 1 < argc) portBase = std::stoi(argv[++i]);
            else if (flag == "--sessions" && i + 1 < argc) sessions = std::stoi(argv[++i]);
            else if (flag == "--timeout-ms" && i + 1 < argc) timeoutMs = std::stoi(argv[++i]);
            else if (flag == "--port" && i + 1 < argc) port = std::stoi(argv[++i]);
            else if (flag == "--retransmit-ms" && i + 1 < argc) retransmitMs = std::stoi(argv[++i]);
            else return usage();
        }
        if (command == "lookup" && portBase > 0 && portBase <= 45000 && sessions >= 1 &&
            timeoutMs >= 1) {
            return cmdLookup(proto, bindAddress, portBase, sessions, timeoutMs, retransmitMs);
        }
        if (command == "scrape" && port > 0 && port <= 65535) {
            return cmdScrape(host, port, path);
        }
        return usage();
    } catch (const std::exception& error) {
        const errc::ErrorCode code = to_error_code(error);
        std::cerr << "probe: [" << errc::to_string(code) << "] " << error.what() << "\n";
        return 10 + static_cast<int>(errc::layerOf(code));
    }
}
