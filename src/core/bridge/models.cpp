#include "core/bridge/models.hpp"

#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace starlink::bridge::models {

namespace {

/// Where a deployment puts the values the committed files carry as defaults.
struct Placement {
    std::string bridgeHost = "10.0.0.9";
    int bridgeHttpPort = 8085;
    std::string directoryHost = "10.0.0.3";  ///< "" drops the LDAP client's host
};

const std::string& embedded(std::string_view file) {
    const Documents& documents = embeddedDocuments();
    const auto it = documents.find(file);
    if (it == documents.end()) {
        throw SpecError("no built-in model file '" + std::string(file) + "'");
    }
    return it->second;
}

/// Replaces the default `from`, which the committed `file` must carry.
void substitute(std::string& bytes, std::string_view from, const std::string& to,
                std::string_view file) {
    const std::size_t at = bytes.find(from);
    if (at == std::string::npos) {
        throw SpecError("built-in model '" + std::string(file) + "' lacks '" +
                        std::string(from) + "'");
    }
    bytes.replace(at, from.size(), to);
}

/// `bytes` (the committed `file`) specialised to `at`. These three are the
/// only substitutions; at the defaults each is a no-op.
std::string place(std::string_view file, std::string bytes, const Placement& at) {
    const std::string port = std::to_string(at.bridgeHttpPort);
    if (file == "UPnP-to-SLP.bridge.xml" || file == "UPnP-to-Bonjour.bridge.xml") {
        substitute(bytes, "http://10.0.0.9:8085/desc.xml",
                   "http://" + at.bridgeHost + ":" + port + "/desc.xml", file);
    } else if (file == "http.server.automaton.xml") {
        substitute(bytes, "port=\"8085\"", "port=\"" + port + "\"", file);
    } else if (file == "ldap.client.automaton.xml") {
        substitute(bytes, " host=\"10.0.0.3\"",
                   at.directoryHost.empty() ? "" : " host=\"" + at.directoryHost + "\"", file);
    }
    return bytes;
}

std::string builtin(std::string_view file, const Placement& at = {}) {
    return place(file, embedded(file), at);
}

std::string automatonFile(const char* protocol, Role role) {
    return std::string(protocol) + (role == Role::Server ? ".server" : ".client") +
           ".automaton.xml";
}

template <class Read>
DeploymentSpec assembleWith(const Direction& d, const Read& read) {
    DeploymentSpec spec;
    for (const auto& [mdl, automaton] : d.protocols) {
        spec.protocols.push_back({read(mdl), read(automaton)});
    }
    spec.bridgeXml = read(d.bridge);
    return spec;
}

}  // namespace

const std::vector<Direction>& directions() {
    static const std::vector<Direction> table = {
        {"slp-to-upnp", "SLP to UPnP", "slp", "upnp",
         {{"slp.mdl.xml", "slp.server.automaton.xml"},
          {"ssdp.mdl.xml", "ssdp.client.automaton.xml"},
          {"http.mdl.xml", "http.client.automaton.xml"}},
         "SLP-to-UPnP.bridge.xml"},
        {"slp-to-bonjour", "SLP to Bonjour", "slp", "bonjour",
         {{"slp.mdl.xml", "slp.server.automaton.xml"},
          {"dns.mdl.xml", "mdns.client.automaton.xml"}},
         "SLP-to-Bonjour.bridge.xml"},
        {"upnp-to-slp", "UPnP to SLP", "upnp", "slp",
         {{"ssdp.mdl.xml", "ssdp.server.automaton.xml"},
          {"slp.mdl.xml", "slp.client.automaton.xml"},
          {"http.mdl.xml", "http.server.automaton.xml"}},
         "UPnP-to-SLP.bridge.xml"},
        {"upnp-to-bonjour", "UPnP to Bonjour", "upnp", "bonjour",
         {{"ssdp.mdl.xml", "ssdp.server.automaton.xml"},
          {"dns.mdl.xml", "mdns.client.automaton.xml"},
          {"http.mdl.xml", "http.server.automaton.xml"}},
         "UPnP-to-Bonjour.bridge.xml"},
        {"bonjour-to-upnp", "Bonjour to UPnP", "bonjour", "upnp",
         {{"dns.mdl.xml", "mdns.server.automaton.xml"},
          {"ssdp.mdl.xml", "ssdp.client.automaton.xml"},
          {"http.mdl.xml", "http.client.automaton.xml"}},
         "Bonjour-to-UPnP.bridge.xml"},
        {"bonjour-to-slp", "Bonjour to SLP", "bonjour", "slp",
         {{"dns.mdl.xml", "mdns.server.automaton.xml"},
          {"slp.mdl.xml", "slp.client.automaton.xml"}},
         "Bonjour-to-SLP.bridge.xml"},
        {"slp-to-ldap", "SLP to LDAP", "slp", "ldap",
         {{"slp.mdl.xml", "slp.server.automaton.xml"},
          {"ldap.mdl.xml", "ldap.client.automaton.xml"}},
         "SLP-to-LDAP.bridge.xml"},
        {"ldap-to-slp", "LDAP to SLP", "ldap", "slp",
         {{"ldap.mdl.xml", "ldap.server.automaton.xml"},
          {"slp.mdl.xml", "slp.client.automaton.xml"}},
         "LDAP-to-SLP.bridge.xml"},
        {"slp-to-wsd", "SLP to WSD", "slp", "wsd",
         {{"slp.mdl.xml", "slp.server.automaton.xml"},
          {"wsd.mdl.xml", "wsd.client.automaton.xml"}},
         "SLP-to-WSD.bridge.xml"},
        {"wsd-to-slp", "WSD to SLP", "wsd", "slp",
         {{"wsd.mdl.xml", "wsd.server.automaton.xml"},
          {"slp.mdl.xml", "slp.client.automaton.xml"}},
         "WSD-to-SLP.bridge.xml"},
    };
    return table;
}

const Direction* directionBySlug(std::string_view slug) {
    for (const Direction& d : directions()) {
        if (slug == d.slug) return &d;
    }
    return nullptr;
}

namespace {

DeploymentSpec builtinSpec(const Direction& d, const Placement& at = {}) {
    return assembleWith(d, [&at](const char* file) { return builtin(file, at); });
}

DeploymentSpec builtinDirection(std::string_view slug, const Placement& at = {}) {
    const Direction* d = directionBySlug(slug);
    if (d == nullptr) throw SpecError("no built-in direction '" + std::string(slug) + "'");
    return builtinSpec(*d, at);
}

}  // namespace

// -- per-document accessors ----------------------------------------------------

std::string slpMdl() { return embedded("slp.mdl.xml"); }
std::string dnsMdl() { return embedded("dns.mdl.xml"); }
std::string ssdpMdl() { return embedded("ssdp.mdl.xml"); }
std::string httpMdl() { return embedded("http.mdl.xml"); }
std::string ldapMdl() { return embedded("ldap.mdl.xml"); }
std::string wsdMdl() { return embedded("wsd.mdl.xml"); }

std::string slpAutomaton(Role role) { return embedded(automatonFile("slp", role)); }
std::string mdnsAutomaton(Role role) { return embedded(automatonFile("mdns", role)); }
std::string ssdpAutomaton(Role role) { return embedded(automatonFile("ssdp", role)); }
std::string wsdAutomaton(Role role) { return embedded(automatonFile("wsd", role)); }

std::string httpAutomaton(Role role, int serverPort) {
    return builtin(automatonFile("http", role), {.bridgeHttpPort = serverPort});
}

std::string ldapAutomaton(Role role, const std::string& directoryHost) {
    return builtin(automatonFile("ldap", role), {.directoryHost = directoryHost});
}

const Direction& direction(Case c) { return directions().at(static_cast<std::size_t>(c)); }

DeploymentSpec assemble(const Direction& d, const Documents& docs) {
    return assembleWith(d, [&docs, &d](const char* file) -> const std::string& {
        const auto it = docs.find(std::string_view(file));
        if (it == docs.end()) {
            throw SpecError(std::string(d.slug) + ": model file '" + file + "' is missing");
        }
        return it->second;
    });
}

Documents builtinDocuments(const std::string& bridgeHost, int bridgeHttpPort) {
    const Placement at{.bridgeHost = bridgeHost, .bridgeHttpPort = bridgeHttpPort};
    Documents documents;
    for (const auto& [file, bytes] : embeddedDocuments()) {
        documents.emplace(file, place(file, bytes, at));
    }
    return documents;
}

std::uint64_t modelSetIdentity(const DeploymentSpec& spec) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    auto mix = [&h](const std::string& s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0xff;  // document separator so concatenations don't collide
        h *= 1099511628211ull;
    };
    for (const ProtocolModel& p : spec.protocols) {
        mix(p.mdlXml);
        mix(p.automatonXml);
    }
    mix(spec.bridgeXml);
    return h;
}

DeploymentSpec forDirection(const Direction& d, const std::string& bridgeHost,
                            int bridgeHttpPort) {
    return builtinSpec(d, {.bridgeHost = bridgeHost, .bridgeHttpPort = bridgeHttpPort});
}

DeploymentSpec forCase(Case c, const std::string& bridgeHost, int bridgeHttpPort) {
    return forDirection(direction(c), bridgeHost, bridgeHttpPort);
}

DeploymentSpec slpToLdap(const std::string& directoryHost) {
    return builtinDirection("slp-to-ldap", {.directoryHost = directoryHost});
}

DeploymentSpec slpToLdapWithoutPredicate(const std::string& directoryHost) {
    // The ablation baseline: the same bridge minus the one assignment that
    // carries the SLP predicate into the LDAP filter.
    DeploymentSpec spec = slpToLdap(directoryHost);
    std::string& xml = spec.bridgeXml;
    const std::string_view open = "    <Assignment";
    const std::string_view close = "</Assignment>\n";
    std::size_t removed = 0;
    for (std::size_t at = xml.find(open); at != std::string::npos; at = xml.find(open, at)) {
        const std::size_t end = xml.find(close, at);
        if (end == std::string::npos) break;
        const std::size_t length = end + close.size() - at;
        if (std::string_view(xml).substr(at, length).find("path=\"Filter\"") !=
            std::string_view::npos) {
            xml.erase(at, length);
            ++removed;
        } else {
            at += length;
        }
    }
    if (removed != 1) {
        throw SpecError("slp-to-ldap: expected one Filter assignment to remove, found " +
                        std::to_string(removed));
    }
    return spec;
}

DeploymentSpec ldapToSlp() { return builtinDirection("ldap-to-slp"); }

DeploymentSpec slpToWsd() { return builtinDirection("slp-to-wsd"); }

DeploymentSpec wsdToSlp() { return builtinDirection("wsd-to-slp"); }

std::size_t bridgeSpecLines(const DeploymentSpec& spec) {
    std::size_t lines = 0;
    for (const std::string& line : split(spec.bridgeXml, '\n')) {
        if (!trim(line).empty()) ++lines;
    }
    return lines;
}

}  // namespace starlink::bridge::models
