// The built-in model library: MDL documents, colored automata and bridge
// specifications for the paper's case study (section V).
//
// Everything here is DATA: the files under models/, compiled in byte for byte
// at build time (embed_models.cmake) and interpreted at runtime by the generic
// framework. No protocol-specific code exists outside these models, which is
// the paper's headline claim: "there is no implementation or deployment of
// legacy code that is specific to the behaviour of an individual protocol".
// The committed files are written for the default deployment (bridge at
// 10.0.0.9, HTTP on 8085, LDAP directory at 10.0.0.3); forDirection,
// slpToLdap, httpAutomaton and ldapAutomaton substitute other values for
// those.
//
// directions() is the one list of bridged directions: each row names its
// slug, display name, model files, bridge file and the protocols of its
// legacy client and service. Adding a direction means adding its model files
// and its row; peers::Service and peers::Client build its legacy peers from
// the row's protocols.
//
// Automata come in two roles. The same protocol is modelled from the side
// the bridge impersonates: Server (the bridge answers that protocol's
// clients) or Client (the bridge queries that protocol's services). State
// ids follow the paper's numbering: SLP s10-s12, SSDP s20-s22, HTTP s30-s32,
// mDNS s40-s42.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace starlink::bridge::models {

/// Model files by name ("slp.mdl.xml" -> bytes), laid out like models/.
using Documents = std::map<std::string, std::string, std::less<>>;

/// Every models/*.xml file, exactly as committed. Defined in the translation
/// unit the build generates from models/.
const Documents& embeddedDocuments();

enum class Role { Client, Server };

// -- MDL documents (Figs 7 and 11, completed with the reply messages) --------
std::string slpMdl();
std::string dnsMdl();
std::string ssdpMdl();
std::string httpMdl();

// -- colored automata (Figs 1, 2, 3, 9) ---------------------------------------
std::string slpAutomaton(Role role);
std::string mdnsAutomaton(Role role);
std::string ssdpAutomaton(Role role);
/// The HTTP automaton; in Server role it listens on `serverPort` at the
/// bridge host (the LOCATION the bridge advertises must point there).
std::string httpAutomaton(Role role, int serverPort = 8085);

// -- the six interoperability cases (section V) -------------------------------
//
// Case indexes the paper's six, the registry fleet (registry.hpp); every
// other caller names a direction by its Direction row.
enum class Case {
    SlpToUpnp,      // 1: SLP client discovers a UPnP device   (Figs 4-5)
    SlpToBonjour,   // 2: SLP client discovers a Bonjour service (Fig 10)
    UpnpToSlp,      // 3: UPnP control point discovers an SLP service
    UpnpToBonjour,  // 4: UPnP control point discovers a Bonjour service
    BonjourToUpnp,  // 5: Bonjour browser discovers a UPnP device
    BonjourToSlp    // 6: Bonjour browser discovers an SLP service
};

inline constexpr Case kAllCases[] = {Case::SlpToUpnp,     Case::SlpToBonjour,
                                     Case::UpnpToSlp,     Case::UpnpToBonjour,
                                     Case::BonjourToUpnp, Case::BonjourToSlp};

/// One protocol's pair of models.
struct ProtocolModel {
    std::string mdlXml;
    std::string automatonXml;
};

/// Everything one deployment needs.
struct DeploymentSpec {
    std::vector<ProtocolModel> protocols;
    std::string bridgeXml;
};

/// Order-sensitive FNV-1a fingerprint over every model document in the spec
/// (each protocol's MDL + automaton, then the bridge XML). Postmortem bundles
/// carry it so replay can refuse to re-inject a capture into different models.
std::uint64_t modelSetIdentity(const DeploymentSpec& spec);

/// One bridged direction: what its bridge is made of and who it connects.
struct Direction {
    /// "slp-to-upnp": the merged automaton's name, so also the CLI argument,
    /// the `bridge` metric label and a postmortem bundle's caseSlug.
    const char* slug;
    const char* name;  ///< "SLP to UPnP", for display only
    /// The protocol the legacy client speaks ("slp"; the bridge serves it)
    /// and the one the legacy service speaks ("upnp"; the bridge queries it),
    /// as peers::protocolBySlug names them.
    const char* client;
    const char* service;
    /// (MDL file, automaton file) per protocol, in the order the spec lists
    /// them (modelSetIdentity is order-sensitive).
    std::vector<std::pair<const char*, const char*>> protocols;
    const char* bridge;  ///< the bridge specification file
};

/// The ten built-in directions: the paper's six in Case order, then the
/// SLP<->LDAP and SLP<->WS-Discovery extensions.
const std::vector<Direction>& directions();

/// The row whose slug is `slug`; nullptr for anything else.
const Direction* directionBySlug(std::string_view slug);

/// A case's row.
const Direction& direction(Case c);

/// Assembles `d`'s spec from `docs`; throws SpecError if a file is missing.
DeploymentSpec assemble(const Direction& d, const Documents& docs);

/// embeddedDocuments() with the bridge's LOCATION and HTTP listen port
/// substituted, i.e. the documents forDirection(d, bridgeHost,
/// bridgeHttpPort) assembles from.
Documents builtinDocuments(const std::string& bridgeHost, int bridgeHttpPort);

/// A direction's built-in models. `bridgeHost` parameterises the LOCATION the
/// bridge advertises when it impersonates a UPnP device (upnp-to-slp and
/// upnp-to-bonjour); `bridgeHttpPort` is where its HTTP side listens.
DeploymentSpec forDirection(const Direction& d, const std::string& bridgeHost,
                            int bridgeHttpPort = 8085);
/// forDirection(direction(c), ...).
DeploymentSpec forCase(Case c, const std::string& bridgeHost, int bridgeHttpPort = 8085);

/// Line count of the bridge specification (the paper reports "typically
/// around 100 lines of XML" per merged automaton -- experiment E8).
std::size_t bridgeSpecLines(const DeploymentSpec& spec);

// -- the SLP <-> LDAP extension (rich translations, paper section III-A) ------
//
// "...interoperability between two protocols such as SLP and LDAP that both
//  support attribute-based requests is restricted [under subset
//  intermediaries]."  Starlink's per-protocol models carry the attribute
//  predicate through: these bridges translate BOTH the service type and the
//  attribute filter.

std::string ldapMdl();
/// Client role connects to the directory at `directoryHost`:389; server role
/// listens on the bridge host.
std::string ldapAutomaton(Role role, const std::string& directoryHost = "");

/// SLP client -> LDAP directory, predicate included.
DeploymentSpec slpToLdap(const std::string& directoryHost);
/// Same bridge with the predicate assignment REMOVED -- what a greatest-
/// common-divisor intermediary would do; used as the ablation baseline.
DeploymentSpec slpToLdapWithoutPredicate(const std::string& directoryHost);
/// LDAP client -> SLP service, filter carried into the SLP predicate.
DeploymentSpec ldapToSlp();

// -- the WS-Discovery extension (xml MDL dialect) ------------------------------
//
// WS-Discovery's SOAP envelopes exercise the third MDL dialect the paper
// names ("specialised languages for binary messages, text messages and XML
// messages can be plugged into the framework").

std::string wsdMdl();
std::string wsdAutomaton(Role role);
/// SLP client -> WS-Discovery target.
DeploymentSpec slpToWsd();
/// WS-Discovery client -> SLP service.
DeploymentSpec wsdToSlp();

}  // namespace starlink::bridge::models
