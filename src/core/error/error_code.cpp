#include "core/error/error_code.hpp"

#include <algorithm>
#include <array>

namespace starlink::errc {

namespace {

struct Entry {
    ErrorCode code;
    const char* name;
    const char* hint;
};

// One row per code. Order is ascending numeric (most negative first) except Ok,
// which allCodes() moves to the front. to_string/remediation/fromInt/fromName
// all read this single table so the taxonomy cannot drift apart.
constexpr std::array<Entry, 76> kEntries{{
    {ErrorCode::LintUnknownKind, "lint.unknown-kind",
     "rename the root element to a known model kind (MDL, Automaton, Bridge)"},
    {ErrorCode::NetFrameOversize, "net.frame-oversize",
     "a peer announced a tcp frame over the 1 MiB message cap; the connection was closed"},
    {ErrorCode::NetIo, "net.io",
     "an OS socket call failed unexpectedly; check the errno detail in the message"},
    {ErrorCode::NetFdExhausted, "net.fd-exhausted",
     "the process hit its file-descriptor budget; raise ulimit -n or the socket cap"},
    {ErrorCode::NetBindFailed, "net.bind-failed",
     "the OS rejected the bind/listen; check the bind address and port range"},
    {ErrorCode::NetBacklogOverflow, "net.backlog-overflow",
     "the pre-connect backlog hit its byte cap; slow the sender or raise the cap"},
    {ErrorCode::NetUrlInvalid, "net.url-invalid",
     "check the URL scheme, host, and port syntax"},
    {ErrorCode::NetClosedSend, "net.closed-send",
     "the connection was already closed; stop writing after close()"},
    {ErrorCode::NetBindConflict, "net.bind-conflict",
     "another socket holds this address; pick a free port or close the holder"},
    {ErrorCode::NetPeerClosed, "net.peer-closed",
     "the remote endpoint closed the connection; expect partial sessions"},
    {ErrorCode::NetConnectRefused, "net.connect-refused",
     "no listener at the destination; verify the peer is deployed and reachable"},
    {ErrorCode::NetMisuse, "net.misuse",
     "the network API was called with invalid arguments; fix the caller"},
    {ErrorCode::EngineNoSession, "engine.no-session",
     "dropped: no single live session matches the message's color and peer; expected for "
     "strays, investigate if it climbs with traffic"},
    {ErrorCode::EngineNoTransition, "engine.no-transition",
     "dropped: the session's state has no receive-transition on the message type; "
     "duplicates and wrong-direction traffic land here"},
    {ErrorCode::EngineSendPending, "engine.send-pending",
     "dropped: the message arrived while its session was composing a send; peers "
     "normally retransmit"},
    {ErrorCode::EngineInactiveAutomaton, "engine.inactive-automaton",
     "dropped: the message's automaton is not active in its session (late or unsolicited "
     "reply)"},
    {ErrorCode::EngineSpoolUnwritable, "engine.spool-unwritable",
     "the postmortem spool directory cannot be created or written; the message names the path"},
    {ErrorCode::EngineIdleTimeout, "engine.idle-timeout",
     "the session went silent past the idle deadline; raise idleTimeout or fix the peer"},
    {ErrorCode::EngineOverload, "engine.overload",
     "admission control shed the session (shard queue full, or kMaxLiveSessions live in one "
     "engine); add shards or raise the pending-queue cap"},
    {ErrorCode::EngineColorUnknown, "engine.color-unknown",
     "register the component's color in the codec registry before deploying"},
    {ErrorCode::EngineNoCodec, "engine.no-codec",
     "attach a MessageCodec for every component color before deploying"},
    {ErrorCode::EngineFieldUnresolved, "engine.field-unresolved",
     "the referenced message/field was never stored; check bridge assignments"},
    {ErrorCode::EngineUnknownAction, "engine.unknown-action",
     "the delta names an action the engine does not implement"},
    {ErrorCode::EngineAmbiguousSend, "engine.ambiguous-send",
     "a state has several send-transitions; make the automaton deterministic"},
    {ErrorCode::EngineDecode, "engine.decode",
     "translation or re-encoding failed mid-session; inspect the abort span"},
    {ErrorCode::EnginePeerClosed, "engine.peer-closed",
     "the tcp peer vanished mid-session; the abort is recorded per-session"},
    {ErrorCode::EngineConnectRefused, "engine.connect-refused",
     "connect retries exhausted; verify the target service is listening"},
    {ErrorCode::EngineRetryExhausted, "engine.retry-exhausted",
     "the retransmission budget ran dry; raise retries or fix packet loss"},
    {ErrorCode::EngineSessionTimeout, "engine.session-timeout",
     "the watchdog fired; raise sessionTimeout or investigate the stall"},
    {ErrorCode::BridgeVersionUnknown, "bridge.version-unknown",
     "no registered model-set version matches; load the matching set before replaying"},
    {ErrorCode::BridgeIdentityMismatch, "bridge.identity-mismatch",
     "the bundle's model-set identity hash does not match the supplied models"},
    {ErrorCode::BridgeDeployRejected, "bridge.deploy-rejected",
     "the candidate model set failed the lint gate; fix the listed findings and redeploy"},
    {ErrorCode::BridgeDeploy, "bridge.deploy",
     "deploy-time validation failed; run `starlinkd lint` on the spec set"},
    {ErrorCode::BridgeDeltaMissing, "bridge.delta-missing",
     "every bicolored node needs a delta; add the missing assignment block"},
    {ErrorCode::BridgeEquivalenceUncovered, "bridge.equivalence.uncovered",
     "an equivalence member is never exercised by any transition"},
    {ErrorCode::BridgeEquivalenceUnknown, "bridge.equivalence.unknown",
     "the equivalence references a message no component defines"},
    {ErrorCode::BridgeTransformMismatch, "bridge.transform.mismatch",
     "the transform's value type does not match the target field"},
    {ErrorCode::BridgeTransformUnknown, "bridge.transform.unknown",
     "register the transform in the TranslationRegistry or fix the name"},
    {ErrorCode::BridgeFieldUnknown, "bridge.field.unknown",
     "the field ref names a field the message does not declare"},
    {ErrorCode::BridgeMessageUnknown, "bridge.message.unknown",
     "the bridge references a message absent from both MDLs"},
    {ErrorCode::BridgeRefNotStored, "bridge.ref.message-not-stored",
     "the referenced message is read before any transition stores it"},
    {ErrorCode::BridgeStateUnknown, "bridge.state.unknown",
     "the bridge names a state that no component automaton defines"},
    {ErrorCode::BridgeClosureMissing, "bridge.closure.missing",
     "the merged automaton cannot return to its initial state"},
    {ErrorCode::BridgeInvalid, "bridge.invalid",
     "the bridge spec is malformed; check required elements and attributes"},
    {ErrorCode::SynthesisFailed, "merge.synthesis-failed",
     "bridge synthesis could not close the session loop from the given automata"},
    {ErrorCode::TranslationRejected, "merge.translation-rejected",
     "the transform refused the runtime value; check value domains"},
    {ErrorCode::TranslationUnknown, "merge.translation-unknown",
     "the translation name is not registered; add it or fix the spec"},
    {ErrorCode::MergeInvalid, "merge.invalid",
     "the merged automaton failed validation; run the model linter"},
    {ErrorCode::AutomatonStateDeadEnd, "automaton.state.dead-end",
     "a non-accepting state has no outgoing transition; add one or mark accepting"},
    {ErrorCode::AutomatonTransitionDead, "automaton.transition.dead",
     "the transition starts from a state unreachable from the initial state"},
    {ErrorCode::AutomatonReceiveAmbiguous, "automaton.receive.ambiguous",
     "two receive-transitions match the same message in one state"},
    {ErrorCode::AutomatonMessageUnknown, "automaton.message.unknown",
     "the transition names a message the MDL does not define"},
    {ErrorCode::AutomatonInvalid, "automaton.invalid",
     "the automaton definition is malformed; check states and transitions"},
    {ErrorCode::CodecLengthOverflow, "codec.length-overflow",
     "a length field implies an absurd size; the input is rejected as hostile"},
    {ErrorCode::CodecFieldLimit, "codec.field-limit",
     "parse produced more fields than the hard cap; input rejected"},
    {ErrorCode::CodecMessageTooLarge, "codec.message-too-large",
     "wire input exceeds the maximum message size; input rejected"},
    {ErrorCode::CodecBitRange, "codec.bit-range",
     "a marshaller drove the bit reader/writer out of range; fix the MDL widths"},
    {ErrorCode::CodecMandatoryMissing, "codec.mandatory-missing",
     "compose was given a message missing a mandatory field"},
    {ErrorCode::CodecMessageUnknown, "codec.message-unknown",
     "the message type is not defined by this MDL"},
    {ErrorCode::CodecCompose, "codec.compose",
     "the message cannot be serialised; check field values against the MDL"},
    {ErrorCode::CodecParse, "codec.parse",
     "the wire bytes do not match any message rule of this MDL"},
    {ErrorCode::MdlRuleShadowed, "mdl.rule.shadowed",
     "an earlier rule always matches first; reorder or tighten the rules"},
    {ErrorCode::MdlPlan, "mdl.plan",
     "the codec plan could not be compiled from this MDL"},
    {ErrorCode::MdlMarshallerUnknown, "mdl.marshaller.unknown",
     "the <Types> section names an unregistered marshaller"},
    {ErrorCode::MdlInvalid, "mdl.invalid",
     "the MDL document is malformed; check fields, types, and rules"},
    {ErrorCode::XmlTrailingContent, "xml.trailing-content",
     "remove content after the closing root tag"},
    {ErrorCode::XmlMismatchedTag, "xml.mismatched-tag",
     "the close tag does not match the open element"},
    {ErrorCode::XmlExpansionLimit, "xml.expansion-limit",
     "entity expansion output exceeds the hard cap; the document is rejected"},
    {ErrorCode::XmlDepthLimit, "xml.depth-limit",
     "element nesting exceeds the hard cap; flatten the document"},
    {ErrorCode::XmlEntity, "xml.entity",
     "fix the malformed or unknown entity reference"},
    {ErrorCode::XmlParse, "xml.parse",
     "the document is not well-formed XML; the message cites line and column"},
    {ErrorCode::Internal, "common.internal",
     "framework invariant violated; please report with the trace id"},
    {ErrorCode::ProtocolEncode, "common.protocol-encode",
     "a legacy protocol stack was asked to encode an impossible message"},
    {ErrorCode::SpecViolation, "common.spec-violation",
     "a spec constraint was violated; the message names the offending element"},
    {ErrorCode::Unclassified, "common.unclassified",
     "an error escaped without a taxonomy code; file a bug to classify it"},
    {ErrorCode::Ok, "ok", "no error"},
}};

const Entry* find(ErrorCode code) {
    for (const auto& entry : kEntries) {
        if (entry.code == code) return &entry;
    }
    return nullptr;
}

}  // namespace

const char* to_string(ErrorCode code) {
    const Entry* entry = find(code);
    return entry ? entry->name : "common.unclassified";
}

const char* remediation(ErrorCode code) {
    const Entry* entry = find(code);
    return entry ? entry->hint : "unknown code";
}

Layer layerOf(ErrorCode code) {
    const int value = -to_error_code(code);
    if (value >= 800) return Layer::Lint;
    if (value >= 700) return Layer::Net;
    if (value >= 600) return Layer::Engine;
    if (value >= 500) return Layer::Bridge;
    if (value >= 400) return Layer::Merge;
    if (value >= 300) return Layer::Automata;
    if (value >= 200) return Layer::Mdl;
    if (value >= 100) return Layer::Xml;
    return Layer::Common;
}

const char* layerName(Layer layer) {
    switch (layer) {
        case Layer::Common: return "common";
        case Layer::Xml: return "xml";
        case Layer::Mdl: return "mdl";
        case Layer::Automata: return "automata";
        case Layer::Merge: return "merge";
        case Layer::Bridge: return "bridge";
        case Layer::Engine: return "engine";
        case Layer::Net: return "net";
        case Layer::Lint: return "lint";
    }
    return "common";
}

const std::vector<ErrorCode>& allCodes() {
    static const std::vector<ErrorCode> codes = [] {
        std::vector<ErrorCode> out;
        out.reserve(kEntries.size());
        out.push_back(ErrorCode::Ok);
        for (const auto& entry : kEntries) {
            if (entry.code != ErrorCode::Ok) out.push_back(entry.code);
        }
        // Ok first, then ascending numeric value (most negative last would be
        // descending; ascending means -800... up to -1).
        std::sort(out.begin() + 1, out.end(), [](ErrorCode a, ErrorCode b) {
            return to_error_code(a) < to_error_code(b);
        });
        return out;
    }();
    return codes;
}

std::optional<ErrorCode> fromInt(int value) {
    for (const auto& entry : kEntries) {
        if (to_error_code(entry.code) == value) return entry.code;
    }
    return std::nullopt;
}

std::optional<ErrorCode> fromName(const std::string& name) {
    for (const auto& entry : kEntries) {
        if (name == entry.name) return entry.code;
    }
    return std::nullopt;
}

namespace {

// Minimal JSON string escaper (mirrors the one in lint/diagnostic.cpp; the
// error lib sits below every other target so it cannot reuse it).
std::string jsonEscape(const std::string& text) {
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    constexpr const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out.push_back(hex[(c >> 4) & 0xF]);
                    out.push_back(hex[c & 0xF]);
                } else {
                    out.push_back(c);
                }
        }
    }
    return out;
}

}  // namespace

std::string toJson(const Envelope& envelope) {
    std::string out = "{\"error\":{\"code\":";
    out += std::to_string(to_error_code(envelope.code));
    out += ",\"name\":\"";
    out += to_string(envelope.code);
    out += "\",\"layer\":\"";
    out += layerName(layerOf(envelope.code));
    out += "\",\"message\":\"";
    out += jsonEscape(envelope.message);
    out += "\",\"trace_id\":\"";
    out += jsonEscape(envelope.traceId);
    out += "\"}}";
    return out;
}

}  // namespace starlink::errc
