// Unified error taxonomy: one numbered code space across every layer.
//
// Before this header existed, failures were reported through four unrelated
// vocabularies -- SpecError/ProtocolError/NetError subclasses, the engine's
// FailureCause enum, lint Diagnostic rule ids, and free-text parse rejects --
// with no shared numbering. A fuzz finding or a production abort could not be
// attributed to a stable machine-readable code. This enum fixes the space:
//
//   0            Ok
//   -1  .. -99   common    (unclassified / cross-cutting)
//   -100 .. -199 xml       (document parser)
//   -200 .. -299 mdl       (MDL documents, codec plans, dialect codecs)
//   -300 .. -399 automata  (colored automata definitions)
//   -400 .. -499 merge     (translation registry, synthesis)
//   -500 .. -599 bridge    (bridge specs, deploy-time validation)
//   -600 .. -699 engine    (runtime session aborts)
//   -700 .. -799 net       (simulated network misuse and faults)
//   -800 .. -899 lint      (lint-only findings; most lint rules alias the
//                           code of the layer whose defect they detect)
//
// Codes are negative integers (pacs_bridge convention): the sign separates
// them from legacy positive exit codes, and each module owns a closed range
// so a bare number is attributable to a layer without a lookup table.
// Stable names ("engine.decode") are the human/metrics-facing aliases; both
// are frozen once shipped -- add new codes, never renumber.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace starlink::errc {

enum class Layer { Common, Xml, Mdl, Automata, Merge, Bridge, Engine, Net, Lint };

enum class ErrorCode : int {
    Ok = 0,

    // -- common: -1 .. -99 --------------------------------------------------
    Unclassified = -1,     ///< an exception that carries no taxonomy code
    SpecViolation = -10,   ///< a model/spec defect not yet given a finer code
    ProtocolEncode = -20,  ///< legacy stack asked to encode an impossible message
    Internal = -30,        ///< invariant violation inside the framework

    // -- xml: -100 .. -199 --------------------------------------------------
    XmlParse = -100,           ///< document does not parse (generic)
    XmlEntity = -101,          ///< malformed or unknown entity reference
    XmlDepthLimit = -102,      ///< element nesting exceeds the hard cap
    XmlExpansionLimit = -103,  ///< entity expansion output exceeds the hard cap
    XmlMismatchedTag = -104,   ///< close tag does not match the open element
    XmlTrailingContent = -105, ///< content after the root element

    // -- mdl / codec: -200 .. -299 -------------------------------------------
    MdlInvalid = -200,           ///< malformed MDL document
    MdlMarshallerUnknown = -201, ///< <Types> names an unregistered marshaller
    MdlPlan = -202,              ///< codec plan compilation failed
    MdlRuleShadowed = -203,      ///< a <Rule> can never match (lint)
    CodecParse = -210,           ///< wire bytes rejected by the parser
    CodecCompose = -211,         ///< message cannot be composed to wire bytes
    CodecMessageUnknown = -212,  ///< message type not defined by the MDL
    CodecMandatoryMissing = -213,///< mandatory field has no value
    CodecBitRange = -214,        ///< BitReader/BitWriter driven out of range
    CodecMessageTooLarge = -215, ///< wire input exceeds the max-message-size cap
    CodecFieldLimit = -216,      ///< parse exceeds the max-field-count cap
    CodecLengthOverflow = -217,  ///< a length field implies an absurd field size

    // -- automata: -300 .. -399 ----------------------------------------------
    AutomatonInvalid = -300,          ///< malformed automaton definition
    AutomatonMessageUnknown = -301,   ///< transition names a message no MDL defines
    AutomatonReceiveAmbiguous = -302, ///< two receive-transitions on one message
    AutomatonTransitionDead = -303,   ///< transition from an unreachable state
    AutomatonStateDeadEnd = -304,     ///< non-accepting state with no way out

    // -- merge: -400 .. -499 -------------------------------------------------
    MergeInvalid = -400,        ///< merged automaton fails validation
    TranslationUnknown = -401,  ///< transform name not in the registry
    TranslationRejected = -402, ///< transform refused the value at runtime
    SynthesisFailed = -403,     ///< bridge synthesis could not close the loop

    // -- bridge: -500 .. -599 ------------------------------------------------
    BridgeInvalid = -500,              ///< malformed bridge spec
    BridgeClosureMissing = -501,       ///< no path back to the initial state
    BridgeStateUnknown = -502,         ///< spec names a state no component has
    BridgeRefNotStored = -503,         ///< field ref reads a never-stored message
    BridgeMessageUnknown = -504,       ///< spec names an undefined message
    BridgeFieldUnknown = -505,         ///< field ref names an undeclared field
    BridgeTransformUnknown = -506,     ///< assignment names an unknown transform
    BridgeTransformMismatch = -507,    ///< transform type does not fit the field
    BridgeEquivalenceUnknown = -508,   ///< equivalence names an unknown message
    BridgeEquivalenceUncovered = -509, ///< equivalence member never exercised
    BridgeDeltaMissing = -510,         ///< bicolored node without a delta
    BridgeDeploy = -511,               ///< deploy-time validation failed
    BridgeDeployRejected = -512,       ///< registry lint gate rejected the candidate set
    BridgeIdentityMismatch = -513,     ///< model-set identity hash does not match
    BridgeVersionUnknown = -514,       ///< registry holds no set with this version/identity

    // -- engine: -600 .. -699 ------------------------------------------------
    EngineSessionTimeout = -600, ///< the session watchdog fired
    EngineRetryExhausted = -601, ///< retransmission budget ran dry awaiting a reply
    EngineConnectRefused = -602, ///< tcp connect stayed refused after retries
    EnginePeerClosed = -603,     ///< tcp peer vanished mid-session
    EngineDecode = -604,         ///< translation/compose/encode failed (generic)
    EngineAmbiguousSend = -605,  ///< several outgoing send-transitions
    EngineUnknownAction = -606,  ///< delta lambda names an unknown action
    EngineFieldUnresolved = -607,///< translation input field could not be read
    EngineNoCodec = -608,        ///< component deployed without a codec
    EngineColorUnknown = -609,   ///< component color missing from the registry
    EngineOverload = -610,       ///< admission control shed the session (queue or engine cap full)
    EngineIdleTimeout = -611,    ///< idle deadline lapsed with no message activity
    EngineSpoolUnwritable = -612,///< postmortem spool directory cannot be written
    EngineInactiveAutomaton = -613, ///< message for an automaton its session is not in
    EngineSendPending = -614,    ///< message arrived while its session was composing a send
    EngineNoTransition = -615,   ///< no receive-transition on the message's type
    EngineNoSession = -616,      ///< no single live session matches the message

    // -- net: -700 .. -799 ---------------------------------------------------
    NetMisuse = -700,         ///< simulated network misused (generic)
    NetConnectRefused = -701, ///< connect refused (no listener / blackholed)
    NetPeerClosed = -702,     ///< peer closed the connection
    NetBindConflict = -703,   ///< address already bound
    NetClosedSend = -704,     ///< send on a closed connection
    NetUrlInvalid = -705,     ///< URL does not parse / bad port
    NetBacklogOverflow = -706,///< tcp pre-connect backlog exceeded its byte cap
    NetBindFailed = -707,     ///< OS socket bind/listen failed (not an address conflict)
    NetFdExhausted = -708,    ///< file-descriptor budget exhausted (EMFILE/ENFILE or soft cap)
    NetIo = -709,             ///< unexpected OS socket I/O failure
    NetFrameOversize = -710,  ///< tcp frame length beyond the 1 MiB message cap

    // -- lint: -800 .. -899 --------------------------------------------------
    LintUnknownKind = -800,   ///< model file is no recognised model kind
};

/// The numeric value (pacs_bridge-style `to_error_code`).
constexpr int to_error_code(ErrorCode code) { return static_cast<int>(code); }

/// Stable dotted name, e.g. "engine.decode". Never renamed once shipped.
const char* to_string(ErrorCode code);

/// Which layer owns the code's range.
Layer layerOf(ErrorCode code);
const char* layerName(Layer layer);

/// One-line operator guidance for docs/ERRORS.md and `starlinkd errors`.
const char* remediation(ErrorCode code);

/// Every defined code, ascending by numeric value (Ok first). The taxonomy
/// tests iterate this to prove names/ranges/round-trips stay consistent.
const std::vector<ErrorCode>& allCodes();

/// Numeric value -> code, nullopt for numbers outside the taxonomy.
std::optional<ErrorCode> fromInt(int value);

/// Stable name -> code, nullopt for unknown names.
std::optional<ErrorCode> fromName(const std::string& name);

// -- structured JSON envelope ------------------------------------------------
//
// The machine-readable rendering of a failure crossing a process boundary
// (starlinkd stderr, engine abort logs): code + layer + message + trace id.
// The trace id carries whatever identifies the failing unit of work -- the
// telemetry session ordinal for engine aborts, the subcommand for CLI errors.
struct Envelope {
    ErrorCode code = ErrorCode::Unclassified;
    std::string message;
    std::string traceId;
};

/// {"error":{"code":-604,"name":"engine.decode","layer":"engine",
///           "message":"...","trace_id":"..."}}
std::string toJson(const Envelope& envelope);

}  // namespace starlink::errc
