// Taxonomy tests: the structured error catalogue of src/core/error/.
//
// The catalogue is load-bearing in three places -- exceptions carry codes
// across layer boundaries, the engine records per-code abort metrics, and
// the linter aliases its rule ids into the same space -- so these tests pin
// the properties everything relies on: every code round-trips through
// int/name/catalogue lookups, the per-layer ranges do not overlap, every
// FailureCause and every lint rule id maps to exactly one code, and the
// JSON envelope starlinkd prints has a stable shape.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "common/error.hpp"
#include "core/engine/automata_engine.hpp"
#include "core/error/error_code.hpp"
#include "core/lint/diagnostic.hpp"

namespace starlink::errc {
namespace {

TEST(ErrorCatalogue, HasEveryLayerAndOkFirst) {
    const auto& codes = allCodes();
    ASSERT_FALSE(codes.empty());
    EXPECT_EQ(codes.front(), ErrorCode::Ok);

    std::set<Layer> layers;
    for (const ErrorCode code : codes) layers.insert(layerOf(code));
    // Ok maps to Common; every named layer must own at least one code.
    for (const Layer layer : {Layer::Common, Layer::Xml, Layer::Mdl, Layer::Automata,
                              Layer::Merge, Layer::Bridge, Layer::Engine, Layer::Net,
                              Layer::Lint}) {
        EXPECT_TRUE(layers.count(layer)) << "no codes in layer " << layerName(layer);
    }
}

TEST(ErrorCatalogue, EveryCodeRoundTrips) {
    std::set<int> numeric;
    std::set<std::string> names;
    for (const ErrorCode code : allCodes()) {
        const int value = to_error_code(code);
        const std::string name = to_string(code);

        // Unique numbers, unique names.
        EXPECT_TRUE(numeric.insert(value).second) << "duplicate code " << value;
        EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;

        // int -> code and name -> code both recover the original.
        const auto byInt = fromInt(value);
        ASSERT_TRUE(byInt.has_value()) << name;
        EXPECT_EQ(*byInt, code);
        const auto byName = fromName(name);
        ASSERT_TRUE(byName.has_value()) << name;
        EXPECT_EQ(*byName, code);

        // Every code documents itself.
        EXPECT_FALSE(std::string(remediation(code)).empty()) << name;
    }
    EXPECT_FALSE(fromInt(-99999).has_value());
    EXPECT_FALSE(fromName("no.such.code").has_value());
}

TEST(ErrorCatalogue, LayerRangesDoNotOverlap) {
    // Each layer owns one block of 100 negative codes (Common additionally
    // owns 0). A code numerically inside a block must report that block's
    // layer -- this is what keeps "subtract to find the layer" tooling valid.
    const std::map<Layer, std::pair<int, int>> ranges = {
        {Layer::Common, {-99, 0}},     {Layer::Xml, {-199, -100}},
        {Layer::Mdl, {-299, -200}},    {Layer::Automata, {-399, -300}},
        {Layer::Merge, {-499, -400}},  {Layer::Bridge, {-599, -500}},
        {Layer::Engine, {-699, -600}}, {Layer::Net, {-799, -700}},
        {Layer::Lint, {-899, -800}},
    };
    for (const ErrorCode code : allCodes()) {
        const auto range = ranges.at(layerOf(code));
        const int value = to_error_code(code);
        EXPECT_GE(value, range.first) << to_string(code);
        EXPECT_LE(value, range.second) << to_string(code);
    }
}

TEST(ErrorCatalogue, NamesCarryTheLayerPrefix) {
    // Dotted names start with a prefix owned by the code's layer. Two layers
    // expose sub-families: Mdl covers both the document loader ("mdl.") and
    // the runtime codecs ("codec."), and the Automata layer names its codes
    // after the singular artefact ("automaton.").
    const std::map<Layer, std::vector<std::string>> prefixes = {
        {Layer::Common, {"common."}}, {Layer::Xml, {"xml."}},
        {Layer::Mdl, {"mdl.", "codec."}}, {Layer::Automata, {"automaton."}},
        {Layer::Merge, {"merge."}},   {Layer::Bridge, {"bridge."}},
        {Layer::Engine, {"engine."}}, {Layer::Net, {"net."}},
        {Layer::Lint, {"lint."}},
    };
    for (const ErrorCode code : allCodes()) {
        if (code == ErrorCode::Ok) continue;  // "ok" has no layer prefix
        const std::string name = to_string(code);
        bool matched = false;
        for (const auto& prefix : prefixes.at(layerOf(code))) {
            matched = matched || name.rfind(prefix, 0) == 0;
        }
        EXPECT_TRUE(matched) << name << " lacks a prefix of layer "
                             << layerName(layerOf(code));
    }
}

TEST(ErrorCatalogue, ExceptionMappingHonoursCodes) {
    // The coded constructors surface their exact code; the legacy one-arg
    // constructors keep their class default; anything outside the hierarchy
    // is the taxonomy escape marker.
    EXPECT_EQ(to_error_code(SpecError("x")), ErrorCode::SpecViolation);
    EXPECT_EQ(to_error_code(SpecError(ErrorCode::CodecBitRange, "x")), ErrorCode::CodecBitRange);
    EXPECT_EQ(to_error_code(ProtocolError("x")), ErrorCode::ProtocolEncode);
    EXPECT_EQ(to_error_code(NetError("x")), ErrorCode::NetMisuse);
    EXPECT_EQ(to_error_code(PeerClosedError("x")), ErrorCode::NetPeerClosed);
    EXPECT_EQ(to_error_code(ConnectRefusedError("x")), ErrorCode::NetConnectRefused);
    EXPECT_EQ(starlink::to_error_code(std::runtime_error("raw")), ErrorCode::Unclassified);
}

TEST(ErrorCatalogue, OsBackendNetCodesRoundTrip) {
    // The real-transport backend's codes (src/core/net/os_network.cpp) are
    // first-class taxonomy members: stable names, net layer, remediation
    // text, numeric round-trips. A bind/connect/fd failure on real sockets
    // must never surface as Unclassified.
    const std::vector<std::pair<ErrorCode, std::string>> codes = {
        {ErrorCode::NetBindFailed, "net.bind-failed"},
        {ErrorCode::NetFdExhausted, "net.fd-exhausted"},
        {ErrorCode::NetIo, "net.io"},
        {ErrorCode::NetFrameOversize, "net.frame-oversize"},
    };
    for (const auto& [code, name] : codes) {
        EXPECT_EQ(to_string(code), name);
        EXPECT_EQ(layerOf(code), Layer::Net);
        EXPECT_EQ(fromInt(to_error_code(code)), code);
        EXPECT_EQ(fromName(name), code);
        EXPECT_NE(std::string(remediation(code)), "");
        EXPECT_EQ(to_error_code(NetError(code, "x")), code);
    }
}

TEST(ErrorCatalogue, EveryFailureCauseMapsToOneCode) {
    using engine::FailureCause;
    EXPECT_EQ(engine::to_error_code(FailureCause::None), ErrorCode::Ok);
    EXPECT_EQ(engine::to_error_code(FailureCause::Timeout), ErrorCode::EngineSessionTimeout);
    EXPECT_EQ(engine::to_error_code(FailureCause::ConnectRefused),
              ErrorCode::EngineConnectRefused);
    EXPECT_EQ(engine::to_error_code(FailureCause::PeerClosed), ErrorCode::EnginePeerClosed);
    EXPECT_EQ(engine::to_error_code(FailureCause::DecodeError), ErrorCode::EngineDecode);
}

TEST(ErrorCatalogue, EveryLintRuleAliasesOneCode) {
    // The documented rule ids of docs/LINT.md. A new rule must be added here
    // AND to codeForRule -- an Unclassified alias is a taxonomy escape.
    const std::vector<std::string> rules = {
        "xml.parse",
        "lint.unknown-kind",
        "mdl.invalid",
        "mdl.marshaller.unknown",
        "mdl.plan",
        "mdl.rule.shadowed",
        "automaton.invalid",
        "automaton.message.unknown",
        "automaton.receive.ambiguous",
        "automaton.transition.dead",
        "automaton.state.dead-end",
        "bridge.invalid",
        "bridge.closure.missing",
        "bridge.state.unknown",
        "bridge.ref.message-not-stored",
        "bridge.message.unknown",
        "bridge.field.unknown",
        "bridge.transform.unknown",
        "bridge.transform.mismatch",
        "bridge.equivalence.unknown",
        "bridge.equivalence.uncovered",
        "bridge.delta.missing",
    };
    std::set<ErrorCode> seen;
    for (const auto& rule : rules) {
        const ErrorCode code = lint::codeForRule(rule);
        EXPECT_NE(code, ErrorCode::Unclassified) << rule;
        EXPECT_TRUE(seen.insert(code).second) << rule << " shares a code with another rule";
    }
    EXPECT_EQ(lint::codeForRule("made.up.rule"), ErrorCode::Unclassified);
}

TEST(ErrorCatalogue, EnvelopeJsonShape) {
    Envelope envelope;
    envelope.code = ErrorCode::EngineDecode;
    envelope.message = "bad \"wire\" bytes";
    envelope.traceId = "starlinkd/run";
    const std::string json = toJson(envelope);
    EXPECT_NE(json.find("\"error\":{"), std::string::npos) << json;
    EXPECT_NE(json.find("\"code\":-604"), std::string::npos) << json;
    EXPECT_NE(json.find("\"name\":\"engine.decode\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"layer\":\"engine\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"message\":\"bad \\\"wire\\\" bytes\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"trace_id\":\"starlinkd/run\""), std::string::npos) << json;
}

}  // namespace
}  // namespace starlink::errc
