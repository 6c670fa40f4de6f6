// Unit tests for merged automata, delta-transitions, merge constraints,
// translation logic and its XML loaders (paper sections III-C/III-D,
// experiments E5/E6).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/merge/merged_automaton.hpp"
#include "core/merge/spec_loader.hpp"
#include "core/merge/translation.hpp"

namespace starlink::merge {
namespace {

using automata::ColorRegistry;
using bridge::models::Case;
using bridge::models::Role;

// --- translation functions ------------------------------------------------------

TEST(Translations, ServiceNameConversions) {
    auto registry = TranslationRegistry::withDefaults();
    EXPECT_EQ(registry->apply("slp_to_dnssd", Value::ofString("service:printer"))->asString(),
              "_printer._tcp.local");
    EXPECT_EQ(registry->apply("dnssd_to_slp", Value::ofString("_printer._tcp.local"))->asString(),
              "service:printer");
    EXPECT_EQ(registry->apply("slp_to_urn", Value::ofString("service:printer"))->asString(),
              "urn:schemas-upnp-org:service:printer:1");
    EXPECT_EQ(registry
                  ->apply("urn_to_slp",
                          Value::ofString("urn:schemas-upnp-org:service:printer:1"))
                  ->asString(),
              "service:printer");
    EXPECT_EQ(registry
                  ->apply("urn_to_dnssd",
                          Value::ofString("urn:schemas-upnp-org:service:printer:1"))
                  ->asString(),
              "_printer._tcp.local");
    EXPECT_EQ(registry->apply("dnssd_to_urn", Value::ofString("_printer._tcp.local"))->asString(),
              "urn:schemas-upnp-org:service:printer:1");
}

TEST(Translations, ConversionsAreMutuallyInverse) {
    auto registry = TranslationRegistry::withDefaults();
    const Value slp = Value::ofString("service:scanner");
    const auto viaDnssd = registry->apply("dnssd_to_slp", *registry->apply("slp_to_dnssd", slp));
    EXPECT_EQ(viaDnssd->asString(), "service:scanner");
    const auto viaUrn = registry->apply("urn_to_slp", *registry->apply("slp_to_urn", slp));
    EXPECT_EQ(viaUrn->asString(), "service:scanner");
}

TEST(Translations, UrlParsing) {
    auto registry = TranslationRegistry::withDefaults();
    const Value url = Value::ofString("http://10.0.0.3:8080/desc.xml");
    EXPECT_EQ(registry->apply("url_host", url)->asString(), "10.0.0.3");
    EXPECT_EQ(registry->apply("url_port", url)->asInt(), 8080);
    EXPECT_EQ(registry->apply("url_path", url)->asString(), "/desc.xml");
    // Scheme default port and path.
    const Value bare = Value::ofString("http://host");
    EXPECT_EQ(registry->apply("url_port", bare)->asInt(), 80);
    EXPECT_EQ(registry->apply("url_path", bare)->asString(), "/");
    EXPECT_FALSE(registry->apply("url_host", Value::ofString("http://:80/")));
}

TEST(Translations, UrlParsingBracketedIpv6) {
    auto registry = TranslationRegistry::withDefaults();
    const Value url = Value::ofString("http://[::1]:8080/desc.xml");
    EXPECT_EQ(registry->apply("url_host", url)->asString(), "::1");
    EXPECT_EQ(registry->apply("url_port", url)->asInt(), 8080);
    EXPECT_EQ(registry->apply("url_path", url)->asString(), "/desc.xml");
    // Bracketed literal with no explicit port falls back to the scheme default.
    const Value bare = Value::ofString("http://[fe80::1]");
    EXPECT_EQ(registry->apply("url_host", bare)->asString(), "fe80::1");
    EXPECT_EQ(registry->apply("url_port", bare)->asInt(), 80);
    EXPECT_EQ(registry->apply("url_path", bare)->asString(), "/");
    // Malformed literals must not half-parse.
    EXPECT_FALSE(registry->apply("url_host", Value::ofString("http://[::1")));
    EXPECT_FALSE(registry->apply("url_host", Value::ofString("http://[::1]x/")));
}

TEST(Translations, UrlPortHasNoDefaultForUnknownSchemes) {
    auto registry = TranslationRegistry::withDefaults();
    // SLP-style URLs carry no well-known port; inventing 80 would mislead the
    // bridge, so url_port rejects instead.
    EXPECT_FALSE(registry->apply("url_port", Value::ofString("service:printer://host/q")));
    EXPECT_FALSE(registry->apply("url_port", Value::ofString("host/q")));
    EXPECT_EQ(registry->apply("url_port", Value::ofString("service:printer://host:515/q"))
                  ->asInt(),
              515);
    EXPECT_EQ(registry->apply("url_port", Value::ofString("https://host/"))->asInt(), 443);
    // Out-of-range explicit ports are rejected outright.
    EXPECT_FALSE(registry->apply("url_port", Value::ofString("http://host:99999/")));
}

TEST(Translations, UrlBaseExtraction) {
    auto registry = TranslationRegistry::withDefaults();
    const Value body = Value::ofString(
        "<root><device><URLBase> http://10.0.0.3:9090/print </URLBase></device></root>");
    EXPECT_EQ(registry->apply("url_base", body)->asString(), "http://10.0.0.3:9090/print");
    EXPECT_FALSE(registry->apply("url_base", Value::ofString("<root/>")));
}

TEST(Translations, DeviceDescriptionRoundTripsWithUrlBase) {
    auto registry = TranslationRegistry::withDefaults();
    const Value url = Value::ofString("service:printer://10.0.0.2:515/q");
    const auto description = registry->apply("device_description", url);
    ASSERT_TRUE(description);
    EXPECT_EQ(registry->apply("url_base", *description)->asString(),
              "service:printer://10.0.0.2:515/q");
}

TEST(Translations, UnknownFunctionIsNullopt) {
    auto registry = TranslationRegistry::withDefaults();
    EXPECT_FALSE(registry->apply("nope", Value::ofString("x")));
}

TEST(Translations, RuntimeRegistration) {
    auto registry = TranslationRegistry::withDefaults();
    registry->add("shout", [](const Value& v) -> std::optional<Value> {
        return Value::ofString(v.toText() + "!");
    });
    EXPECT_EQ(registry->apply("shout", Value::ofString("hi"))->asString(), "hi!");
}

// --- xpath <-> dotted path ---------------------------------------------------------

TEST(FieldPaths, XpathToDotted) {
    EXPECT_EQ(xpathToFieldPath("/field/primitiveField[label='ST']/value"), "ST");
    EXPECT_EQ(xpathToFieldPath("/field/structuredField[label='URL']/primitiveField[label='port']"
                               "/value"),
              "URL.port");
}

TEST(FieldPaths, DottedToXpathAndBack) {
    for (const std::string path : {"ST", "URL.port", "a.b.c"}) {
        EXPECT_EQ(xpathToFieldPath(fieldPathToXpath(path)), path);
    }
}

TEST(FieldPaths, RoundTripsRandomSafeLabels) {
    // Property check: any dotted path built from labels free of '.' and '\''
    // survives dotted -> xpath -> dotted unchanged.
    std::mt19937 rng(20260806);
    const std::string alphabet =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_- :/[]@";
    for (int iteration = 0; iteration < 200; ++iteration) {
        const int depth = 1 + static_cast<int>(rng() % 4);
        std::vector<std::string> labels;
        for (int i = 0; i < depth; ++i) {
            const int length = 1 + static_cast<int>(rng() % 12);
            std::string label;
            for (int j = 0; j < length; ++j) {
                label.push_back(alphabet[rng() % alphabet.size()]);
            }
            labels.push_back(label);
        }
        std::string dotted = labels[0];
        for (std::size_t i = 1; i < labels.size(); ++i) dotted += "." + labels[i];
        EXPECT_EQ(xpathToFieldPath(fieldPathToXpath(dotted)), dotted) << dotted;
    }
}

TEST(FieldPaths, RejectsLabelsThatCannotRoundTrip) {
    EXPECT_THROW(fieldPathToXpath(""), SpecError);
    EXPECT_THROW(fieldPathToXpath("a..b"), SpecError);    // empty middle label
    EXPECT_THROW(fieldPathToXpath("a.b."), SpecError);    // empty trailing label
    EXPECT_THROW(fieldPathToXpath("a'b"), SpecError);     // breaks xpath quoting
    EXPECT_THROW(fieldPathToXpath("x.a'b"), SpecError);
    EXPECT_THROW(xpathToFieldPath("/field/primitiveField[label='a.b']/value"), SpecError);
    EXPECT_THROW(xpathToFieldPath("/field/primitiveField[label='']/value"), SpecError);
}

TEST(FieldPaths, RejectsForeignShapes) {
    EXPECT_THROW(xpathToFieldPath("/other/primitiveField[label='x']/value"), SpecError);
    EXPECT_THROW(xpathToFieldPath("/field/primitiveField/value"), SpecError);
    EXPECT_THROW(xpathToFieldPath("/field/primitiveField[label='x']"), SpecError);
    EXPECT_THROW(
        xpathToFieldPath("/field/primitiveField[label='x']/structuredField[label='y']/value"),
        SpecError);
}

// --- loaders ------------------------------------------------------------------------

TEST(SpecLoader, LoadsColoredAutomaton) {
    ColorRegistry colors;
    const auto automaton = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    EXPECT_EQ(automaton->name(), "SLP");
    EXPECT_EQ(automaton->initialState(), "s10");
    EXPECT_EQ(automaton->acceptingStates(), (std::vector<std::string>{"s12"}));
    const automata::Color* color = colors.lookup(automaton->color());
    ASSERT_NE(color, nullptr);
    EXPECT_EQ(color->port(), 427);
    EXPECT_EQ(color->group(), "239.255.255.253");
}

TEST(SpecLoader, ClientAndServerRolesDiffer) {
    ColorRegistry colors;
    const auto server = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    const auto client = loadAutomaton(bridge::models::slpAutomaton(Role::Client), colors);
    EXPECT_NE(server->transitionFor("s10", automata::Action::Receive, "SLPSrvRequest"), nullptr);
    EXPECT_NE(client->transitionFor("s10", automata::Action::Send, "SLPSrvRequest"), nullptr);
    // Same protocol, same color regardless of role.
    EXPECT_EQ(server->color(), client->color());
}

TEST(SpecLoader, AutomatonRejectsBadDocuments) {
    ColorRegistry colors;
    EXPECT_THROW(loadAutomaton("<NotAutomaton/>", colors), SpecError);
    EXPECT_THROW(loadAutomaton("<Automaton name='A'><State id='s'/></Automaton>", colors),
                 SpecError);  // no color
    EXPECT_THROW(loadAutomaton(R"(<Automaton name="A"><Color/>
        <State id="a" initial="true" accepting="true"/>
        <Transition from="a" action="teleport" message="M" to="a"/></Automaton>)",
                               colors),
                 SpecError);  // bad action
}

// --- merged automaton over the built-in cases --------------------------------------

std::shared_ptr<MergedAutomaton> loadCase(Case c, ColorRegistry& colors) {
    const auto spec = bridge::models::forCase(c, "10.0.0.9");
    std::vector<std::shared_ptr<automata::ColoredAutomaton>> components;
    for (const auto& protocol : spec.protocols) {
        components.push_back(loadAutomaton(protocol.automatonXml, colors));
    }
    return loadBridge(spec.bridgeXml, std::move(components));
}

TEST(MergedAutomatonSpec, AllSixCasesValidate) {
    for (const Case c : bridge::models::kAllCases) {
        ColorRegistry colors;
        const auto merged = loadCase(c, colors);
        EXPECT_NO_THROW(merged->validate()) << bridge::models::direction(c).name;
    }
}

TEST(MergedAutomatonSpec, Fig4ChainIsWeaklyMerged) {
    // SLP/SSDP/HTTP: SSDP never delta-returns to SLP -- the chain passes
    // through HTTP (paper Fig 4 is a weakly merged automaton).
    ColorRegistry colors;
    const auto merged = loadCase(Case::SlpToUpnp, colors);
    EXPECT_EQ(merged->classify(), MergeKind::Weak);
}

TEST(MergedAutomatonSpec, TwoProtocolMergeIsStrong) {
    ColorRegistry colors;
    EXPECT_EQ(loadCase(Case::SlpToBonjour, colors)->classify(), MergeKind::Strong);
    ColorRegistry colors2;
    EXPECT_EQ(loadCase(Case::BonjourToSlp, colors2)->classify(), MergeKind::Strong);
}

TEST(MergedAutomatonSpec, LookupHelpers) {
    ColorRegistry colors;
    const auto merged = loadCase(Case::SlpToBonjour, colors);
    EXPECT_NE(merged->component("SLP"), nullptr);
    EXPECT_NE(merged->component("mDNS"), nullptr);
    EXPECT_EQ(merged->component("HTTP"), nullptr);
    EXPECT_EQ(merged->automatonOf("s11")->name(), "SLP");
    EXPECT_EQ(merged->automatonOf("s40")->name(), "mDNS");
    EXPECT_EQ(merged->automatonOf("ghost"), nullptr);
    ASSERT_NE(merged->deltaFrom("s11"), nullptr);
    EXPECT_EQ(merged->deltaFrom("s11")->to, "s40");
    EXPECT_EQ(merged->deltaFrom("s10"), nullptr);
}

TEST(MergedAutomatonSpec, AssignmentsTargetingFilters) {
    ColorRegistry colors;
    const auto merged = loadCase(Case::SlpToBonjour, colors);
    const auto atReply = merged->assignmentsTargeting("s11", "SLPSrvReply");
    EXPECT_EQ(atReply.size(), 2u);  // URLEntry + XID
    EXPECT_TRUE(merged->assignmentsTargeting("s11", "Nope").empty());
}

TEST(MergedAutomatonSpec, EquivalenceCoverageDetectsGaps) {
    ColorRegistry colors;
    const auto merged = loadCase(Case::SlpToBonjour, colors);
    // With the real mandatory fields everything is covered.
    const auto mandatory = [](const std::string& type) -> std::vector<std::string> {
        if (type == "DNS_Question") return {"ID", "QName"};
        if (type == "SLPSrvReply") return {"XID", "URLEntry"};
        return {};
    };
    EXPECT_TRUE(merged->checkEquivalences(mandatory).empty());
    // Demand a field nothing assigns and the check reports it.
    const auto demanding = [](const std::string& type) -> std::vector<std::string> {
        if (type == "DNS_Question") return {"ID", "QName", "Ghost"};
        return {};
    };
    const auto uncovered = merged->checkEquivalences(demanding);
    ASSERT_EQ(uncovered.size(), 1u);
    EXPECT_EQ(uncovered[0], "DNS_Question.Ghost");
}

TEST(MergedAutomatonSpec, DeltaInsideOneAutomatonRejected) {
    ColorRegistry colors;
    auto a = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    auto b = loadAutomaton(bridge::models::mdnsAutomaton(Role::Client), colors);
    MergedAutomaton merged("bad");
    merged.addComponent(std::move(a));
    merged.addComponent(std::move(b));
    merged.setInitial("s10");
    merged.addAccepting("s12");
    merged.addDelta(DeltaTransition{"s10", "s11", {}});
    EXPECT_THROW(merged.validate(), SpecError);
}

TEST(MergedAutomatonSpec, DeltaViolatingMergeConstraintsRejected) {
    ColorRegistry colors;
    auto a = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    auto b = loadAutomaton(bridge::models::mdnsAutomaton(Role::Client), colors);
    MergedAutomaton merged("bad");
    merged.addComponent(std::move(a));
    merged.addComponent(std::move(b));
    merged.setInitial("s10");
    merged.addAccepting("s12");
    // s10 has no incoming receive and s41 is not an initial state: neither
    // form (i), (ii) nor (iii) holds.
    merged.addDelta(DeltaTransition{"s10", "s41", {}});
    EXPECT_THROW(merged.validate(), SpecError);
}

TEST(MergedAutomatonSpec, DuplicateStateIdsAcrossComponentsRejected) {
    ColorRegistry colors;
    auto a = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    auto b = loadAutomaton(bridge::models::slpAutomaton(Role::Client), colors);
    MergedAutomaton merged("bad");
    merged.addComponent(std::move(a));
    merged.addComponent(std::move(b));
    merged.setInitial("s10");
    merged.addAccepting("s12");
    EXPECT_THROW(merged.validate(), SpecError);
}

TEST(SpecLoader, BridgeRejectsMalformedDocuments) {
    ColorRegistry colors;
    auto components = [&colors] {
        std::vector<std::shared_ptr<automata::ColoredAutomaton>> out;
        out.push_back(loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors));
        return out;
    };
    EXPECT_THROW(loadBridge("<NotBridge/>", components()), SpecError);
    EXPECT_THROW(loadBridge("<Bridge name='b'/>", components()), SpecError);  // no Start
    EXPECT_THROW(loadBridge(R"(<Bridge name="b"><Start state="s10"/>
        <Equivalence message="M" of=""/></Bridge>)",
                            components()),
                 SpecError);
    EXPECT_THROW(loadBridge(R"(<Bridge name="b"><Start state="s10"/>
        <TranslationLogic><Assignment>
          <Field state="a" message="M" path="f"/>
        </Assignment></TranslationLogic></Bridge>)",
                            components()),
                 SpecError);  // no source
}

TEST(SpecLoader, BridgeSpecSizeMatchesPaperBallpark) {
    // Paper section V-C: merged automata are "typically around 100 lines of
    // XML". Ours are the same order of magnitude.
    for (const Case c : bridge::models::kAllCases) {
        const auto spec = bridge::models::forCase(c, "10.0.0.9");
        const std::size_t lines = bridge::models::bridgeSpecLines(spec);
        EXPECT_GE(lines, 15u) << bridge::models::direction(c).name;
        EXPECT_LE(lines, 150u) << bridge::models::direction(c).name;
    }
}

}  // namespace
}  // namespace starlink::merge
