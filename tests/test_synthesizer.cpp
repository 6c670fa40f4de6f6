// Tests for automatic merge generation from MDLs + colored automata + a
// field ontology (paper section VII future work; DESIGN.md extension).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/merge/spec_loader.hpp"
#include "core/merge/synthesizer.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "protocols/slp/slp_codec.hpp"
#include "sim_fixture.hpp"

namespace starlink::merge {
namespace {

using bridge::models::ProtocolModel;
using bridge::models::Role;
using testing::SimTest;

struct Loaded {
    std::shared_ptr<automata::ColoredAutomaton> automaton;
    std::shared_ptr<mdl::MessageCodec> codec;
};

class SynthesizerTest : public ::testing::Test {
protected:
    automata::ColorRegistry colors;
    std::shared_ptr<TranslationRegistry> translations = TranslationRegistry::withDefaults();
    Ontology ontology = Ontology::discovery();

    Loaded load(const std::string& mdlXml, const std::string& automatonXml) {
        return Loaded{loadAutomaton(automatonXml, colors), mdl::MessageCodec::fromXml(mdlXml)};
    }

    SynthesisResult synthesize(const Loaded& served, const Loaded& queried) {
        SynthesisInput input;
        input.servedAutomaton = served.automaton;
        input.servedMdl = &served.codec->document();
        input.queriedAutomaton = queried.automaton;
        input.queriedMdl = &queried.codec->document();
        input.ontology = &ontology;
        input.translations = translations;
        return synthesizeMerge(input);
    }
};

TEST_F(SynthesizerTest, GeneratesValidSlpToBonjourMerge) {
    const Loaded slp = load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server));
    const Loaded dns =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client));
    const SynthesisResult result = synthesize(slp, dns);

    ASSERT_NE(result.merged, nullptr);
    EXPECT_NO_THROW(result.merged->validate());
    EXPECT_EQ(result.merged->classify(), MergeKind::Strong);
    EXPECT_EQ(result.merged->initialState(), "s10");
    EXPECT_TRUE(result.merged->acceptingStates().contains("s12"));

    // Both delta-transitions in the right places.
    ASSERT_NE(result.merged->deltaFrom("s11"), nullptr);
    EXPECT_EQ(result.merged->deltaFrom("s11")->to, "s40");
    ASSERT_NE(result.merged->deltaFrom("s42"), nullptr);
    EXPECT_EQ(result.merged->deltaFrom("s42")->to, "s11");
}

TEST_F(SynthesizerTest, InfersAllMandatoryAssignments) {
    const Loaded slp = load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server));
    const Loaded dns =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client));
    const SynthesisResult result = synthesize(slp, dns);

    // DNS_Question composed at s40 gets QName (via slp_to_dnssd) and ID.
    const auto question = result.merged->assignmentsTargeting("s40", "DNS_Question");
    ASSERT_EQ(question.size(), 2u);
    // SLPSrvReply composed at s11 gets XID and URLEntry.
    const auto reply = result.merged->assignmentsTargeting("s11", "SLPSrvReply");
    ASSERT_EQ(reply.size(), 2u);

    // The equivalence coverage check passes against the real MDLs.
    const auto mandatory = [&](const std::string& type) {
        auto fields = slp.codec->document().mandatoryFields(type);
        if (fields.empty()) fields = dns.codec->document().mandatoryFields(type);
        return fields;
    };
    EXPECT_TRUE(result.merged->checkEquivalences(mandatory).empty());
}

TEST_F(SynthesizerTest, RegistersCompositeTranslations) {
    const Loaded dns =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Server));
    const Loaded slp = load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Client));
    const SynthesisResult result = synthesize(dns, slp);
    // DNS_Response.AName <= DNS_Question.QName requires the round-trip
    // composite dnssd_to_slp + slp_to_dnssd.
    EXPECT_TRUE(translations->contains("ont:dnssd_to_slp+slp_to_dnssd"));
    const auto roundTrip = translations->apply("ont:dnssd_to_slp+slp_to_dnssd",
                                               Value::ofString("_printer._tcp.local"));
    ASSERT_TRUE(roundTrip);
    EXPECT_EQ(roundTrip->asString(), "_printer._tcp.local");
    // Constants from the ontology are applied.
    bool flagsConstant = false;
    for (const Assignment& a : result.merged->assignments()) {
        if (a.target.path == "Flags" && a.constant == "33792") flagsConstant = true;
    }
    EXPECT_TRUE(flagsConstant);
}

TEST_F(SynthesizerTest, ReportNamesEveryInference) {
    const Loaded slp = load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server));
    const Loaded dns =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client));
    const SynthesisResult result = synthesize(slp, dns);
    ASSERT_GE(result.report.size(), 6u);  // 4 assignments + 2 deltas
    bool mentionsConcept = false;
    for (const std::string& line : result.report) {
        if (line.find("service-type") != std::string::npos) mentionsConcept = true;
    }
    EXPECT_TRUE(mentionsConcept);
}

TEST_F(SynthesizerTest, RejectsWrongRoles) {
    const Loaded slpClient =
        load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Client));
    const Loaded dnsClient =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client));
    EXPECT_THROW(synthesize(slpClient, dnsClient), SpecError);

    const Loaded slpServer =
        load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server));
    const Loaded dnsServer =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Server));
    EXPECT_THROW(synthesize(slpServer, dnsServer), SpecError);
}

TEST_F(SynthesizerTest, RejectsUnmappableMandatoryField) {
    Ontology empty;  // no concepts at all
    ontology = empty;
    const Loaded slp = load(bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server));
    const Loaded dns =
        load(bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client));
    try {
        synthesize(slp, dns);
        FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find("ontology"), std::string::npos);
    }
}

TEST_F(SynthesizerTest, RejectsIncompleteInput) {
    SynthesisInput input;
    EXPECT_THROW(synthesizeMerge(input), SpecError);
}

// --- end-to-end through the facade ---------------------------------------------

class SynthesizedBridgeTest : public SimTest {
protected:
    bridge::Starlink starlink{network};
};

TEST_F(SynthesizedBridgeTest, SynthesizedSlpToBonjourWorksEndToEnd) {
    std::vector<std::string> report;
    auto& deployed = starlink.deploySynthesized(
        ProtocolModel{bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server)},
        ProtocolModel{bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client)},
        merge::Ontology::discovery(), "10.0.0.9", {}, &report);
    EXPECT_FALSE(report.empty());

    mdns::Responder::Config responderConfig;
    responderConfig.responseDelayBase = net::ms(5);
    mdns::Responder responder(network, responderConfig);
    slp::UserAgent client(network, {});

    std::vector<std::string> urls;
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();

    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], responderConfig.url);
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    EXPECT_TRUE(deployed.engine().sessions()[0].completed);
}

TEST_F(SynthesizedBridgeTest, SynthesizedBonjourToSlpWorksEndToEnd) {
    auto& deployed = starlink.deploySynthesized(
        ProtocolModel{bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Server)},
        ProtocolModel{bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Client)},
        merge::Ontology::discovery(), "10.0.0.9");

    slp::ServiceAgent::Config serviceConfig;
    serviceConfig.responseDelayBase = net::ms(5);
    slp::ServiceAgent service(network, serviceConfig);
    mdns::Resolver::Config resolverConfig;
    resolverConfig.aggregationBase = net::ms(20);
    mdns::Resolver client(network, resolverConfig);

    std::vector<std::string> urls;
    client.browse("_printer._tcp.local",
                  [&urls](const mdns::Resolver::Result& result) { urls = result.urls; });
    run();

    ASSERT_EQ(urls.size(), 1u);
    EXPECT_EQ(urls[0], serviceConfig.url);
    ASSERT_EQ(deployed.engine().sessions().size(), 1u);
    EXPECT_TRUE(deployed.engine().sessions()[0].completed);
}

TEST_F(SynthesizedBridgeTest, SynthesizedBridgeMatchesHandWrittenBehaviour) {
    // The synthesized SLP->Bonjour bridge and the hand-written Fig 10 bridge
    // must translate identically (same reply URL, same XID echo).
    engine::EngineOptions options;
    options.recorderSessionBytes = 64 * 1024;
    auto& synthesized = starlink.deploySynthesized(
        ProtocolModel{bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server)},
        ProtocolModel{bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client)},
        merge::Ontology::discovery(), "10.0.0.9", options);

    mdns::Responder::Config responderConfig;
    responderConfig.responseDelayBase = net::ms(5);
    mdns::Responder responder(network, responderConfig);
    slp::UserAgent client(network, {});
    std::vector<std::string> urls;
    client.lookup("service:printer",
                  [&urls](const slp::UserAgent::Result& result) { urls = result.urls; });
    run();
    ASSERT_EQ(urls.size(), 1u);  // XID echoed correctly, else the UA drops it

    // The reply's XID was taken from the DNS ID, which was taken from the
    // request XID -- check the recorded SLP datagrams agree, decoded by the
    // legacy SLP codec rather than the bridge's own.
    const engine::AutomataEngine& engine = synthesized.engine();
    std::uint64_t slpColor = 0;
    for (const auto& component : engine.merged().components()) {
        if (component->name() == "SLP") slpColor = component->color();
    }
    ASSERT_NE(engine.recorder().last(), nullptr);
    std::optional<slp::SrvRequest> request;
    std::optional<slp::SrvReply> reply;
    for (const telemetry::WireEvent& event :
         telemetry::decodeEvents(engine.recorder().last()->events)) {
        if (event.color != slpColor) continue;
        if (event.kind == telemetry::WireEvent::Kind::Rx) {
            request = slp::decodeRequest(event.payload);
        }
        if (event.kind == telemetry::WireEvent::Kind::Tx) reply = slp::decodeReply(event.payload);
    }
    ASSERT_TRUE(request);
    ASSERT_TRUE(reply);
    EXPECT_EQ(request->xid, reply->xid);
}

}  // namespace
}  // namespace starlink::merge
