// Round-trip tests for the model serializers: write -> load must reproduce
// the model, and written synthesized/learned models must redeploy.
#include <gtest/gtest.h>

#include "core/automata/learner.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/starlink.hpp"
#include "core/merge/spec_loader.hpp"
#include "core/merge/spec_writer.hpp"
#include "core/merge/synthesizer.hpp"
#include "protocols/mdns/mdns_agents.hpp"
#include "protocols/slp/slp_agents.hpp"
#include "sim_fixture.hpp"

namespace starlink::merge {
namespace {

using automata::Action;
using automata::ColoredAutomaton;
using bridge::models::Case;
using bridge::models::Role;
using testing::SimTest;

void expectSameAutomaton(const ColoredAutomaton& a, const ColoredAutomaton& b) {
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.initialState(), b.initialState());
    EXPECT_EQ(a.acceptingStates(), b.acceptingStates());
    ASSERT_EQ(a.states().size(), b.states().size());
    for (std::size_t i = 0; i < a.states().size(); ++i) {
        EXPECT_EQ(a.states()[i]->id(), b.states()[i]->id());
        EXPECT_EQ(a.states()[i]->color(), b.states()[i]->color());
    }
    ASSERT_EQ(a.transitions().size(), b.transitions().size());
    for (std::size_t i = 0; i < a.transitions().size(); ++i) {
        EXPECT_EQ(a.transitions()[i].from, b.transitions()[i].from);
        EXPECT_EQ(a.transitions()[i].to, b.transitions()[i].to);
        EXPECT_EQ(a.transitions()[i].action, b.transitions()[i].action);
        EXPECT_EQ(a.transitions()[i].messageType, b.transitions()[i].messageType);
    }
}

TEST(SpecWriter, AutomatonRoundTripsAllBuiltIns) {
    automata::ColorRegistry colors;
    const std::string documents[] = {
        bridge::models::slpAutomaton(Role::Server),
        bridge::models::slpAutomaton(Role::Client),
        bridge::models::mdnsAutomaton(Role::Server),
        bridge::models::ssdpAutomaton(Role::Client),
        bridge::models::httpAutomaton(Role::Server, 8123),
        bridge::models::ldapAutomaton(Role::Client, "10.0.0.3"),
    };
    for (const std::string& xml : documents) {
        const auto original = loadAutomaton(xml, colors);
        const std::string rewritten = writeAutomaton(*original, colors);
        const auto reloaded = loadAutomaton(rewritten, colors);
        expectSameAutomaton(*original, *reloaded);
    }
}

TEST(SpecWriter, BridgeRoundTripsAllSixCases) {
    for (const Case c : bridge::models::kAllCases) {
        automata::ColorRegistry colors;
        const auto spec = bridge::models::forCase(c, "10.0.0.9");
        std::vector<std::shared_ptr<ColoredAutomaton>> components;
        std::vector<std::shared_ptr<ColoredAutomaton>> componentsAgain;
        for (const auto& protocol : spec.protocols) {
            components.push_back(loadAutomaton(protocol.automatonXml, colors));
            componentsAgain.push_back(loadAutomaton(protocol.automatonXml, colors));
        }
        const auto original = loadBridge(spec.bridgeXml, std::move(components));
        original->validate();
        const std::string rewritten = writeBridge(*original);
        const auto reloaded = loadBridge(rewritten, std::move(componentsAgain));
        EXPECT_NO_THROW(reloaded->validate()) << bridge::models::direction(c).name;
        EXPECT_EQ(reloaded->assignments().size(), original->assignments().size());
        EXPECT_EQ(reloaded->deltas().size(), original->deltas().size());
        EXPECT_EQ(reloaded->equivalences().size(), original->equivalences().size());
        EXPECT_EQ(reloaded->initialState(), original->initialState());
        // Delta actions (set_host args) survive.
        for (std::size_t i = 0; i < original->deltas().size(); ++i) {
            EXPECT_EQ(reloaded->deltas()[i].actions.size(),
                      original->deltas()[i].actions.size());
        }
    }
}

TEST(SpecWriter, LearnedAutomatonSerializes) {
    automata::BehaviourLearner learner;
    learner.observeSession(
        {{Action::Receive, "SLPSrvRequest"}, {Action::Send, "SLPSrvReply"}});
    automata::ColorRegistry colors;
    automata::Color color{{automata::keys::transport, "udp"},
                          {automata::keys::port, "427"},
                          {automata::keys::multicast, "yes"},
                          {automata::keys::group, "239.255.255.253"},
                          {automata::keys::mode, "async"}};
    const auto learned = learner.build("SLP", color, colors, "s1");
    const auto reloaded = loadAutomaton(writeAutomaton(*learned, colors), colors);
    expectSameAutomaton(*learned, *reloaded);
}

class SynthesizedRoundTripTest : public SimTest {};

TEST_F(SynthesizedRoundTripTest, SynthesizedBridgeSurvivesSaveAndRedeploy) {
    // Synthesize, serialize to XML, then deploy FROM THE XML -- the full
    // generate/store/distribute/redeploy cycle.
    automata::ColorRegistry colors;
    auto translations = TranslationRegistry::withDefaults();
    const auto slpCodec = mdl::MdlDocument::fromXml(bridge::models::slpMdl());
    const auto dnsCodec = mdl::MdlDocument::fromXml(bridge::models::dnsMdl());

    SynthesisInput input;
    input.servedAutomaton = loadAutomaton(bridge::models::slpAutomaton(Role::Server), colors);
    input.servedMdl = &slpCodec;
    input.queriedAutomaton =
        loadAutomaton(bridge::models::mdnsAutomaton(Role::Client), colors);
    input.queriedMdl = &dnsCodec;
    input.ontology = nullptr;
    const Ontology ontology = Ontology::discovery();
    input.ontology = &ontology;
    input.translations = translations;
    const SynthesisResult synthesis = synthesizeMerge(input);

    bridge::models::DeploymentSpec spec;
    spec.protocols = {{bridge::models::slpMdl(), bridge::models::slpAutomaton(Role::Server)},
                      {bridge::models::dnsMdl(), bridge::models::mdnsAutomaton(Role::Client)}};
    spec.bridgeXml = writeBridge(*synthesis.merged);

    // NOTE: the synthesized assignments may use composite "ont:..." T
    // functions, which must exist in the deploying facade's registry.
    bridge::Starlink starlink(network);
    for (const std::string& name : translations->names()) {
        if (name.rfind("ont:", 0) == 0) {
            auto* source = translations.get();
            starlink.translations().add(
                name, [source, name](const Value& v) { return source->apply(name, v); });
        }
    }
    auto& deployed = starlink.deploy(spec, "10.0.0.9");

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
    EXPECT_TRUE(deployed.engine().sessions()[0].completed);
}

}  // namespace
}  // namespace starlink::merge
