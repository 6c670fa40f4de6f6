#include "core/bridge/starlink.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/merge/spec_loader.hpp"
#include "core/merge/spec_writer.hpp"
#include "core/merge/synthesizer.hpp"

namespace starlink::bridge {

Starlink::Starlink(net::Network& network)
    : network_(network),
      marshallers_(mdl::MarshallerRegistry::withDefaults()),
      translations_(merge::TranslationRegistry::withDefaults()) {
    setLogTimeSource([&network] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   network.now().time_since_epoch())
            .count();
    });
}

Starlink::~Starlink() { setLogTimeSource(nullptr); }

void DeployedBridge::publish(const models::DeploymentSpec& spec, std::uint64_t version) {
    engine_->publish(starlink_->compile(spec, version));
}

std::shared_ptr<engine::ModelGeneration> Starlink::compile(const models::DeploymentSpec& spec,
                                                           std::uint64_t version) {
    // 1. Specialise a parser/composer pair per protocol and load its
    //    colored automaton; pairing is positional within the bundle.
    std::vector<std::shared_ptr<automata::ColoredAutomaton>> automata;
    std::map<std::string, std::shared_ptr<mdl::MessageCodec>> codecs;
    for (const models::ProtocolModel& protocol : spec.protocols) {
        auto codec = mdl::MessageCodec::fromXml(protocol.mdlXml, marshallers_);
        auto automaton = merge::loadAutomaton(protocol.automatonXml, colors_);
        if (codecs.contains(automaton->name())) {
            throw SpecError(errc::ErrorCode::BridgeDeploy,
                        "deploy: two protocols named '" + automaton->name() + "'");
        }
        codecs.emplace(automaton->name(), std::move(codec));
        automata.push_back(std::move(automaton));
    }

    // 2. Load and validate the merged automaton.
    auto merged = merge::loadBridge(spec.bridgeXml, std::move(automata));
    merged->validate();

    // 2b. Every transform the translation logic names must exist NOW: a typo
    //     discovered per-message would be misreported as a rejected value.
    const std::vector<std::string> unknown = merged->unknownTransforms(*translations_);
    if (!unknown.empty()) {
        throw SpecError(errc::ErrorCode::BridgeTransformUnknown,
                        "deploy '" + merged->name() + "': unknown translation function " +
                        join(unknown, ", ") + "; registered: " +
                        join(translations_->names(), ", "));
    }

    // 3. Semantic-equivalence coverage (eqn 1): every mandatory field of
    //    every equivalent message must be produced by the translation logic.
    const auto mandatoryFields = [&merged, &codecs](const std::string& messageType) {
        for (const auto& component : merged->components()) {
            const auto& codec = codecs.at(component->name());
            if (codec->document().message(messageType) != nullptr) {
                return codec->document().mandatoryFields(messageType);
            }
        }
        return std::vector<std::string>{};
    };
    const std::vector<std::string> uncovered = merged->checkEquivalences(mandatoryFields);
    if (!uncovered.empty()) {
        throw SpecError(errc::ErrorCode::BridgeDeploy,
                        "deploy '" + merged->name() +
                        "': semantic equivalence does not hold; mandatory fields without a "
                        "translation: " + join(uncovered, ", "));
    }
    return std::make_shared<engine::ModelGeneration>(std::move(merged), std::move(codecs),
                                                     version, models::modelSetIdentity(spec));
}

DeployedBridge& Starlink::deploy(const models::DeploymentSpec& spec, const std::string& host,
                                 engine::EngineOptions options, std::uint64_t version) {
    auto generation = compile(spec, version);
    auto bridge = std::unique_ptr<DeployedBridge>(new DeployedBridge());
    bridge->starlink_ = this;
    bridge->network_ = std::make_unique<engine::NetworkEngine>(
        network_, host,
        engine::NetworkEngine::Options{options.tcpConnectAttempts,
                                       options.tcpConnectRetryDelay, options.metrics,
                                       options.tcpConnectRetryMaxDelay,
                                       options.tcpMaxBacklogBytes});
    bridge->engine_ = std::make_unique<engine::AutomataEngine>(
        std::move(generation), translations_, *bridge->network_, colors_, options);
    bridge->engine_->start();

    bridges_.push_back(std::move(bridge));
    STARLINK_LOG(Info, "starlink") << "deployed bridge at " << host;
    return *bridges_.back();
}

DeployedBridge& Starlink::deploySynthesized(const models::ProtocolModel& served,
                                            const models::ProtocolModel& queried,
                                            const merge::Ontology& ontology,
                                            const std::string& host,
                                            engine::EngineOptions options,
                                            std::vector<std::string>* report) {
    const mdl::MdlDocument servedMdl = mdl::MdlDocument::fromXml(served.mdlXml);
    const mdl::MdlDocument queriedMdl = mdl::MdlDocument::fromXml(queried.mdlXml);
    merge::SynthesisInput input;
    input.servedAutomaton = merge::loadAutomaton(served.automatonXml, colors_);
    input.servedMdl = &servedMdl;
    input.queriedAutomaton = merge::loadAutomaton(queried.automatonXml, colors_);
    input.queriedMdl = &queriedMdl;
    input.ontology = &ontology;
    input.translations = translations_;
    merge::SynthesisResult synthesis = merge::synthesizeMerge(input);
    if (report != nullptr) *report = synthesis.report;
    // The synthesized merge is written out as a bridge document and deployed
    // through the same compile path as any hand-written one.
    return deploy({{served, queried}, merge::writeBridge(*synthesis.merged)}, host, options);
}

}  // namespace starlink::bridge
