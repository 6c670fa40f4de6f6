// The Starlink framework facade (paper Fig 6).
//
// One Starlink instance hosts shared runtime-extensible registries (MDL
// marshallers, translation functions T, the color hash f) and deploys
// interoperability bridges from model bundles: per-protocol MDL + colored
// automaton documents, and a bridge document (merged automaton + translation
// logic). Deployment is entirely model-driven -- the use case of the paper's
// section V is: hand the framework five to seven XML documents and two
// legacy systems start interoperating.
//
//     net::VirtualClock clock;
//     net::EventScheduler scheduler(clock);
//     net::SimNetwork network(scheduler);
//     bridge::Starlink starlink(network);
//     auto models = bridge::models::forCase(
//         bridge::models::Case::SlpToBonjour, "10.0.0.9");
//     bridge::DeployedBridge& b = starlink.deploy(models, "10.0.0.9");
//     ... run legacy applications; scheduler.runUntilIdle(); ...
//     b.engine().sessions();  // per-conversation translation times
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/automata/color.hpp"
#include "core/bridge/models.hpp"
#include "core/engine/automata_engine.hpp"
#include "core/engine/network_engine.hpp"
#include "core/mdl/codec.hpp"
#include "core/merge/ontology.hpp"
#include "core/merge/translation.hpp"
#include "net/network.hpp"

namespace starlink::bridge {

class Starlink;

/// A live connector: its network endpoints plus the executing engine.
class DeployedBridge {
public:
    engine::AutomataEngine& engine() { return *engine_; }
    const engine::AutomataEngine& engine() const { return *engine_; }
    const std::string& host() const { return network_->host(); }

    /// Compiles `spec` as model generation `version` and publishes it: new
    /// sessions run it, live ones finish on theirs (AutomataEngine::publish).
    void publish(const models::DeploymentSpec& spec, std::uint64_t version);

private:
    friend class Starlink;
    DeployedBridge() = default;

    Starlink* starlink_ = nullptr;
    std::unique_ptr<engine::NetworkEngine> network_;
    std::unique_ptr<engine::AutomataEngine> engine_;
};

class Starlink {
public:
    /// Construction also installs the network's virtual clock as the
    /// CONSTRUCTING THREAD's log time source, so every log line that thread
    /// emits carries the simulation time; destruction removes it. The slot is
    /// thread-local: with several frameworks alive on one thread the most
    /// recently constructed one stamps that thread's log, while frameworks on
    /// other threads (one per shard of the sharded driver) stamp their own
    /// lines independently. Construct and destroy a framework on the same
    /// thread that runs its simulation.
    explicit Starlink(net::Network& network);
    ~Starlink();

    /// Deploys a bridge at `host`. Loads every protocol model, the bridge
    /// document, validates the merge (structure + semantic-equivalence
    /// coverage of mandatory fields), starts the engine. Throws SpecError on
    /// any model defect.
    DeployedBridge& deploy(const models::DeploymentSpec& spec, const std::string& host,
                           engine::EngineOptions options = {}, std::uint64_t version = 0);

    /// Loads and validates `spec` into generation `version` (0 = no registry):
    /// the one path of deploy, deploySynthesized and DeployedBridge::publish.
    std::shared_ptr<engine::ModelGeneration> compile(const models::DeploymentSpec& spec,
                                                     std::uint64_t version = 0);

    /// Synthesizes the merged automaton AUTOMATICALLY from the two protocol
    /// models and a field ontology (paper section VII, future work), then
    /// deploys it. The served protocol answers the bridge's clients, the
    /// queried protocol reaches the heterogeneous service.
    DeployedBridge& deploySynthesized(const models::ProtocolModel& served,
                                      const models::ProtocolModel& queried,
                                      const merge::Ontology& ontology, const std::string& host,
                                      engine::EngineOptions options = {},
                                      std::vector<std::string>* report = nullptr);

    // -- runtime extension points ---------------------------------------------
    mdl::MarshallerRegistry& marshallers() { return *marshallers_; }
    merge::TranslationRegistry& translations() { return *translations_; }
    automata::ColorRegistry& colors() { return colors_; }

    const std::vector<std::unique_ptr<DeployedBridge>>& bridges() const { return bridges_; }
    net::Network& network() { return network_; }

private:
    net::Network& network_;
    std::shared_ptr<mdl::MarshallerRegistry> marshallers_;
    std::shared_ptr<merge::TranslationRegistry> translations_;
    automata::ColorRegistry colors_;
    std::vector<std::unique_ptr<DeployedBridge>> bridges_;
};

}  // namespace starlink::bridge
