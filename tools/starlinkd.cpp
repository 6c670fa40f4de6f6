// starlinkd -- command-line front end to the Starlink framework.
//
//   starlinkd errors                    print the error-code taxonomy (see
//                                       docs/ERRORS.md); every failure exits
//                                       with a structured JSON envelope on
//                                       stderr and a per-layer exit code
//   starlinkd list                      enumerate built-in models and directions
//   starlinkd export <dir>              write every built-in model to XML files
//   starlinkd demo <case>               run one of the ten directions end to end
//   starlinkd demo-files <served.mdl> <served.automaton>
//                        <queried.mdl> <queried.automaton> <bridge.xml>
//                                       deploy a bridge FROM MODEL FILES and run
//                                       the SLP-client / Bonjour-service demo
//   starlinkd dot <case>                print the case's merged automaton as GraphViz
//   starlinkd lint <paths...> [--json]  statically validate model files (MDL,
//                                       automata, bridge specs) against each
//                                       other; directories are scanned for
//                                       *.xml; exits nonzero on any error-
//                                       severity finding (see docs/LINT.md)
//   starlinkd plan <mdl>                dump the codec plan compiled from an MDL
//                                       (built-in name slp|dns|ssdp|http|ldap|wsd,
//                                       or a .mdl.xml file path)
//   starlinkd chaos <case> [loss] [seed]
//                                       run the case under per-hop loss plus a
//                                       seeded FaultSchedule and report every
//                                       bridge session's outcome and cause
//   starlinkd trace <case> [--out f.json]
//                                       run a few lookups with span collection
//                                       on and export the session span trees
//                                       as Chrome trace JSON (Perfetto-loadable)
//   starlinkd metrics <case>            run a few lookups with telemetry on and
//                                       print the Prometheus text exposition
//   starlinkd serve [--shards N] [--sessions M] [--chaos] [--loss P]
//                   [--seed S] [--metrics] [--max-sessions Q] [--idle-timeout MS]
//                   [--record] [--postmortem-dir DIR]
//                                       drive a mixed-direction session workload
//                                       through the sharded engine (N threads,
//                                       hash-by-key dispatch) and report per-
//                                       shard accounting plus the aggregate
//                                       virtual-time throughput. --max-sessions
//                                       bounds each shard's admission queue
//                                       (excess jobs are shed with
//                                       engine.overload); --idle-timeout evicts
//                                       sessions with no message movement for
//                                       MS milliseconds (engine.idle-timeout);
//                                       --record turns the wire-level flight
//                                       recorder on, and --postmortem-dir
//                                       (implies --record) spools every abort
//                                       as a replayable bundle into DIR;
//                                       --models-dir deploys a lint-gated,
//                                       versioned model set from disk (the
//                                       starlinkd-export layout) through the
//                                       ModelRegistry, and --canary-percent
//                                       pins that share of new sessions to a
//                                       freshly loaded candidate (per-code
//                                       abort-rate regression rolls it back)
//   starlinkd serve --transport=os --case <case>
//                   [--bind A] [--port-base B] [--metrics-port P]
//                   [--with-peers] [--processing-ms MS] [--max-seconds S]
//                   [--record] [--postmortem-dir DIR]
//                                       persistent daemon: deploy the case's
//                                       bridge on REAL loopback sockets
//                                       (core/net/os_network.hpp) and serve
//                                       live sessions until SIGTERM/SIGINT;
//                                       --port-base maps logical port L to
//                                       real port B+L so scripted clients in
//                                       other processes can aim at it;
//                                       --metrics-port exposes the Prometheus
//                                       registry over plain HTTP (plus a
//                                       POST /reload hot-swap endpoint); a
//                                       SIGHUP (or /reload) re-reads
//                                       --models-dir, lint-gates the
//                                       candidate and publishes it to new
//                                       sessions while live ones finish on
//                                       theirs -- a rejected candidate
//                                       leaves the old version serving;
//                                       exit 0 iff every abort carried a
//                                       taxonomy code
//   starlinkd postmortem <bundle>       pretty-print a spooled postmortem
//                                       bundle: provenance, the wire-event log
//                                       with per-leg message decode, and the
//                                       session's span tree
//   starlinkd replay <bundle> [--models-dir DIR]
//                                       re-inject the bundle's captured
//                                       datagrams into a fresh single-island
//                                       deployment and diff the outcome
//                                       against the capture (exit 0 iff the
//                                       session record and outbound wire
//                                       traffic reproduce exactly); with
//                                       --models-dir the deployed models are
//                                       resolved from disk by the bundle's
//                                       identity fingerprint, refusing to
//                                       replay against models that did not
//                                       produce the capture
//
// <case> is a direction's slug from models::directions(). demo, demo-files,
// chaos, trace and metrics each drive one peers::SimIsland: legacy client at
// 10.0.0.1, legacy service at 10.0.0.3 (every direction, SLP included),
// bridge at 10.0.0.9, on the simulated network over virtual time. serve and
// replay --models-dir run the registry fleet, which holds the paper's six.
#include <algorithm>
#include <csignal>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/net/os_network.hpp"
#include "net/sim_network.hpp"
#include "common/error.hpp"
#include "core/bridge/models.hpp"
#include "core/bridge/registry.hpp"
#include "core/bridge/replay.hpp"
#include "core/bridge/starlink.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/lint/linter.hpp"
#include "core/mdl/codec.hpp"
#include "core/merge/dot_export.hpp"
#include "core/merge/spec_loader.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/recorder.hpp"
#include "core/telemetry/trace_export.hpp"
#include "protocols/peers.hpp"

namespace {

using namespace starlink;
using bridge::models::Case;
using bridge::models::Direction;

int usage() {
    std::cerr << "usage: starlinkd errors\n"
                 "       starlinkd list\n"
                 "       starlinkd export <dir>\n"
                 "       starlinkd demo <case>\n"
                 "       starlinkd demo-files <served.mdl> <served.automaton> "
                 "<queried.mdl> <queried.automaton> <bridge.xml>\n"
                 "       starlinkd dot <case>\n"
                 "       starlinkd lint <paths...> [--json]\n"
                 "       starlinkd plan <mdl>\n"
                 "       starlinkd chaos <case> [loss] [seed]\n"
                 "       starlinkd trace <case> [--out file.json]\n"
                 "       starlinkd metrics <case>\n"
                 "       starlinkd serve [--shards N] [--sessions M] [--chaos] "
                 "[--loss P] [--seed S] [--metrics] [--max-sessions Q] "
                 "[--idle-timeout MS] [--record] [--postmortem-dir DIR] "
                 "[--models-dir DIR] [--canary-percent P]\n"
                 "       starlinkd serve --transport=os --case <case> [--bind A] "
                 "[--port-base B] [--metrics-port P] [--with-peers] "
                 "[--processing-ms MS] [--max-seconds S] [--record] "
                 "[--postmortem-dir DIR] [--models-dir DIR] [--canary-percent P]\n"
                 "       starlinkd postmortem <bundle.slfr>\n"
                 "       starlinkd replay <bundle.slfr> [--models-dir DIR]\n"
                 "cases:";
    for (const Direction& d : bridge::models::directions()) std::cerr << " " << d.slug;
    std::cerr << "\n";
    return 2;
}

/// The registry fleet's index of `slug`. The fleet holds the paper's six; for
/// any other slug, says why `command` refuses it and returns nullopt.
std::optional<Case> fleetCase(const std::string& command, const std::string& slug) {
    for (const Case c : bridge::models::kAllCases) {
        if (slug == bridge::models::direction(c).slug) return c;
    }
    std::cerr << "starlinkd: " << command << " runs the registry fleet, which holds only";
    for (const Case c : bridge::models::kAllCases) {
        std::cerr << " " << bridge::models::direction(c).slug;
    }
    std::cerr << "; '" << slug << "' is not one of them\n";
    return std::nullopt;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw SpecError("cannot read model file '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Bytes slurpBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw SpecError("cannot read bundle file '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    const std::string content = out.str();
    return Bytes(content.begin(), content.end());
}

void spit(const std::filesystem::path& path, const std::string& content) {
    std::ofstream out(path);
    if (!out) throw SpecError("cannot write '" + path.string() + "'");
    out << content;
    std::cout << "wrote " << path.string() << "\n";
}

/// Startup probe for --postmortem-dir: create the directory and prove a
/// bundle can actually land there BEFORE any traffic is served. A bad path
/// must fail the daemon at startup with engine.spool-unwritable naming the
/// path -- not surface at the first abort, when the bundle it was supposed
/// to capture is already lost.
void probeSpoolDir(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        throw StarlinkError(errc::ErrorCode::EngineSpoolUnwritable,
                            "postmortem spool directory '" + dir +
                                "' cannot be created: " + ec.message());
    }
    const fs::path probe = fs::path(dir) / ".starlinkd-spool-probe";
    {
        std::ofstream out(probe, std::ios::trunc);
        out << "probe\n";
        out.flush();
        if (!out) {
            throw StarlinkError(errc::ErrorCode::EngineSpoolUnwritable,
                                "postmortem spool directory '" + dir + "' is not writable");
        }
    }
    fs::remove(probe, ec);
}

int cmdList() {
    std::cout << "MDL documents: slp dns (binary) | ssdp http (text) | wsd (xml) | ldap (binary)\n";
    std::cout << "colored automata: each protocol in client and server role\n";
    std::cout << "bridge directions:\n";
    for (const Direction& d : bridge::models::directions()) {
        const auto spec = bridge::models::forDirection(d, "<bridge-host>");
        std::cout << "  " << d.slug << " (" << d.name << ", " << spec.protocols.size()
                  << " protocols, " << bridge::models::bridgeSpecLines(spec)
                  << " bridge-spec lines)\n";
    }
    return 0;
}

int cmdExport(const std::string& directory) {
    const std::filesystem::path dir(directory);
    std::filesystem::create_directories(dir);
    for (const auto& [file, bytes] : bridge::models::embeddedDocuments()) spit(dir / file, bytes);
    return 0;
}

/// Statically validates a set of model files against each other (the lint
/// pass CI runs over models/). Directories are scanned non-recursively for
/// *.xml, files are taken verbatim; the closure is linted as one unit so
/// bridge specs resolve against the automata and MDLs next to them.
int cmdLint(const std::vector<std::string>& paths, bool json) {
    std::vector<std::string> files;
    for (const std::string& path : paths) {
        if (std::filesystem::is_directory(path)) {
            std::vector<std::string> found;
            for (const auto& entry : std::filesystem::directory_iterator(path)) {
                if (entry.is_regular_file() && entry.path().extension() == ".xml") {
                    found.push_back(entry.path().string());
                }
            }
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(path);
        }
    }
    if (files.empty()) {
        std::cerr << "starlinkd: lint: no model files found\n";
        return 2;
    }
    lint::Linter linter;
    for (const std::string& file : files) linter.addModel(file, slurp(file));
    const std::vector<lint::Diagnostic> diagnostics = linter.run();
    if (json) {
        std::cout << lint::renderJson(diagnostics);
    } else {
        std::cout << lint::renderText(diagnostics);
        std::cout << files.size() << " model(s) checked, " << diagnostics.size()
                  << " finding(s)\n";
    }
    return lint::hasErrors(diagnostics) ? 1 : 0;
}

/// Runs one lookup of `d`'s client through a bridge deployed from `spec`.
int runDemo(const bridge::models::DeploymentSpec& spec, const Direction& d) {
    peers::SimIsland island;
    const engine::AutomataEngine& engine = island.deploy(spec).engine();
    island.spawn(d);
    std::cout << "deployed bridge '" << engine.merged().name() << "' at "
              << peers::SimIsland::kBridgeHost << "\n";

    const char* who = peers::clientName(peers::clientProtocol(d));
    const int discovered = island.runLookups(1, [who](const peers::Client::Result& r) {
        std::cout << who << ": "
                  << (r.urls.empty() ? std::string("no reply") : "discovered " + r.urls[0])
                  << " after "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(r.elapsed).count()
                  << " ms (virtual)\n";
    });
    for (const auto& session : engine.sessions()) {
        std::cout << "bridge session: " << session.messagesIn << " in / "
                  << session.messagesOut << " out, translation "
                  << std::chrono::duration_cast<std::chrono::milliseconds>(
                         session.translationTime())
                         .count()
                  << " ms\n";
    }
    return discovered == 1 ? 0 : 1;
}

int cmdDemo(const std::string& slug) {
    const Direction* d = bridge::models::directionBySlug(slug);
    if (d == nullptr) return usage();
    return runDemo(bridge::models::forDirection(*d, peers::SimIsland::kBridgeHost), *d);
}

int cmdDemoFiles(char** argv) {
    bridge::models::DeploymentSpec spec;
    spec.protocols.push_back({slurp(argv[0]), slurp(argv[1])});
    spec.protocols.push_back({slurp(argv[2]), slurp(argv[3])});
    spec.bridgeXml = slurp(argv[4]);
    std::cout << "loaded 5 model files\n";
    // The file-driven demo runs the SLP-client / Bonjour-service topology.
    return runDemo(spec, bridge::models::direction(Case::SlpToBonjour));
}

/// Drives one case over a hostile network: steady per-hop loss plus a seeded
/// chaos FaultSchedule (loss bursts, latency spikes, partition flaps, connect
/// blackholes). Prints every bridge session's outcome with its structured
/// failure cause and the network's drop accounting. Succeeds when at least
/// one lookup discovers the service AND the connector never wedged (it is
/// back at its initial state at the end).
int cmdChaos(const std::string& slug, double loss, std::uint64_t seed) {
    const Direction* d = bridge::models::directionBySlug(slug);
    if (d == nullptr) return usage();
    constexpr int kLookups = 10;

    peers::SimIsland island(seed);
    island.chaos(seed, loss);
    const engine::AutomataEngine& engine =
        island.deploy(*d, peers::resilientEngineOptions()).engine();
    island.spawn(*d, {}, peers::chaosClientConfigs());
    const net::SimNetwork& network = island.network;
    std::cout << "deployed bridge '" << engine.merged().name()
              << "' under chaos (loss " << loss << ", seed " << seed << ", "
              << network.faultSchedule().episodes().size() << " fault episodes)\n";

    const int successes = island.runLookups(kLookups);

    for (const auto& session : engine.sessions()) {
        std::cout << "session: " << (session.completed ? "completed" : "ABORTED ") << " cause="
                  << engine::failureCauseName(session.cause) << " retransmits="
                  << session.retransmits << " in/out=" << session.messagesIn << "/"
                  << session.messagesOut << " translation="
                  << std::chrono::duration_cast<std::chrono::milliseconds>(
                         session.translationTime())
                         .count()
                  << " ms\n";
    }
    std::cout << "lookups: " << successes << "/" << kLookups << " discovered\n";
    std::cout << "network: " << network.datagramsSent() << " datagrams sent, "
              << network.datagramsLost() << " lost, " << network.partitionDrops()
              << " partition drops, " << network.connectsRefused() << " connects refused\n";
    const bool connectorHealthy = engine.liveSessionCount() == 0;
    std::cout << "connector: " << (connectorHealthy ? "re-armed at q0" : "WEDGED") << "\n";
    return successes > 0 && connectorHealthy ? 0 : 1;
}

/// What a field's length rule compiles to, for the plan dump.
std::string describeLength(const mdl::FieldSpec& spec) {
    using Length = mdl::FieldSpec::Length;
    switch (spec.length) {
        case Length::Bits: return "bits(" + std::to_string(spec.bits) + ")";
        case Length::FieldRef: return "ref(" + spec.ref + ")";
        case Length::Auto: return "auto";
        case Length::Delimiter: return "delimiter[" + std::to_string(spec.delimiter.size()) + "B]";
        case Length::FieldsBlock: return "fields-block";
        case Length::Body: return "body";
        case Length::Meta: return "meta";
        case Length::XmlPath: return "xml-path(" + spec.ref + ")";
    }
    return "?";
}

void printPlanField(const mdl::PlanField& field, int flatIndex) {
    std::cout << "    [" << flatIndex << "] " << field.spec->label << "  "
              << describeLength(*field.spec);
    if (!field.marshallerName.empty()) std::cout << "  marshaller=" << field.marshallerName;
    if (field.refIndex >= 0) std::cout << "  length<-flat[" << field.refIndex << "]";
    if (field.searcherIndex >= 0) std::cout << "  searcher#" << field.searcherIndex;
    if (field.isMsgLength) std::cout << "  f-msglength";
    if (!field.pathSteps.empty()) {
        std::cout << "  path=";
        for (std::size_t i = 0; i < field.pathSteps.size(); ++i) {
            std::cout << (i ? "/" : "") << field.pathSteps[i];
        }
    }
    if (field.defaultValue) std::cout << "  default=\"" << field.defaultValue->toText() << "\"";
    std::cout << "\n";
}

/// Dumps the codec plan an MDL compiles to: the flat header, every message
/// plan with its dispatch rule, and the compose metadata the interpreters
/// used to re-derive per message.
int cmdPlan(const std::string& which) {
    const auto& builtins = bridge::models::embeddedDocuments();
    const auto builtin = builtins.find(which + ".mdl.xml");
    const std::string mdlXml = builtin != builtins.end() ? builtin->second : slurp(which);

    const auto codec = mdl::MessageCodec::fromXml(mdlXml);
    const mdl::CodecPlan& plan = codec->plan();
    const auto& doc = codec->document();
    const char* kind = doc.kind() == mdl::MdlKind::Binary   ? "binary"
                       : doc.kind() == mdl::MdlKind::Text   ? "text"
                                                            : "xml";
    std::cout << "protocol " << doc.protocol() << " (" << kind << " dialect)\n";

    std::cout << "header (" << plan.header().size() << " fields):\n";
    for (std::size_t i = 0; i < plan.header().size(); ++i) {
        printPlanField(plan.header()[i], static_cast<int>(i));
    }

    std::cout << "messages (" << plan.messages().size() << "):\n";
    for (const mdl::MessagePlan& mp : plan.messages()) {
        std::cout << "  " << mp.spec->type;
        if (mp.spec->rule) {
            std::cout << "  rule " << mp.spec->rule->field << "=" << mp.spec->rule->value;
        } else {
            std::cout << "  (unruled fallback)";
        }
        std::cout << "\n";
        for (std::size_t i = 0; i < mp.body.size(); ++i) {
            printPlanField(mp.body[i],
                           static_cast<int>(plan.header().size() + i));
        }
        if (!mp.mandatory.empty()) {
            std::cout << "    mandatory:";
            for (const std::string& label : mp.mandatory) std::cout << " " << label;
            std::cout << "\n";
        }
    }
    return 0;
}

/// Runs a few bridged lookups with span collection on and exports the span
/// trees as Chrome trace JSON (stdout, or --out <file>). The summary goes to
/// stderr so a redirected stdout stays pure JSON.
int cmdTrace(const std::string& slug, const std::optional<std::string>& outPath) {
    const Direction* d = bridge::models::directionBySlug(slug);
    if (d == nullptr) return usage();
    telemetry::setEnabled(true);
    engine::EngineOptions options;
    options.spanCapacity = 16384;
    peers::SimIsland island;
    island.deploy(*d, options);
    island.spawn(*d);
    const int successes = island.runLookups(3);

    const auto& spans = island.deployed->engine().spans();
    const std::string processName = "starlink-bridge " + std::string(d->name);
    if (outPath) {
        std::ofstream out(*outPath);
        if (!out) throw SpecError("cannot write '" + *outPath + "'");
        telemetry::writeChromeTrace(spans, out, processName);
        std::cout << "wrote " << *outPath << "\n";
    } else {
        telemetry::writeChromeTrace(spans, std::cout, processName);
    }
    std::cerr << "traced " << island.deployed->engine().sessions().size() << " sessions ("
              << spans.size() << " spans, " << spans.dropped() << " dropped); " << successes
              << "/3 lookups discovered\n";
    return successes > 0 && spans.size() > 0 ? 0 : 1;
}

/// Runs a few bridged lookups with metric recording on and prints the
/// process-wide registry as Prometheus text exposition.
int cmdMetrics(const std::string& slug) {
    const Direction* d = bridge::models::directionBySlug(slug);
    if (d == nullptr) return usage();
    telemetry::setEnabled(true);
    peers::SimIsland island;
    island.deploy(*d);
    island.spawn(*d);
    const int successes = island.runLookups(5);

    const auto virtualUs = std::chrono::duration_cast<std::chrono::microseconds>(
                               island.network.now().time_since_epoch())
                               .count();
    std::cout << telemetry::MetricsRegistry::global().renderPrometheus(virtualUs);
    std::cerr << successes << "/5 lookups discovered\n";
    return successes > 0 ? 0 : 1;
}

/// Publishes --models-dir through the registry's lint gate, or the built-in
/// fleet without one.
void loadModels(bridge::ModelRegistry& registry, const std::string& modelsDir) {
    if (modelsDir.empty()) {
        registry.loadBuiltins();
    } else {
        registry.loadDirectory(modelsDir);
    }
}

// -- serve --transport=os ----------------------------------------------------

// The live daemon's shutdown path: the handler may only touch
// async-signal-safe state, so it flips OsNetwork's volatile stop flag and
// writes the wake eventfd; the event loop notices on its next iteration.
net::OsNetwork* gServeNetwork = nullptr;

void handleServeSignal(int) {
    if (gServeNetwork != nullptr) {
        gServeNetwork->requestStop();
        gServeNetwork->wakeFromSignal();
    }
}

// SIGHUP requests a model reload. The handler only flips a sig_atomic_t and
// wakes the event loop; the load + lint gate + swap run inline in the poll
// loop, where failure can be reported and the old version kept serving.
volatile std::sig_atomic_t gReloadRequested = 0;

void handleReloadSignal(int) {
    gReloadRequested = 1;
    if (gServeNetwork != nullptr) gServeNetwork->wakeFromSignal();
}

/// Persistent daemon on the OS transport: deploys one case's bridge on real
/// loopback sockets and serves live sessions until SIGTERM/SIGINT (or
/// --max-seconds as a belt-and-braces bound for scripted runs). Each session
/// prints one summary line as it ends; shutdown prints lifetime aggregates
/// and exits 0 iff no abort escaped the error taxonomy (code Unclassified).
int cmdServeOs(const std::string& slug, const std::string& bindAddress, int portBase,
               int metricsPort, bool withPeers, int processingMs, int maxSeconds, bool record,
               const std::string& postmortemDir, const std::string& modelsDir,
               double canaryPercent) {
    const std::optional<Case> c = fleetCase("serve --transport=os", slug);
    if (!c) return 2;
    const Direction& d = bridge::models::direction(*c);
    telemetry::setEnabled(true);

    if (!postmortemDir.empty()) probeSpoolDir(postmortemDir);

    net::OsNetwork::Options netOptions;
    netOptions.bindAddress = bindAddress;
    netOptions.portBase = static_cast<std::uint16_t>(portBase);
    net::OsNetwork network{netOptions};

    std::optional<telemetry::PostmortemSpool> spool;
    if (!postmortemDir.empty()) {
        spool.emplace(telemetry::PostmortemSpool::Options{postmortemDir, 64});
    }

    // Every deploy goes through the versioned registry -- the builtin fleet
    // when no --models-dir -- so SIGHUP reload, the lint gate, canary and
    // rollback behave identically for both sources. A defective INITIAL set
    // is fatal (bridge.deploy-rejected escapes to the envelope); a defective
    // RELOAD is not (the old version keeps serving, below).
    bridge::ModelRegistryOptions registryOptions;
    registryOptions.canaryPercent = canaryPercent;
    // A canary generation serves every NEW session while live sessions
    // finish on theirs (time-based canary); after this many clean canary
    // sessions it is promoted outright.
    registryOptions.promoteAfter = canaryPercent > 0.0 ? 64 : 0;
    bridge::ModelRegistry registry{registryOptions};
    registry.onEvent = [](const bridge::RegistryEvent& event) {
        std::cout << "starlinkd[os]: registry " << bridge::registryEventName(event.kind)
                  << " v" << event.fromVersion << " -> v" << event.toVersion;
        if (!event.detail.empty()) std::cout << " (" << event.detail << ")";
        std::cout << "\n" << std::flush;
    };
    loadModels(registry, modelsDir);

    // One deployment for the daemon's lifetime. A swap publishes the new
    // generation into the running engine: new sessions take it, live ones
    // finish on the generation they opened with, and no socket is rebound.
    engine::EngineOptions options;
    if (processingMs >= 0) options.processingDelay = net::ms(processingMs);
    if (record || !postmortemDir.empty()) options.recorderSessionBytes = 1024 * 1024;
    if (spool) options.postmortemSpool = &*spool;
    std::shared_ptr<const bridge::ModelSet> serving = registry.active();
    bridge::Starlink starlink{network};
    bridge::DeployedBridge& deployed =
        starlink.deploy(serving->specFor(*c), "10.0.0.9", options, serving->version());

    // --with-peers co-hosts the case's legacy service, making one daemon a
    // self-contained island a scripted client can complete sessions against.
    // The response delays stay small: on this backend they cost wall time.
    std::optional<peers::Service> service;
    if (withPeers) {
        peers::ServiceConfigs configs;
        configs.each([](auto& config) {
            config.responseDelayBase = net::ms(5);
            config.responseDelayJitter = net::ms(1);
        });
        service.emplace(network, d, configs);
    }

    // /metrics: a raw-byte listener speaking just enough HTTP to satisfy a
    // Prometheus scrape -- read until the blank line, answer, close. The
    // connection's shared_ptr lives in the handler capture; close() clears
    // the handlers, which breaks the cycle.
    std::unique_ptr<net::TcpListener> metricsListener;
    if (metricsPort > 0) {
        metricsListener =
            network.listenTcpRaw(bindAddress, static_cast<std::uint16_t>(metricsPort));
        metricsListener->onAccept([&network](std::shared_ptr<net::TcpConnection> conn) {
            auto request = std::make_shared<std::string>();
            auto held = conn;
            conn->onData([&network, request, held](const Bytes& chunk) {
                request->append(chunk.begin(), chunk.end());
                if (request->find("\r\n\r\n") == std::string::npos) return;
                const bool isMetrics = request->rfind("GET /metrics", 0) == 0;
                // POST /reload (GET accepted for curl convenience) schedules
                // the same model reload SIGHUP does; it is applied in the
                // poll loop, and live sessions finish on their generation.
                const bool isReload = request->rfind("POST /reload", 0) == 0 ||
                                      request->rfind("GET /reload", 0) == 0;
                if (isReload) gReloadRequested = 1;
                const bool found = isMetrics || isReload;
                const auto wallUs = std::chrono::duration_cast<std::chrono::microseconds>(
                                        network.now().time_since_epoch())
                                        .count();
                const std::string body =
                    isMetrics ? telemetry::MetricsRegistry::global().renderPrometheus(wallUs)
                    : isReload ? "reload scheduled\n"
                               : "not found\n";
                std::ostringstream response;
                response << (found ? "HTTP/1.1 200 OK" : "HTTP/1.1 404 Not Found") << "\r\n"
                         << "Content-Type: text/plain; version=0.0.4\r\n"
                         << "Content-Length: " << body.size() << "\r\n"
                         << "Connection: close\r\n\r\n"
                         << body;
                const std::string text = response.str();
                held->send(Bytes(text.begin(), text.end()));
                held->close();
            });
        });
    }

    std::cout << "starlinkd[os]: case " << d.name
              << ", bridge 10.0.0.9 on " << bindAddress;
    if (portBase > 0) {
        std::cout << ", port base " << portBase;
    } else {
        std::cout << ", kernel-assigned ports";
    }
    if (withPeers) std::cout << ", in-process peers";
    std::cout << "\n";
    std::cout << "starlinkd[os]: models v" << serving->version() << " ("
              << serving->source() << ", identity " << std::hex << serving->identity()
              << std::dec << ")";
    if (canaryPercent > 0.0) std::cout << ", canary on reload";
    std::cout << "\n";
    if (metricsListener != nullptr) {
        std::cout << "starlinkd[os]: metrics on http://" << bindAddress << ":" << metricsPort
                  << "/metrics (POST /reload to hot-swap)\n";
    }
    std::cout << "starlinkd[os]: ready (pid " << ::getpid() << ")\n" << std::flush;

    gServeNetwork = &network;
    gReloadRequested = 0;
    std::signal(SIGTERM, handleServeSignal);
    std::signal(SIGINT, handleServeSignal);
    std::signal(SIGHUP, handleReloadSignal);

    // One summary line per session as it ends; each terminal record also
    // feeds the registry's cohort judge.
    deployed.engine().onSessionComplete = [&](const engine::SessionRecord& s) {
        std::cout << "session #" << deployed.engine().sessions().totalEnded() << ": "
                  << (s.completed ? "completed" : "aborted") << " in=" << s.messagesIn
                  << " out=" << s.messagesOut << " model=v" << s.modelVersion;
        if (!s.completed) {
            std::cout << " cause=" << engine::failureCauseName(s.cause)
                      << " code=" << errc::to_string(s.code);
        }
        std::cout << "\n";
        registry.noteSession(s.modelVersion, !s.completed, s.code);
    };

    const auto started = network.now();
    while (!network.stopRequested()) {
        network.poll(net::ms(200));
        std::cout << std::flush;
        if (gReloadRequested) {
            gReloadRequested = 0;
            try {
                loadModels(registry, modelsDir);
            } catch (const StarlinkError& error) {
                // A defective candidate must never take a serving daemon
                // down: record the rejection and keep the old version.
                registry.noteReloadFailure(error.what());
                std::cout << "starlinkd[os]: reload rejected ["
                          << errc::to_string(error.code()) << "] " << error.what() << "\n"
                          << std::flush;
            }
        }
        // Publish whenever the set new sessions should open on changes: the
        // canary while one is in flight (time-based canary), else the active
        // set. Sessions in flight finish on the generation they started with.
        auto want = registry.canary();
        if (want == nullptr) want = registry.active();
        if (want->version() != serving->version()) {
            deployed.publish(want->specFor(*c), want->version());
            std::cout << "starlinkd[os]: serving v" << serving->version() << " -> v"
                      << want->version() << " (identity " << std::hex << want->identity()
                      << std::dec << ")\n"
                      << std::flush;
            serving = want;
        }
        if (maxSeconds > 0 && network.now() - started >= std::chrono::seconds(maxSeconds)) {
            break;
        }
    }

    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGHUP, SIG_DFL);
    gServeNetwork = nullptr;

    const auto& history = deployed.engine().sessions();
    const auto uncoded = history.abortsByCode().find(errc::ErrorCode::Unclassified);
    const std::uint64_t uncodedCount =
        uncoded == history.abortsByCode().end() ? 0 : uncoded->second;
    const auto wallMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(network.now() - started).count();
    std::cout << "starlinkd[os]: shutdown after " << wallMs << " ms: " << history.totalEnded()
              << " sessions (" << history.totalCompleted() << " completed, "
              << history.totalAborted() << " aborted, uncoded=" << uncodedCount << ")";
    std::cout << ", serving v" << serving->version() << ", swaps=" << registry.swapsTotal()
              << ", rollbacks=" << registry.rollbacksTotal()
              << ", reload-failures=" << registry.reloadFailuresTotal();
    if (spool) {
        std::cout << ", " << spool->written() << " postmortem bundle(s) in "
                  << spool->directory();
    }
    std::cout << "\n";
    return uncodedCount == 0 ? 0 : 1;
}

/// Drives a mixed workload (all six directions, round-robin) through the
/// sharded engine and reports per-shard accounting plus the aggregate
/// virtual-time throughput. With --chaos every session runs under a
/// seed-derived fault schedule; with --metrics the per-shard registries are
/// merged and printed as Prometheus text exposition (stdout stays pure
/// exposition, the report moves to stderr).
int cmdServe(int shards, int sessions, bool chaos, double loss, std::uint64_t seed,
             bool printMetrics, std::size_t maxSessions, int idleTimeoutMs, bool record,
             const std::string& postmortemDir, const std::string& modelsDir,
             double canaryPercent) {
    if (printMetrics) telemetry::setEnabled(true);
    if (!postmortemDir.empty()) probeSpoolDir(postmortemDir);
    engine::ShardEngineOptions options;
    options.shards = shards;
    options.baseSeed = seed;
    options.chaos = chaos;
    options.chaosLoss = loss;
    options.maxPendingPerShard = maxSessions;
    if (chaos) options.engine = peers::resilientEngineOptions();
    if (idleTimeoutMs > 0) options.engine.idleTimeout = net::ms(idleTimeoutMs);
    std::optional<telemetry::PostmortemSpool> spool;
    if (record || !postmortemDir.empty()) {
        options.engine.recorderSessionBytes = 1024 * 1024;
    }
    if (!postmortemDir.empty()) {
        spool.emplace(telemetry::PostmortemSpool::Options{postmortemDir, 64});
        options.engine.postmortemSpool = &*spool;
    }
    // --models-dir routes every deploy through the versioned registry (lint
    // gate, per-session version pinning); --canary-percent alone exercises
    // the cohort split over the builtin fleet.
    std::optional<bridge::ModelRegistry> registry;
    if (!modelsDir.empty() || canaryPercent > 0.0) {
        bridge::ModelRegistryOptions registryOptions;
        registryOptions.canaryPercent = canaryPercent;
        registry.emplace(registryOptions);
        loadModels(*registry, modelsDir);
        options.registry = &*registry;
    }
    engine::ShardEngine shardEngine(options);
    for (int i = 0; i < sessions; ++i) {
        engine::SessionJob job;
        job.caseId = bridge::models::kAllCases[static_cast<std::size_t>(i) % 6];
        job.key = "session-" + std::to_string(i);
        shardEngine.submit(job);
    }
    const auto& results = shardEngine.run();

    std::ostream& report = printMetrics ? std::cerr : std::cout;
    std::size_t discovered = 0;
    std::size_t bridgeSessions = 0;
    std::size_t completed = 0;
    std::size_t shedJobs = 0;
    for (const auto& result : results) {
        if (result.discovered) ++discovered;
        if (result.shed) ++shedJobs;
        bridgeSessions += result.outcomes.size();
        for (const auto& outcome : result.outcomes) {
            if (outcome.completed) ++completed;
        }
    }
    for (const auto& shard : shardEngine.reports()) {
        report << "shard " << shard.shard << ": " << shard.jobs << " jobs, "
               << shard.bridgeSessions << " bridge sessions (" << shard.completedSessions
               << " completed), " << shard.discovered << " discovered, " << shard.shed
               << " shed, busy "
               << std::chrono::duration_cast<std::chrono::milliseconds>(shard.busyVirtual)
                      .count()
               << " ms virtual\n";
    }
    report << "served " << results.size() << " sessions on " << shards
           << (shards == 1 ? " shard" : " shards") << (chaos ? " under chaos" : "")
           << ": " << discovered << " discovered, " << completed << "/" << bridgeSessions
           << " bridge sessions completed";
    if (shedJobs > 0) {
        report << ", " << shedJobs << " shed ("
               << errc::to_string(errc::ErrorCode::EngineOverload) << ")";
    }
    report << "\n";
    report << "virtual makespan "
           << std::chrono::duration_cast<std::chrono::milliseconds>(shardEngine.makespan())
                  .count()
           << " ms, aggregate " << shardEngine.virtualSessionsPerSecond()
           << " sessions/s (virtual)\n";
    if (spool) {
        report << "postmortem: " << spool->written() << " bundle(s) spooled to "
               << spool->directory() << "\n";
    }
    if (registry) {
        report << "registry: active v" << registry->active()->version();
        if (const auto candidate = registry->canary()) {
            report << ", canary v" << candidate->version();
        }
        report << ", swaps " << registry->swapsTotal() << ", rollbacks "
               << registry->rollbacksTotal() << "\n";
    }

    if (printMetrics) {
        telemetry::MetricsRegistry merged;
        shardEngine.mergeMetricsInto(merged);
        const auto virtualUs = std::chrono::duration_cast<std::chrono::microseconds>(
                                   shardEngine.makespan())
                                   .count();
        std::cout << merged.renderPrometheus(virtualUs);
    }
    return discovered * 2 > results.size() ? 0 : 1;
}

std::string formatTs(std::int64_t tsUs) {
    std::ostringstream out;
    out << tsUs / 1000 << "." << std::setw(3) << std::setfill('0') << tsUs % 1000 << "ms";
    return out.str();
}

/// Decoded one-liner for a captured payload: the parsed message type when the
/// leg's codec accepts the bytes, a byte count otherwise.
std::string describePayload(const std::shared_ptr<mdl::MessageCodec>& codec,
                            const Bytes& payload) {
    if (codec) {
        std::string error;
        if (const auto message = codec->parse(payload, &error)) {
            return message->type() + " (" + std::to_string(message->fields().size()) +
                   " fields, " + std::to_string(payload.size()) + " bytes)";
        }
    }
    return std::to_string(payload.size()) + " bytes (undecoded)";
}

/// Pretty-prints one spooled bundle: provenance header, the wire-event log
/// with per-leg message decode, and the captured span tree. The per-leg
/// decode deploys the bundle's case on a throwaway island purely to re-derive
/// the per-color codecs; no traffic runs.
int cmdPostmortem(const std::string& path) {
    const telemetry::PostmortemBundle bundle = telemetry::decodeBundle(slurpBytes(path));
    const errc::ErrorCode code = static_cast<errc::ErrorCode>(bundle.abortCode);

    std::cout << "postmortem " << path << "\n";
    std::cout << "  bridge:   " << bundle.bridge
              << (bundle.caseSlug.empty() ? "" : " (case " + bundle.caseSlug + ")") << " at "
              << bundle.bridgeHost << ", shard " << bundle.shard << ", session #"
              << bundle.sessionOrdinal << "\n";
    std::cout << "  abort:    " << bundle.abortCode << " " << errc::to_string(code) << " (cause "
              << engine::failureCauseName(static_cast<engine::FailureCause>(bundle.cause))
              << ")\n";
    std::cout << "  fix:      " << errc::remediation(code) << "\n";
    std::cout << "  seeds:    session=" << bundle.sessionSeed << " retry=" << bundle.retrySeed
              << " (+" << bundle.retryDraws << " draws burned), models="
              << std::hex << bundle.modelIdentity << std::dec << "\n";
    std::cout << "  timers:   processing=" << bundle.processingDelayUs / 1000
              << "ms receive=" << bundle.receiveTimeoutUs / 1000
              << "ms session=" << bundle.sessionTimeoutUs / 1000
              << "ms idle=" << bundle.idleTimeoutUs / 1000 << "ms retransmits<="
              << bundle.maxRetransmits << "\n";
    if (bundle.truncated) {
        std::cout << "  WARNING:  log truncated at the recorder byte cap ("
                  << bundle.droppedEvents << " events dropped); replay will refuse this "
                  << "bundle\n";
    }

    // Throwaway deployment for the codecs and the color registry.
    std::optional<peers::SimIsland> island;
    engine::AutomataEngine* engine = nullptr;
    if (const Direction* d = bridge::models::directionBySlug(bundle.caseSlug)) {
        const std::string host =
            bundle.bridgeHost.empty() ? peers::SimIsland::kBridgeHost : bundle.bridgeHost;
        island.emplace();
        engine = &island->starlink.deploy(bridge::models::forDirection(*d, host), host).engine();
    }
    auto colorTag = [&](std::uint64_t k) {
        std::ostringstream out;
        if (island) {
            if (const automata::Color* color = island->starlink.colors().lookup(k)) {
                out << color->transport();
                if (const auto port = color->port()) out << ":" << *port;
                return out.str();
            }
        }
        out << "color:" << std::hex << k << std::dec;
        return out.str();
    };

    const std::vector<telemetry::WireEvent> events = telemetry::decodeEvents(bundle.events);
    std::cout << "  events (" << events.size() << "):\n";
    for (const telemetry::WireEvent& event : events) {
        std::cout << "    " << std::setw(12) << formatTs(event.tsUs) << "  ";
        const auto codec = engine ? engine->codecForColor(event.color) : nullptr;
        switch (event.kind) {
            case telemetry::WireEvent::Kind::Rx:
                std::cout << "rx  [" << colorTag(event.color) << "] " << event.from << " -> "
                          << (event.to.empty() ? "(tcp client leg)" : event.to) << "  "
                          << describePayload(codec, event.payload);
                break;
            case telemetry::WireEvent::Kind::Tx:
                std::cout << "tx  [" << colorTag(event.color) << "] "
                          << describePayload(codec, event.payload);
                break;
            case telemetry::WireEvent::Kind::TcpConnect:
                std::cout << "tcp-connect " << event.from << " "
                          << (event.action == telemetry::WireEvent::kConnectConnected
                                  ? "connected"
                                  : "REFUSED")
                          << " after " << event.attempts << " attempt(s)";
                break;
            case telemetry::WireEvent::Kind::Transition:
                std::cout << "step " << event.state << " -> " << event.stateTo << " ("
                          << (event.action == telemetry::WireEvent::kActionReceive ? "receive"
                              : event.action == telemetry::WireEvent::kActionSend ? "send"
                                                                                  : "delta");
                if (!event.messageType.empty()) std::cout << " " << event.messageType;
                std::cout << ") in " << event.component;
                break;
            case telemetry::WireEvent::Kind::Translate:
                std::cout << "translate at " << event.state << " -> " << event.messageType;
                break;
            case telemetry::WireEvent::Kind::Fault:
                std::cout << "fault [" << colorTag(event.color) << "] "
                          << (event.action == telemetry::WireEvent::kFaultPeerClosed
                                  ? "peer-closed"
                                  : "connect-refused")
                          << " " << event.from;
                break;
            case telemetry::WireEvent::Kind::SessionEnd:
                std::cout << "end " << (event.completed ? "completed" : "ABORTED") << " code="
                          << event.code << " "
                          << errc::to_string(static_cast<errc::ErrorCode>(event.code))
                          << " in/out=" << event.messagesIn << "/" << event.messagesOut
                          << " retransmits=" << event.retransmits;
                break;
        }
        std::cout << "\n";
    }

    if (!bundle.spans.empty()) {
        std::cout << "  spans (" << bundle.spans.size() << "):\n";
        std::map<std::uint64_t, std::vector<const telemetry::Span*>> children;
        std::map<std::uint64_t, const telemetry::Span*> byId;
        for (const telemetry::Span& span : bundle.spans) byId[span.id] = &span;
        std::vector<const telemetry::Span*> roots;
        for (const telemetry::Span& span : bundle.spans) {
            if (span.parent != 0 && byId.contains(span.parent)) {
                children[span.parent].push_back(&span);
            } else {
                roots.push_back(&span);
            }
        }
        const std::function<void(const telemetry::Span*, int)> printTree =
            [&](const telemetry::Span* span, int depth) {
                std::cout << "    " << std::string(static_cast<std::size_t>(depth) * 2, ' ')
                          << span->name << " "
                          << (span->end - span->start).count() << "us";
                for (const auto& attr : span->attrs) {
                    std::cout << " " << attr.key << "=" << attr.value;
                }
                std::cout << "\n";
                for (const telemetry::Span* child : children[span->id]) printTree(child, depth + 1);
            };
        for (const telemetry::Span* root : roots) printTree(root, 0);
    }
    return 0;
}

/// Replays a bundle and diffs the outcome against the capture. With
/// --models-dir the models that produced the capture are resolved from a
/// registry over that directory BY FINGERPRINT: a bundle no retained
/// generation matches is refused (bridge.version-unknown) before anything
/// deploys -- replay never guesses which models to run.
int cmdReplay(const std::string& path, const std::string& modelsDir) {
    const telemetry::PostmortemBundle bundle = telemetry::decodeBundle(slurpBytes(path));
    std::cout << "replaying " << path << " (case " << bundle.caseSlug << ", abort "
              << bundle.abortCode << " "
              << errc::to_string(static_cast<errc::ErrorCode>(bundle.abortCode)) << ")\n";
    bridge::ReplayComparison result;
    if (!modelsDir.empty()) {
        const std::optional<Case> c = fleetCase("replay --models-dir", bundle.caseSlug);
        if (!c) return 2;
        bridge::ModelRegistry registry;
        registry.loadDirectory(modelsDir);
        const auto set = registry.byCaseIdentity(*c, bundle.modelIdentity);
        if (set == nullptr) {
            std::ostringstream message;
            message << "no model generation in '" << modelsDir
                    << "' matches the bundle's fingerprint " << std::hex
                    << bundle.modelIdentity << std::dec;
            throw SpecError(errc::ErrorCode::BridgeVersionUnknown, message.str());
        }
        std::cout << "  models:   v" << set->version() << " from " << set->source()
                  << " (identity " << std::hex << set->identityFor(*c) << std::dec << ")\n";
        result = bridge::replayBundle(bundle, set->specFor(*c));
    } else {
        result = bridge::replayBundle(bundle);
    }
    std::cout << "  replayed: " << (result.completed ? "completed" : "aborted") << " code="
              << result.abortCode << " in/out=" << result.messagesIn << "/"
              << result.messagesOut << " retransmits=" << result.retransmits << "\n";
    std::cout << "  wire:     " << result.replayedTx << "/" << result.originalTx
              << " outbound messages reproduced\n";
    if (result.ok()) {
        std::cout << "  verdict:  REPRODUCED (session record and wire traffic identical)\n";
        return 0;
    }
    std::cout << "  verdict:  DIVERGED -- " << result.detail << "\n";
    return 1;
}

int cmdDot(const std::string& slug) {
    const Direction* d = bridge::models::directionBySlug(slug);
    if (d == nullptr) return usage();
    const auto spec = bridge::models::forDirection(*d, "10.0.0.9");
    automata::ColorRegistry colors;
    std::vector<std::shared_ptr<automata::ColoredAutomaton>> components;
    for (const auto& protocol : spec.protocols) {
        components.push_back(merge::loadAutomaton(protocol.automatonXml, colors));
    }
    const auto merged = merge::loadBridge(spec.bridgeXml, std::move(components));
    merged->validate();
    std::cout << merge::toDot(*merged);
    return 0;
}

/// Dump the taxonomy: one line per code, aligned, grouped by layer.
int cmdErrors() {
    const errc::Layer* last = nullptr;
    static errc::Layer lastStorage;
    for (const errc::ErrorCode code : errc::allCodes()) {
        if (code == errc::ErrorCode::Ok) continue;
        const errc::Layer layer = errc::layerOf(code);
        if (last == nullptr || *last != layer) {
            std::cout << "# " << errc::layerName(layer) << "\n";
            lastStorage = layer;
            last = &lastStorage;
        }
        std::cout << "  " << errc::to_error_code(code) << "\t" << errc::to_string(code)
                  << "\n\t\t" << errc::remediation(code) << "\n";
    }
    return 0;
}

/// Distinct nonzero exit code per taxonomy layer: 10 + layer index. Keeps
/// clear of 1 (demo/lint findings) and 2 (usage).
int exitCodeFor(errc::ErrorCode code) {
    return 10 + static_cast<int>(errc::layerOf(code));
}

}  // namespace

int main(int argc, char** argv) {
    const std::string command = argc >= 2 ? argv[1] : "";
    try {
        if (argc >= 2) {
            if (command == "errors" && argc == 2) return cmdErrors();
            if (command == "list" && argc == 2) return cmdList();
            if (command == "export" && argc == 3) return cmdExport(argv[2]);
            if (command == "demo" && argc == 3) return cmdDemo(argv[2]);
            if (command == "demo-files" && argc == 7) return cmdDemoFiles(argv + 2);
            if (command == "dot" && argc == 3) return cmdDot(argv[2]);
            if (command == "lint" && argc >= 3) {
                bool json = false;
                std::vector<std::string> paths;
                for (int i = 2; i < argc; ++i) {
                    const std::string arg = argv[i];
                    if (arg == "--json") {
                        json = true;
                    } else {
                        paths.push_back(arg);
                    }
                }
                if (paths.empty()) return usage();
                return cmdLint(paths, json);
            }
            if (command == "plan" && argc == 3) return cmdPlan(argv[2]);
            if (command == "chaos" && argc >= 3 && argc <= 5) {
                double loss = 0.25;
                std::uint64_t seed = 42;
                try {
                    if (argc > 3) loss = std::stod(argv[3]);
                    if (argc > 4) seed = std::stoull(argv[4]);
                } catch (const std::exception&) {
                    std::cerr << "starlinkd: chaos expects a numeric loss "
                                 "probability and seed\n";
                    return usage();
                }
                if (loss < 0.0 || loss > 1.0) {
                    std::cerr << "starlinkd: loss probability must be in [0, 1]\n";
                    return usage();
                }
                return cmdChaos(argv[2], loss, seed);
            }
            if (command == "trace" && (argc == 3 || argc == 5)) {
                std::optional<std::string> outPath;
                if (argc == 5) {
                    if (std::string(argv[3]) != "--out") return usage();
                    outPath = argv[4];
                }
                return cmdTrace(argv[2], outPath);
            }
            if (command == "metrics" && argc == 3) return cmdMetrics(argv[2]);
            if (command == "serve") {
                int shards = 4;
                int sessions = 120;
                bool chaos = false;
                double loss = 0.05;
                std::uint64_t seed = 0x5747524c494e4bULL;
                bool printMetrics = false;
                long long maxSessions = 0;  // 0 = unbounded admission
                int idleTimeoutMs = 0;      // 0 = no idle eviction
                bool record = false;
                std::string postmortemDir;
                std::string modelsDir;
                double canaryPercent = 0.0;  // 0 = swap immediately on reload
                std::string transport = "sim";
                std::string slug;
                std::string bindAddress = "127.0.0.1";
                int portBase = 0;      // 0 = kernel-assigned real ports
                int metricsPort = 0;   // 0 = no /metrics endpoint
                bool withPeers = false;
                int processingMs = -1;  // -1 = engine default
                int maxSeconds = 0;     // 0 = run until signalled
                try {
                    for (int i = 2; i < argc; ++i) {
                        const std::string flag = argv[i];
                        if (flag == "--chaos") chaos = true;
                        else if (flag == "--metrics") printMetrics = true;
                        else if (flag == "--record") record = true;
                        else if (flag == "--with-peers") withPeers = true;
                        else if (flag.rfind("--transport=", 0) == 0) transport = flag.substr(12);
                        else if (flag == "--transport" && i + 1 < argc) transport = argv[++i];
                        else if (flag == "--case" && i + 1 < argc) slug = argv[++i];
                        else if (flag == "--bind" && i + 1 < argc) bindAddress = argv[++i];
                        else if (flag == "--port-base" && i + 1 < argc) portBase = std::stoi(argv[++i]);
                        else if (flag == "--metrics-port" && i + 1 < argc) metricsPort = std::stoi(argv[++i]);
                        else if (flag == "--processing-ms" && i + 1 < argc) processingMs = std::stoi(argv[++i]);
                        else if (flag == "--max-seconds" && i + 1 < argc) maxSeconds = std::stoi(argv[++i]);
                        else if (flag == "--shards" && i + 1 < argc) shards = std::stoi(argv[++i]);
                        else if (flag == "--sessions" && i + 1 < argc) sessions = std::stoi(argv[++i]);
                        else if (flag == "--loss" && i + 1 < argc) loss = std::stod(argv[++i]);
                        else if (flag == "--seed" && i + 1 < argc) seed = std::stoull(argv[++i]);
                        else if (flag == "--max-sessions" && i + 1 < argc) maxSessions = std::stoll(argv[++i]);
                        else if (flag == "--idle-timeout" && i + 1 < argc) idleTimeoutMs = std::stoi(argv[++i]);
                        else if (flag == "--postmortem-dir" && i + 1 < argc) postmortemDir = argv[++i];
                        else if (flag == "--models-dir" && i + 1 < argc) modelsDir = argv[++i];
                        else if (flag == "--canary-percent" && i + 1 < argc) canaryPercent = std::stod(argv[++i]);
                        else return usage();
                    }
                } catch (const std::exception&) {
                    std::cerr << "starlinkd: serve expects numeric option values\n";
                    return usage();
                }
                if (canaryPercent < 0.0 || canaryPercent > 100.0) {
                    std::cerr << "starlinkd: serve: canary-percent in [0,100]\n";
                    return usage();
                }
                if (transport == "os") {
                    if (slug.empty() || portBase < 0 || portBase > 45000 ||
                        metricsPort < 0 || metricsPort > 65535 || maxSeconds < 0) {
                        std::cerr << "starlinkd: serve --transport=os needs --case <case>; "
                                     "port-base in [0,45000], metrics-port in [0,65535]\n";
                        return usage();
                    }
                    return cmdServeOs(slug, bindAddress, portBase, metricsPort, withPeers,
                                      processingMs, maxSeconds, record, postmortemDir,
                                      modelsDir, canaryPercent);
                }
                if (transport != "sim") {
                    std::cerr << "starlinkd: unknown transport '" << transport
                              << "' (sim or os)\n";
                    return usage();
                }
                if (shards < 1 || shards > 64 || sessions < 1 || loss < 0.0 || loss > 1.0 ||
                    maxSessions < 0 || idleTimeoutMs < 0) {
                    std::cerr << "starlinkd: serve: shards in [1,64], sessions >= 1, "
                                 "loss in [0,1], max-sessions >= 0, idle-timeout >= 0\n";
                    return usage();
                }
                return cmdServe(shards, sessions, chaos, loss, seed, printMetrics,
                                static_cast<std::size_t>(maxSessions), idleTimeoutMs, record,
                                postmortemDir, modelsDir, canaryPercent);
            }
            if (command == "postmortem" && argc == 3) return cmdPostmortem(argv[2]);
            if (command == "replay" && argc >= 3) {
                std::string modelsDir;
                std::string bundlePath;
                for (int i = 2; i < argc; ++i) {
                    const std::string arg = argv[i];
                    if (arg == "--models-dir" && i + 1 < argc) {
                        modelsDir = argv[++i];
                    } else if (bundlePath.empty()) {
                        bundlePath = arg;
                    } else {
                        return usage();
                    }
                }
                if (bundlePath.empty()) return usage();
                return cmdReplay(bundlePath, modelsDir);
            }
        }
        return usage();
    } catch (const std::exception& error) {
        // Every escaping failure leaves as a structured envelope: a human
        // line plus the machine-readable JSON (code, layer, trace id), with
        // a per-layer exit code so scripts can triage without parsing.
        const errc::ErrorCode code = to_error_code(error);
        errc::Envelope envelope;
        envelope.code = code;
        envelope.message = error.what();
        envelope.traceId = "starlinkd/" + (command.empty() ? std::string("?") : command);
        std::cerr << "starlinkd: [" << errc::to_string(code) << "] " << error.what() << "\n";
        std::cerr << errc::toJson(envelope) << "\n";
        return exitCodeFor(code);
    }
}
