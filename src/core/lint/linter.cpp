#include "core/lint/linter.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/mdl/plan.hpp"
#include "core/merge/spec_loader.hpp"
#include "xml/parser.hpp"

namespace starlink::lint {

namespace {

using automata::Action;
using automata::ColoredAutomaton;
using automata::Transition;
using merge::FieldRef;

int lineOf(const xml::Node* node) { return node == nullptr ? 0 : node->line(); }

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::size_t editDistance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diagonal = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t previous = row[j];
            const std::size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
            diagonal = previous;
        }
    }
    return row[b.size()];
}

/// "; did you mean 'X'?" when a registered name is plausibly the intended
/// spelling, else the full registered list.
std::string didYouMean(const std::string& name, const std::vector<std::string>& known) {
    std::string bestName;
    std::size_t bestDistance = static_cast<std::size_t>(-1);
    for (const std::string& candidate : known) {
        const std::size_t d = editDistance(name, candidate);
        if (d < bestDistance) {
            bestDistance = d;
            bestName = candidate;
        }
    }
    if (!bestName.empty() && bestDistance <= std::max<std::size_t>(2, name.size() / 3)) {
        return "; did you mean '" + bestName + "'?";
    }
    return "; registered: " + join(known, ", ");
}

std::string firstSegment(const std::string& path) {
    const auto dot = path.find('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
}

std::optional<ValueType> marshallerValueType(const std::string& name) {
    if (name == "Integer" || name == "Int") return ValueType::Int;
    if (name == "String" || name == "Text" || name == "FQDN") return ValueType::String;
    if (name == "Bytes") return ValueType::Bytes;
    if (name == "Bool" || name == "Boolean") return ValueType::Bool;
    return std::nullopt;
}

/// Text-dialect documents whose header declares a <Fields> block carry
/// arbitrary "Label: value" lines besides the declared positionals (that is
/// the block's purpose), so field names against them cannot be closed-world
/// checked.
bool hasOpenFieldSchema(const mdl::MdlDocument& doc) {
    if (doc.kind() != mdl::MdlKind::Text) return false;
    for (const mdl::FieldSpec& field : doc.header().fields) {
        if (field.length == mdl::FieldSpec::Length::FieldsBlock) return true;
    }
    return false;
}

/// Does any transition ever store an instance of `type` at `state`? The
/// engine pushes received messages at the transition's TARGET state and
/// outgoing messages at the send transition's SOURCE state, so a field
/// reference s.m.f is resolvable exactly when such a transition exists.
bool messageStoredAt(const ColoredAutomaton& automaton, const std::string& state,
                     const std::string& type) {
    for (const Transition& t : automaton.transitions()) {
        if (t.messageType != type) continue;
        if (t.action == Action::Receive && t.to == state) return true;
        if (t.action == Action::Send && t.from == state) return true;
    }
    return false;
}

bool hasIncomingReceive(const ColoredAutomaton& a, const std::string& state) {
    for (const Transition& t : a.transitions()) {
        if (t.to == state && t.action == Action::Receive) return true;
    }
    return false;
}

bool hasOutgoingSend(const ColoredAutomaton& a, const std::string& state) {
    for (const Transition& t : a.transitions()) {
        if (t.from == state && t.action == Action::Send) return true;
    }
    return false;
}

bool hasOutgoingReceive(const ColoredAutomaton& a, const std::string& state) {
    for (const Transition& t : a.transitions()) {
        if (t.from == state && t.action == Action::Receive) return true;
    }
    return false;
}

/// The merge-constraint forms (i)/(ii)/(iii) of MergedAutomaton::validate(),
/// as a per-delta predicate. Role resolution scores candidate client/server
/// combinations by how many deltas satisfy a form: the intended roles make
/// the merge constraints hold, swapped roles break them (a send expected at
/// the entered state becomes a receive and vice versa).
bool deltaSatisfiesForm(const merge::MergedAutomaton& merged, const merge::DeltaTransition& d) {
    const ColoredAutomaton* fromA = merged.automatonOf(d.from);
    const ColoredAutomaton* toA = merged.automatonOf(d.to);
    if (fromA == nullptr || toA == nullptr || fromA == toA) return false;
    const bool formI = toA->initialState() == d.to && hasOutgoingSend(*toA, d.to) &&
                       (hasIncomingReceive(*fromA, d.from) || d.from == merged.initialState());
    const bool formII = fromA->state(d.from)->accepting() &&
                        hasIncomingReceive(*fromA, d.from) && hasOutgoingSend(*toA, d.to);
    const bool formIII = fromA->state(d.from)->accepting() && toA->initialState() == d.to &&
                         hasOutgoingReceive(*toA, d.to);
    return formI || formII || formIII;
}

}  // namespace

bool hasErrors(const std::vector<Diagnostic>& diagnostics) {
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [](const Diagnostic& d) { return d.severity == Severity::Error; });
}

std::string renderText(const std::vector<Diagnostic>& diagnostics) {
    std::string out;
    for (const Diagnostic& d : diagnostics) {
        out += d.file;
        if (d.line > 0) out += ":" + std::to_string(d.line);
        out += ": ";
        out += severityName(d.severity);
        out += " [" + d.rule + "] " + d.message + "\n";
    }
    return out;
}

std::string renderJson(const std::vector<Diagnostic>& diagnostics) {
    std::string out = "[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const Diagnostic& d = diagnostics[i];
        if (i > 0) out += ",";
        out += "\n  {\"file\": \"" + jsonEscape(d.file) +
               "\", \"line\": " + std::to_string(d.line) + ", \"severity\": \"" +
               severityName(d.severity) + "\", \"rule\": \"" + jsonEscape(d.rule) +
               "\", \"code\": " + std::to_string(errc::to_error_code(d.code)) +
               ", \"message\": \"" + jsonEscape(d.message) + "\"}";
    }
    out += diagnostics.empty() ? "]\n" : "\n]\n";
    return out;
}

errc::ErrorCode codeForRule(const std::string& rule) {
    using errc::ErrorCode;
    // Every stable rule id of docs/LINT.md, one code each. Rules predicting a
    // runtime failure alias that layer's code so `lint` and the abort agree.
    static const std::map<std::string, ErrorCode> kRuleCodes = {
        {"xml.parse", ErrorCode::XmlParse},
        {"lint.unknown-kind", ErrorCode::LintUnknownKind},
        {"mdl.invalid", ErrorCode::MdlInvalid},
        {"mdl.marshaller.unknown", ErrorCode::MdlMarshallerUnknown},
        {"mdl.plan", ErrorCode::MdlPlan},
        {"mdl.rule.shadowed", ErrorCode::MdlRuleShadowed},
        {"automaton.invalid", ErrorCode::AutomatonInvalid},
        {"automaton.message.unknown", ErrorCode::AutomatonMessageUnknown},
        {"automaton.receive.ambiguous", ErrorCode::AutomatonReceiveAmbiguous},
        {"automaton.transition.dead", ErrorCode::AutomatonTransitionDead},
        {"automaton.state.dead-end", ErrorCode::AutomatonStateDeadEnd},
        {"bridge.invalid", ErrorCode::BridgeInvalid},
        {"bridge.closure.missing", ErrorCode::BridgeClosureMissing},
        {"bridge.state.unknown", ErrorCode::BridgeStateUnknown},
        {"bridge.ref.message-not-stored", ErrorCode::BridgeRefNotStored},
        {"bridge.message.unknown", ErrorCode::BridgeMessageUnknown},
        {"bridge.field.unknown", ErrorCode::BridgeFieldUnknown},
        {"bridge.transform.unknown", ErrorCode::BridgeTransformUnknown},
        {"bridge.transform.mismatch", ErrorCode::BridgeTransformMismatch},
        {"bridge.equivalence.unknown", ErrorCode::BridgeEquivalenceUnknown},
        {"bridge.equivalence.uncovered", ErrorCode::BridgeEquivalenceUncovered},
        {"bridge.delta.missing", ErrorCode::BridgeDeltaMissing},
    };
    const auto it = kRuleCodes.find(rule);
    return it != kRuleCodes.end() ? it->second : ErrorCode::Unclassified;
}

Linter::Linter()
    : Linter(mdl::MarshallerRegistry::withDefaults(),
             merge::TranslationRegistry::withDefaults()) {}

Linter::Linter(std::shared_ptr<mdl::MarshallerRegistry> marshallers,
               std::shared_ptr<merge::TranslationRegistry> translations)
    : marshallers_(std::move(marshallers)), translations_(std::move(translations)) {}

void Linter::emit(Severity severity, const Source& source, const xml::Node* node,
                  std::string rule, std::string message) {
    const errc::ErrorCode code = codeForRule(rule);
    diagnostics_.push_back(
        {severity, source.path, lineOf(node), std::move(rule), std::move(message), code});
}

void Linter::addModel(const std::string& path, const std::string& xmlText) {
    auto source = std::make_unique<Source>();
    source->path = path;
    sources_.push_back(std::move(source));
    Source& src = *sources_.back();
    try {
        src.root = xml::parse(xmlText);
    } catch (const SpecError& e) {
        emit(Severity::Error, src, nullptr, "xml.parse", e.what());
        return;
    }
    const xml::Node& root = *src.root;
    if (root.name() == "Mdl") {
        MdlModel model;
        model.source = &src;
        try {
            model.doc = std::make_shared<mdl::MdlDocument>(mdl::MdlDocument::fromXml(root));
        } catch (const SpecError& e) {
            emit(Severity::Error, src, &root, "mdl.invalid", e.what());
            return;
        }
        mdls_.push_back(std::move(model));
    } else if (root.name() == "Automaton") {
        AutomatonModel model;
        model.source = &src;
        try {
            model.automaton = merge::loadAutomaton(root, colors_);
        } catch (const SpecError& e) {
            emit(Severity::Error, src, &root, "automaton.invalid", e.what());
            return;
        }
        automata_.push_back(std::move(model));
    } else if (root.name() == "Bridge") {
        bridges_.push_back({&src});
    } else {
        emit(Severity::Error, src, &root, "lint.unknown-kind",
             "root element <" + root.name() + "> is none of <Mdl>, <Automaton>, <Bridge>");
    }
}

std::vector<Diagnostic> Linter::run() {
    for (const MdlModel& model : mdls_) lintMdl(model);
    for (const AutomatonModel& model : automata_) lintAutomaton(model);
    for (const BridgeModel& model : bridges_) lintBridge(model);
    std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         if (a.file != b.file) return a.file < b.file;
                         if (a.line != b.line) return a.line < b.line;
                         return a.rule < b.rule;
                     });
    return diagnostics_;
}

const Linter::MdlModel* Linter::mdlDefining(const std::string& messageType) const {
    for (const MdlModel& model : mdls_) {
        if (model.doc->message(messageType) != nullptr) return &model;
    }
    return nullptr;
}

std::optional<ValueType> Linter::fieldValueType(const merge::FieldRef& ref) const {
    const MdlModel* model = mdlDefining(ref.messageType);
    if (model == nullptr) return std::nullopt;
    const mdl::MdlDocument& doc = *model->doc;
    const std::string label = firstSegment(ref.path);
    const mdl::FieldSpec* found = nullptr;
    for (const mdl::FieldSpec& f : doc.header().fields) {
        if (f.label == label) found = &f;
    }
    if (found == nullptr) {
        const mdl::MessageSpec* spec = doc.message(ref.messageType);
        for (const mdl::FieldSpec& f : spec->fields) {
            if (f.label == label) found = &f;
        }
    }
    if (found == nullptr) return std::nullopt;
    return marshallerValueType(doc.marshallerFor(*found));
}

void Linter::lintMdl(const MdlModel& model) {
    const mdl::MdlDocument& doc = *model.doc;
    const Source& src = *model.source;
    const xml::Node& root = *src.root;
    const std::string context = "MDL '" + doc.protocol() + "'";

    // 1. Every <Types> declaration must name a registered marshaller --
    //    anchored at the declaring element, not at whichever message first
    //    trips over it at plan-compile time.
    const xml::Node* typesNode = root.child("Types");
    bool marshallersResolve = true;
    for (const auto& [name, def] : doc.types()) {
        if (marshallers_->find(def.marshaller) != nullptr) continue;
        marshallersResolve = false;
        const xml::Node* where = typesNode == nullptr ? &root : typesNode->child(name);
        if (where == nullptr) where = typesNode;
        emit(Severity::Error, src, where, "mdl.marshaller.unknown",
             context + ": type '" + name + "' names marshaller '" + def.marshaller +
                 "', which is not registered");
    }

    // 2. The compiled plan must build: resolved field-length links, compose
    //    metadata, rule indexing. Skipped when (1) already failed -- compile
    //    would report the same marshaller again, without a line.
    if (marshallersResolve) {
        try {
            (void)mdl::CodecPlan::compile(doc, *marshallers_);
        } catch (const SpecError& e) {
            emit(Severity::Error, src, &root, "mdl.plan", e.what());
        }
    }

    // 3. Rule dispatch walks messages in document order: a duplicate
    //    (field, value) rule or a second rule-less fallback is dead weight
    //    the parser can never select.
    const auto messageNodes = root.childrenNamed("Message");
    std::map<std::pair<std::string, std::string>, std::string> seenRules;
    const mdl::MessageSpec* firstUnruled = nullptr;
    for (std::size_t i = 0; i < doc.messages().size(); ++i) {
        const mdl::MessageSpec& message = doc.messages()[i];
        const xml::Node* node = i < messageNodes.size() ? messageNodes[i] : &root;
        if (message.rule) {
            const auto key = std::make_pair(message.rule->field, message.rule->value);
            const auto [it, fresh] = seenRules.emplace(key, message.type);
            if (!fresh) {
                emit(Severity::Error, src, node, "mdl.rule.shadowed",
                     context + ": message '" + message.type + "' can never be selected: its "
                     "rule " + message.rule->field + "=" + message.rule->value +
                     " duplicates the rule of earlier message '" + it->second + "'");
            }
        } else if (firstUnruled != nullptr) {
            emit(Severity::Error, src, node, "mdl.rule.shadowed",
                 context + ": rule-less message '" + message.type + "' can never be selected: "
                 "dispatch falls back to the first rule-less message, '" + firstUnruled->type +
                 "'");
        } else {
            firstUnruled = &message;
        }
    }
}

void Linter::lintAutomaton(const AutomatonModel& model) {
    const ColoredAutomaton& automaton = *model.automaton;
    const Source& src = *model.source;
    const xml::Node& root = *src.root;
    const std::string context = "automaton '" + automaton.name() + "'";
    const auto transitionNodes = root.childrenNamed("Transition");
    const auto stateNodes = root.childrenNamed("State");
    const auto transitionNode = [&](std::size_t i) -> const xml::Node* {
        return i < transitionNodes.size() ? transitionNodes[i] : &root;
    };
    const auto stateNode = [&](const std::string& id) -> const xml::Node* {
        for (const xml::Node* node : stateNodes) {
            if (node->attribute("id").value_or("") == id) return node;
        }
        return &root;
    };
    const std::vector<Transition>& transitions = automaton.transitions();

    // 1. Every message type must be parseable/composable by some MDL in the
    //    lint set (skipped when the set has none -- a lone automaton can be
    //    linted structurally without its protocol definitions).
    if (!mdls_.empty()) {
        for (std::size_t i = 0; i < transitions.size(); ++i) {
            const Transition& t = transitions[i];
            if (mdlDefining(t.messageType) != nullptr) continue;
            emit(Severity::Error, src, transitionNode(i), "automaton.message.unknown",
                 context + ": transition " + t.from + " " + automata::actionSymbol(t.action) +
                     t.messageType + " -> " + t.to + " names a message type no MDL in the "
                     "lint set defines");
        }

        // 2. Receive fan-out the MDL dispatch cannot tell apart: two expected
        //    types from one document, neither carrying a <Rule>, means the
        //    parser always yields its first rule-less fallback and the other
        //    transition can never fire.
        std::map<std::string, std::vector<std::size_t>> receivesFrom;
        for (std::size_t i = 0; i < transitions.size(); ++i) {
            if (transitions[i].action == Action::Receive) {
                receivesFrom[transitions[i].from].push_back(i);
            }
        }
        for (const auto& [state, indices] : receivesFrom) {
            if (indices.size() < 2) continue;
            std::map<const MdlModel*, std::vector<std::size_t>> unruledByDoc;
            for (const std::size_t i : indices) {
                const MdlModel* doc = mdlDefining(transitions[i].messageType);
                if (doc == nullptr) continue;
                const mdl::MessageSpec* spec = doc->doc->message(transitions[i].messageType);
                if (spec != nullptr && !spec->rule) unruledByDoc[doc].push_back(i);
            }
            for (const auto& [doc, unruled] : unruledByDoc) {
                for (std::size_t k = 1; k < unruled.size(); ++k) {
                    emit(Severity::Error, src, transitionNode(unruled[k]),
                         "automaton.receive.ambiguous",
                         context + ": state '" + state + "' expects both '" +
                             transitions[unruled[0]].messageType + "' and '" +
                             transitions[unruled[k]].messageType + "', but neither carries a "
                             "<Rule> in MDL '" + doc->doc->protocol() + "' -- dispatch always "
                             "selects the first, so this transition can never fire");
                }
            }
        }
    }

    // 3. Transitions into states from which no accepting state is reachable:
    //    the conversation that takes one can never complete.
    std::set<std::string> reachesAccepting;
    for (const automata::State* state : automaton.states()) {
        if (state->accepting()) reachesAccepting.insert(state->id());
    }
    bool grew = true;
    while (grew) {
        grew = false;
        for (const Transition& t : transitions) {
            if (reachesAccepting.contains(t.to) && reachesAccepting.insert(t.from).second) {
                grew = true;
            }
        }
    }
    for (std::size_t i = 0; i < transitions.size(); ++i) {
        const Transition& t = transitions[i];
        if (reachesAccepting.contains(t.to)) continue;
        emit(Severity::Warning, src, transitionNode(i), "automaton.transition.dead",
             context + ": transition " + t.from + " " + automata::actionSymbol(t.action) +
                 t.messageType + " -> " + t.to + " is dead: no accepting state is reachable "
                 "from '" + t.to + "'");
    }

    // 4. Non-accepting states with no way out.
    for (const automata::State* state : automaton.states()) {
        if (state->accepting() || !automaton.transitionsFrom(state->id()).empty()) continue;
        emit(Severity::Warning, src, stateNode(state->id()), "automaton.state.dead-end",
             context + ": non-accepting state '" + state->id() +
                 "' has no outgoing transitions; a conversation reaching it can never leave");
    }
}

void Linter::lintBridge(const BridgeModel& model) {
    const Source& src = *model.source;
    const xml::Node& root = *src.root;

    // 0. Shape: loadBridge's DOM checks are component-independent, so parse
    //    once with no components to separate "the spec is malformed" from
    //    "the spec does not fit the automata".
    std::shared_ptr<merge::MergedAutomaton> shape;
    try {
        shape = merge::loadBridge(root, {});
    } catch (const SpecError& e) {
        emit(Severity::Error, src, &root, "bridge.invalid", e.what());
        return;
    }
    const std::string context = "bridge '" + shape->name() + "'";

    // DOM nodes index-aligned with the loader's parsed vectors.
    const xml::Node* startNode = root.child("Start");
    const auto acceptNodes = root.childrenNamed("Accept");
    const auto equivalenceNodes = root.childrenNamed("Equivalence");
    const auto deltaNodes = root.childrenNamed("DeltaTransition");
    const xml::Node* logicNode = root.child("TranslationLogic");
    const std::vector<const xml::Node*> assignmentNodes =
        logicNode == nullptr ? std::vector<const xml::Node*>{}
                             : logicNode->childrenNamed("Assignment");

    // 1. Gather every referenced state (with its first referencing element)
    //    and every field reference (with the element carrying it).
    std::vector<std::pair<std::string, const xml::Node*>> stateRefs;
    std::set<std::string> seenStates;
    const auto addStateRef = [&](const std::string& id, const xml::Node* node) {
        if (!id.empty() && seenStates.insert(id).second) stateRefs.emplace_back(id, node);
    };
    struct RefSite {
        const FieldRef* ref = nullptr;
        const xml::Node* node = nullptr;
        const std::string* transform = nullptr;  // transform applied at this site, if any
        bool transformProducesRef = false;       // ref is the transform's TARGET field
    };
    std::vector<RefSite> refSites;

    addStateRef(shape->initialState(), startNode == nullptr ? &root : startNode);
    for (const xml::Node* node : acceptNodes) {
        addStateRef(node->attribute("state").value_or(""), node);
    }
    for (std::size_t i = 0; i < shape->assignments().size(); ++i) {
        const merge::Assignment& assignment = shape->assignments()[i];
        const xml::Node* assignmentNode =
            i < assignmentNodes.size() ? assignmentNodes[i] : &root;
        const auto fieldNodes = assignmentNode->childrenNamed("Field");
        const xml::Node* targetNode = fieldNodes.empty() ? assignmentNode : fieldNodes[0];
        refSites.push_back({&assignment.target, targetNode, &assignment.transform, true});
        addStateRef(assignment.target.state, targetNode);
        if (assignment.source) {
            const xml::Node* sourceNode =
                fieldNodes.size() > 1 ? fieldNodes[1] : assignmentNode;
            refSites.push_back({&*assignment.source, sourceNode, nullptr, false});
            addStateRef(assignment.source->state, sourceNode);
        }
    }
    for (std::size_t i = 0; i < shape->deltas().size(); ++i) {
        const merge::DeltaTransition& delta = shape->deltas()[i];
        const xml::Node* deltaNode = i < deltaNodes.size() ? deltaNodes[i] : &root;
        addStateRef(delta.from, deltaNode);
        addStateRef(delta.to, deltaNode);
        const auto actionNodes = deltaNode->childrenNamed("Action");
        for (std::size_t j = 0; j < delta.actions.size(); ++j) {
            const xml::Node* actionNode = j < actionNodes.size() ? actionNodes[j] : deltaNode;
            const auto argNodes = actionNode->childrenNamed("Arg");
            for (std::size_t k = 0; k < delta.actions[j].args.size(); ++k) {
                const merge::NetworkAction::Arg& arg = delta.actions[j].args[k];
                const xml::Node* argNode = k < argNodes.size() ? argNodes[k] : actionNode;
                refSites.push_back({&arg.ref, argNode, &arg.transform, false});
                addStateRef(arg.ref.state, argNode);
            }
        }
    }

    // 2. The closure must contain automata, and every referenced state must
    //    exist in one of them.
    if (automata_.empty()) {
        emit(Severity::Error, src, &root, "bridge.closure.missing",
             context + ": no automaton models in the lint set; its state references "
             "cannot be resolved");
        return;
    }
    bool allStatesKnown = true;
    for (const auto& [id, node] : stateRefs) {
        const bool known =
            std::any_of(automata_.begin(), automata_.end(), [&id](const AutomatonModel& m) {
                return m.automaton->state(id) != nullptr;
            });
        if (!known) {
            allStatesKnown = false;
            emit(Severity::Error, src, node, "bridge.state.unknown",
                 context + ": state '" + id +
                     "' is not defined by any automaton in the lint set");
        }
    }

    // 3. Role resolution. Client and server automata of one protocol share
    //    state ids, so enumerate the combinations of the involved automata
    //    and keep the one satisfying the most merge-constraint forms.
    std::vector<std::string> names;
    std::map<std::string, std::vector<const AutomatonModel*>> byName;
    for (const AutomatonModel& m : automata_) {
        const bool involved =
            std::any_of(stateRefs.begin(), stateRefs.end(), [&m](const auto& ref) {
                return m.automaton->state(ref.first) != nullptr;
            });
        if (!involved) continue;
        auto& list = byName[m.automaton->name()];
        if (list.empty()) names.push_back(m.automaton->name());
        list.push_back(&m);
    }
    if (names.empty()) return;  // nothing resolvable; state errors already reported

    std::size_t comboCount = 1;
    for (const std::string& name : names) {
        comboCount *= byName[name].size();
        if (comboCount > 64) {
            comboCount = 64;
            break;
        }
    }
    std::shared_ptr<merge::MergedAutomaton> best;
    int bestScore = -1;
    std::string bestError;
    for (std::size_t combo = 0; combo < comboCount; ++combo) {
        // Components do not change what loadBridge parses, so each candidate
        // is the step-0 shape plus one role assignment, not a re-parse.
        auto merged = std::make_shared<merge::MergedAutomaton>(*shape);
        std::size_t rest = combo;
        for (const std::string& name : names) {
            const auto& list = byName[name];
            merged->addComponent(list[rest % list.size()]->automaton);
            rest /= list.size();
        }
        int score = 0;
        for (const merge::DeltaTransition& delta : merged->deltas()) {
            if (deltaSatisfiesForm(*merged, delta)) ++score;
        }
        std::string error;
        try {
            merged->validate();
            score += 1000;
        } catch (const SpecError& e) {
            error = e.what();
        }
        if (score > bestScore) {
            bestScore = score;
            best = std::move(merged);
            bestError = error;
        }
    }
    if (best == nullptr) return;
    const bool valid = bestError.empty();
    if (!valid && allStatesKnown) {
        emit(Severity::Error, src, &root, "bridge.invalid",
             context + ": no client/server role assignment of {" + join(names, ", ") +
                 "} satisfies the merge constraints; best candidate failed: " + bestError);
    }

    // 4. Equivalences: real message types, and eqn (1) coverage -- every
    //    mandatory field of an equivalent message produced by an assignment.
    if (!mdls_.empty()) {
        const auto equivalenceNode = [&](std::size_t i) -> const xml::Node* {
            return i < equivalenceNodes.size() ? equivalenceNodes[i] : &root;
        };
        for (std::size_t i = 0; i < best->equivalences().size(); ++i) {
            const merge::EquivalenceDecl& equivalence = best->equivalences()[i];
            const auto checkMessage = [&](const std::string& type) {
                if (mdlDefining(type) != nullptr) return;
                emit(Severity::Error, src, equivalenceNode(i), "bridge.equivalence.unknown",
                     context + ": equivalence references message type '" + type +
                         "', which no MDL in the lint set defines");
            };
            checkMessage(equivalence.lhs);
            for (const std::string& rhs : equivalence.rhs) checkMessage(rhs);
        }
        const std::vector<std::string> uncovered =
            best->checkEquivalences([this](const std::string& type) {
                const MdlModel* m = mdlDefining(type);
                return m == nullptr ? std::vector<std::string>{}
                                    : m->doc->mandatoryFields(type);
            });
        for (const std::string& entry : uncovered) {
            const std::string lhs = firstSegment(entry);
            const xml::Node* node = &root;
            for (std::size_t i = 0; i < best->equivalences().size(); ++i) {
                if (best->equivalences()[i].lhs == lhs) {
                    node = equivalenceNode(i);
                    break;
                }
            }
            emit(Severity::Error, src, node, "bridge.equivalence.uncovered",
                 context + ": mandatory field '" + entry + "' of an equivalent message has "
                 "no assignment producing it, so semantic equivalence (eqn 1) cannot hold");
        }
    }

    // 5. Field references: each (state, message, field) triple must resolve
    //    against the automata (an instance is actually stored there) and the
    //    MDL schema (the field exists); transforms must be registered and
    //    type-compatible with the field they produce.
    for (const RefSite& site : refSites) {
        const FieldRef& ref = *site.ref;
        const ColoredAutomaton* owner = best->automatonOf(ref.state);
        if (owner != nullptr && !messageStoredAt(*owner, ref.state, ref.messageType)) {
            emit(Severity::Error, src, site.node, "bridge.ref.message-not-stored",
                 context + ": no instance of '" + ref.messageType + "' is ever stored at "
                 "state '" + ref.state + "' of automaton '" + owner->name() +
                     "': no receive transition enters it and no send transition leaves it "
                     "carrying that type");
        }
        const MdlModel* doc = mdls_.empty() ? nullptr : mdlDefining(ref.messageType);
        if (!mdls_.empty()) {
            if (doc == nullptr) {
                emit(Severity::Error, src, site.node, "bridge.message.unknown",
                     context + ": message type '" + ref.messageType +
                         "' is not defined by any MDL in the lint set");
            } else if (!hasOpenFieldSchema(*doc->doc)) {
                const std::string label = firstSegment(ref.path);
                const mdl::MdlDocument& d = *doc->doc;
                const mdl::MessageSpec* spec = d.message(ref.messageType);
                bool known = std::any_of(d.header().fields.begin(), d.header().fields.end(),
                                         [&](const mdl::FieldSpec& f) { return f.label == label; });
                known = known || (spec != nullptr &&
                                  std::any_of(spec->fields.begin(), spec->fields.end(),
                                              [&](const mdl::FieldSpec& f) {
                                                  return f.label == label;
                                              }));
                if (!known) {
                    emit(Severity::Error, src, site.node, "bridge.field.unknown",
                         context + ": message '" + ref.messageType + "' (MDL '" +
                             d.protocol() + "') declares no field '" + label + "'");
                }
            }
        }
        if (site.transform == nullptr || site.transform->empty()) continue;
        const std::string& transform = *site.transform;
        if (!translations_->contains(transform)) {
            emit(Severity::Error, src, site.node, "bridge.transform.unknown",
                 context + ": unknown translation function '" + transform + "'" +
                     didYouMean(transform, translations_->names()));
            continue;
        }
        if (!site.transformProducesRef) continue;
        const merge::TransformSignature* signature = translations_->signature(transform);
        if (signature == nullptr || !signature->output) continue;
        const std::optional<ValueType> targetType = fieldValueType(ref);
        if (targetType && *targetType != *signature->output) {
            emit(Severity::Warning, src, site.node, "bridge.transform.mismatch",
                 context + ": transform '" + transform + "' produces a " +
                     valueTypeName(*signature->output) + " value, but target field " +
                     ref.toString() + " is declared " + valueTypeName(*targetType) +
                     " by its MDL");
        }
    }

    // 6. Stranded conversations: a reachable state that ends its component's
    //    run (accepting there, or no way onward) must either accept the
    //    whole merge or hand over through a delta-transition.
    if (valid) {
        std::set<std::string> reachable{best->initialState()};
        bool extended = true;
        while (extended) {
            extended = false;
            for (const auto& component : best->components()) {
                for (const Transition& t : component->transitions()) {
                    if (reachable.contains(t.from) && reachable.insert(t.to).second) {
                        extended = true;
                    }
                }
            }
            for (const merge::DeltaTransition& delta : best->deltas()) {
                if (reachable.contains(delta.from) && reachable.insert(delta.to).second) {
                    extended = true;
                }
            }
        }
        for (const std::string& state : reachable) {
            if (best->acceptingStates().contains(state)) continue;
            const ColoredAutomaton* owner = best->automatonOf(state);
            if (owner == nullptr) continue;
            const bool terminal = owner->state(state)->accepting() ||
                                  owner->transitionsFrom(state).empty();
            if (terminal && best->deltaFrom(state) == nullptr) {
                emit(Severity::Error, src, startNode == nullptr ? &root : startNode,
                     "bridge.delta.missing",
                     context + ": the conversation can reach state '" + state +
                         "' and stop there: it ends automaton '" + owner->name() +
                         "''s run, but it is not an accepting state of the merge and no "
                         "delta-transition leaves it");
            }
        }
    }
}

}  // namespace starlink::lint
