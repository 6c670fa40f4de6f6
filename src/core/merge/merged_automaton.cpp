#include "core/merge/merged_automaton.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace starlink::merge {

using automata::Action;
using automata::ColoredAutomaton;
using automata::Transition;

void MergedAutomaton::addComponent(std::shared_ptr<ColoredAutomaton> component) {
    components_.push_back(std::move(component));
}

void MergedAutomaton::setInitial(const std::string& stateId) { initial_ = stateId; }

void MergedAutomaton::addAccepting(const std::string& stateId) { accepting_.insert(stateId); }

void MergedAutomaton::addDelta(DeltaTransition delta) { deltas_.push_back(std::move(delta)); }

void MergedAutomaton::addEquivalence(EquivalenceDecl equivalence) {
    equivalences_.push_back(std::move(equivalence));
}

void MergedAutomaton::addAssignment(Assignment assignment) {
    assignments_.push_back(std::move(assignment));
}

ColoredAutomaton* MergedAutomaton::component(const std::string& name) {
    for (const auto& c : components_) {
        if (c->name() == name) return c.get();
    }
    return nullptr;
}

const ColoredAutomaton* MergedAutomaton::component(const std::string& name) const {
    for (const auto& c : components_) {
        if (c->name() == name) return c.get();
    }
    return nullptr;
}

const ColoredAutomaton* MergedAutomaton::automatonOf(const std::string& stateId) const {
    for (const auto& c : components_) {
        if (c->state(stateId) != nullptr) return c.get();
    }
    return nullptr;
}

ColoredAutomaton* MergedAutomaton::automatonOf(const std::string& stateId) {
    for (const auto& c : components_) {
        if (c->state(stateId) != nullptr) return c.get();
    }
    return nullptr;
}

const DeltaTransition* MergedAutomaton::deltaFrom(const std::string& stateId) const {
    for (const DeltaTransition& d : deltas_) {
        if (d.from == stateId) return &d;
    }
    return nullptr;
}

std::vector<const Assignment*> MergedAutomaton::assignmentsTargeting(
    const std::string& stateId, const std::string& messageType) const {
    std::vector<const Assignment*> out;
    for (const Assignment& a : assignments_) {
        if (a.target.state == stateId && a.target.messageType == messageType) out.push_back(&a);
    }
    return out;
}

const EquivalenceDecl* MergedAutomaton::equivalenceFor(const std::string& messageType) const {
    for (const EquivalenceDecl& e : equivalences_) {
        if (e.lhs == messageType) return &e;
    }
    return nullptr;
}

void MergedAutomaton::validate() const {
    if (components_.empty()) throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': no component automata");
    std::set<std::string> allStates;
    for (const auto& c : components_) {
        c->validate();
        for (const automata::State* s : c->states()) {
            if (!allStates.insert(s->id()).second) {
                throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': state id '" + s->id() +
                                "' appears in more than one component");
            }
        }
    }
    if (initial_.empty() || automatonOf(initial_) == nullptr) {
        throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': initial state missing or unknown");
    }
    if (accepting_.empty()) throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': no accepting states");
    for (const std::string& f : accepting_) {
        if (automatonOf(f) == nullptr) {
            throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': accepting state '" + f + "' unknown");
        }
    }

    auto hasIncomingReceive = [](const ColoredAutomaton& a, const std::string& state) {
        for (const Transition& t : a.transitions()) {
            if (t.to == state && t.action == Action::Receive) return true;
        }
        return false;
    };
    auto hasOutgoingSend = [](const ColoredAutomaton& a, const std::string& state) {
        for (const Transition& t : a.transitions()) {
            if (t.from == state && t.action == Action::Send) return true;
        }
        return false;
    };
    auto hasOutgoingReceive = [](const ColoredAutomaton& a, const std::string& state) {
        for (const Transition& t : a.transitions()) {
            if (t.from == state && t.action == Action::Receive) return true;
        }
        return false;
    };

    std::set<std::string> deltaSources;
    for (const DeltaTransition& d : deltas_) {
        const ColoredAutomaton* fromA = automatonOf(d.from);
        const ColoredAutomaton* toA = automatonOf(d.to);
        if (fromA == nullptr || toA == nullptr) {
            throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': delta " + d.from + " -> " + d.to +
                            " references an unknown state");
        }
        if (fromA == toA) {
            throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': delta " + d.from + " -> " + d.to +
                            " stays inside automaton '" + fromA->name() +
                            "'; delta-transitions must cross automata");
        }
        if (!deltaSources.insert(d.from).second) {
            throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ + "': two delta-transitions leave state '" +
                            d.from + "'");
        }

        // Merge-constraint forms (i) / (ii) of eqns (2)-(3).
        const bool formI = toA->initialState() == d.to && hasOutgoingSend(*toA, d.to) &&
                           (hasIncomingReceive(*fromA, d.from) || d.from == initial_);
        const bool formII = fromA->state(d.from)->accepting() &&
                            hasIncomingReceive(*fromA, d.from) && hasOutgoingSend(*toA, d.to);
        // Form (iii): the server-side dual of form (i) -- after completing a
        // reply (final state entered by a send), hand over to another
        // protocol the bridge is impersonating the SERVICE side of, entering
        // its initial receive state. The paper's UPnP-as-client cases (its
        // section V lists "UPnP to SLP and Bonjour") need this shape: the
        // bridge answers SSDP, then must await the control point's HTTP GET.
        const bool formIII = fromA->state(d.from)->accepting() &&
                             toA->initialState() == d.to && hasOutgoingReceive(*toA, d.to);
        if (!formI && !formII && !formIII) {
            throw SpecError(errc::ErrorCode::MergeInvalid,
                        
                "merge '" + name_ + "': delta " + d.from + " -> " + d.to +
                " satisfies no merge-constraint form: it must enter the target automaton's "
                "initial state towards a send after a receive (form i), leave a final state "
                "after a receive towards a send (form ii), or leave a final state after a "
                "reply into another served protocol's initial receive state (form iii)");
        }
    }

    // Reachability of an accepting state over -> union delta.
    std::set<std::string> reachable{initial_};
    bool grew = true;
    while (grew) {
        grew = false;
        for (const auto& c : components_) {
            for (const Transition& t : c->transitions()) {
                if (reachable.contains(t.from) && reachable.insert(t.to).second) grew = true;
            }
        }
        for (const DeltaTransition& d : deltas_) {
            if (reachable.contains(d.from) && reachable.insert(d.to).second) grew = true;
        }
    }
    const bool acceptingReachable =
        std::any_of(accepting_.begin(), accepting_.end(),
                    [&reachable](const std::string& f) { return reachable.contains(f); });
    if (!acceptingReachable) {
        throw SpecError(errc::ErrorCode::MergeInvalid,
                        "merge '" + name_ +
                        "': no accepting state is reachable from the initial state");
    }
}

std::vector<std::string> MergedAutomaton::checkEquivalences(
    const std::function<std::vector<std::string>(const std::string&)>& mandatoryFields) const {
    std::vector<std::string> uncovered;
    for (const EquivalenceDecl& equivalence : equivalences_) {
        for (const std::string& field : mandatoryFields(equivalence.lhs)) {
            const bool covered = std::any_of(
                assignments_.begin(), assignments_.end(), [&](const Assignment& a) {
                    if (a.target.messageType != equivalence.lhs) return false;
                    // The assignment covers the field itself or a sub-field
                    // of a structured field.
                    return a.target.path == field ||
                           a.target.path.rfind(field + ".", 0) == 0;
                });
            if (!covered) uncovered.push_back(equivalence.lhs + "." + field);
        }
    }
    return uncovered;
}

std::vector<std::string> MergedAutomaton::unknownTransforms(
    const TranslationRegistry& registry) const {
    std::vector<std::string> out;
    const auto check = [&registry, &out](const std::string& name, const std::string& where) {
        if (!name.empty() && !registry.contains(name)) {
            out.push_back("'" + name + "' (" + where + ")");
        }
    };
    for (const Assignment& a : assignments_) {
        check(a.transform, "assignment targeting " + a.target.toString());
    }
    for (const DeltaTransition& d : deltas_) {
        for (const NetworkAction& action : d.actions) {
            for (const NetworkAction::Arg& arg : action.args) {
                check(arg.transform,
                      "delta " + d.from + " -> " + d.to + " action " + action.name);
            }
        }
    }
    return out;
}

MergeKind MergedAutomaton::classify() const {
    // Strong: every delta that ENTERS an automaton B from A (form i) is
    // matched by a delta returning from B directly to A.
    for (const DeltaTransition& enter : deltas_) {
        const ColoredAutomaton* fromA = automatonOf(enter.from);
        const ColoredAutomaton* toA = automatonOf(enter.to);
        if (toA->initialState() != enter.to) continue;  // not an entering delta
        const bool returned =
            std::any_of(deltas_.begin(), deltas_.end(), [&](const DeltaTransition& back) {
                return automatonOf(back.from) == toA && automatonOf(back.to) == fromA;
            });
        if (!returned) return MergeKind::Weak;
    }
    return MergeKind::Strong;
}

}  // namespace starlink::merge
