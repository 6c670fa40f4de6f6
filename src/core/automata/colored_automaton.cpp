#include "core/automata/colored_automaton.hpp"

#include <set>

#include "common/error.hpp"

namespace starlink::automata {

const AbstractMessage* InstanceQueue::latest(const std::string& type) const {
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
        if (it->type() == type) return &*it;
    }
    return nullptr;
}

State& ColoredAutomaton::addState(const std::string& id, const Color& color,
                                  ColorRegistry& registry, bool accepting) {
    if (states_.contains(id)) {
        throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': duplicate state '" + id + "'");
    }
    const std::uint64_t k = registry.colorOf(color);
    auto [it, inserted] = states_.emplace(id, State(id, k, accepting));
    stateOrder_.push_back(id);
    return it->second;
}

void ColoredAutomaton::setInitial(const std::string& id) {
    if (!states_.contains(id)) {
        throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': initial state '" + id + "' unknown");
    }
    initial_ = id;
}

void ColoredAutomaton::addTransition(const std::string& from, Action action,
                                     const std::string& messageType, const std::string& to) {
    transitions_.push_back(Transition{from, to, action, messageType});
    indexDirty_ = true;  // pointers into transitions_ may have moved
}

void ColoredAutomaton::rebuildDispatchIndex() const {
    fromIndex_.clear();
    fromIndex_.reserve(states_.size());
    for (const Transition& t : transitions_) fromIndex_[t.from].push_back(&t);
    indexDirty_ = false;
}

const State* ColoredAutomaton::state(const std::string& id) const {
    const auto it = states_.find(id);
    return it == states_.end() ? nullptr : &it->second;
}

State* ColoredAutomaton::state(const std::string& id) {
    const auto it = states_.find(id);
    return it == states_.end() ? nullptr : &it->second;
}

std::vector<const State*> ColoredAutomaton::states() const {
    std::vector<const State*> out;
    out.reserve(stateOrder_.size());
    for (const std::string& id : stateOrder_) out.push_back(&states_.at(id));
    return out;
}

std::vector<std::string> ColoredAutomaton::acceptingStates() const {
    std::vector<std::string> out;
    for (const std::string& id : stateOrder_) {
        if (states_.at(id).accepting()) out.push_back(id);
    }
    return out;
}

const std::vector<const Transition*>& ColoredAutomaton::transitionsFrom(
    const std::string& from) const {
    static const std::vector<const Transition*> kEmpty;
    if (indexDirty_) rebuildDispatchIndex();
    const auto it = fromIndex_.find(from);
    return it == fromIndex_.end() ? kEmpty : it->second;
}

const Transition* ColoredAutomaton::transitionFor(const std::string& from, Action action,
                                                  const std::string& messageType) const {
    // Validated automata are deterministic per (from, action, type), so the
    // per-state candidate list is short; one hash probe replaces the scan of
    // every transition in the automaton.
    for (const Transition* t : transitionsFrom(from)) {
        if (t->action == action && t->messageType == messageType) return t;
    }
    return nullptr;
}

std::uint64_t ColoredAutomaton::color() const {
    if (states_.empty()) throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': no states");
    return states_.begin()->second.color();
}

void ColoredAutomaton::validate() const {
    if (initial_.empty()) {
        throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': no initial state");
    }
    if (acceptingStates().empty()) {
        throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': no accepting state");
    }

    // Single color across states (one protocol, one k).
    const std::uint64_t k = color();
    for (const auto& [id, state] : states_) {
        if (state.color() != k) {
            throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': state '" + id +
                            "' has a different color; single-protocol automata are k-colored "
                            "with one k (cross-color moves require a merged automaton's "
                            "delta-transition)");
        }
    }

    std::set<std::pair<std::string, std::pair<Action, std::string>>> seen;
    for (const Transition& t : transitions_) {
        if (!states_.contains(t.from) || !states_.contains(t.to)) {
            throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': transition " + t.from + " " +
                            actionSymbol(t.action) + t.messageType + " -> " + t.to +
                            " references an unknown state");
        }
        if (!seen.insert({t.from, {t.action, t.messageType}}).second) {
            throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': nondeterministic transitions from '" +
                            t.from + "' on " + actionSymbol(t.action) + t.messageType);
        }
    }

    // Reachability from q0.
    std::set<std::string> reachable{initial_};
    bool grew = true;
    while (grew) {
        grew = false;
        for (const Transition& t : transitions_) {
            if (reachable.contains(t.from) && reachable.insert(t.to).second) grew = true;
        }
    }
    for (const auto& [id, state] : states_) {
        if (!reachable.contains(id)) {
            throw SpecError(errc::ErrorCode::AutomatonInvalid,
                        "automaton '" + name_ + "': state '" + id +
                            "' is unreachable from the initial state");
        }
    }
}

}  // namespace starlink::automata
