// k-colored automata (paper section III-B).
//
//   Ak = (Q, M, q0, F, Act, ->, =>)
//
// Q are states, M abstract message types, Act = {?, !} with ? receive and
// ! send, -> the transition relation, and => the history operator. The
// history operator is not kept as a runtime structure: the per-state
// instance queues of each engine session hold the instances translation
// logic reads, and the flight recorder's Transition events hold the path
// when recording is on. Each state carries the color k of the network
// semantics in force while the automaton sits in it; the k-colored invariant
// (all states of a component share one color, and transitions never cross
// colors -- only delta-transitions of a merged automaton may) is enforced by
// validate().
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/automata/color.hpp"
#include "core/message/abstract_message.hpp"

namespace starlink::automata {

enum class Action { Send, Receive };

inline const char* actionSymbol(Action a) { return a == Action::Send ? "!" : "?"; }

struct Transition {
    std::string from;
    std::string to;
    Action action = Action::Receive;
    std::string messageType;
};

/// One automaton state.
class State {
public:
    State(std::string id, std::uint64_t color, bool accepting)
        : id_(std::move(id)), color_(color), accepting_(accepting) {}

    const std::string& id() const { return id_; }
    std::uint64_t color() const { return color_; }
    bool accepting() const { return accepting_; }
    void setAccepting(bool accepting) { accepting_ = accepting; }

private:
    std::string id_;
    std::uint64_t color_;
    bool accepting_;
};

/// The message INSTANCES one state has seen during one conversation ("each
/// state maintains a queue to store both incoming and outgoing message
/// instances"), which is what translation logic addresses with s.m.field.
/// Runtime data: the automata engine keeps one queue per state per live
/// session, so automata stay read-only while bridges run.
class InstanceQueue {
public:
    void push(AbstractMessage message) { queue_.push_back(std::move(message)); }

    /// Latest stored instance of the given type (s.m in the paper), nullptr
    /// when none.
    const AbstractMessage* latest(const std::string& type) const;

    /// All stored instances in arrival order (s.m-vector).
    const std::vector<AbstractMessage>& all() const { return queue_; }

    /// Empties the queue, keeping its capacity for the next conversation.
    void clear() { queue_.clear(); }

private:
    std::vector<AbstractMessage> queue_;
};

class ColoredAutomaton {
public:
    explicit ColoredAutomaton(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /// Adds a state colored with `color` (registered through `registry` so
    /// that k is consistent across every automaton sharing the registry).
    State& addState(const std::string& id, const Color& color, ColorRegistry& registry,
                    bool accepting = false);

    void setInitial(const std::string& id);
    const std::string& initialState() const { return initial_; }

    void addTransition(const std::string& from, Action action, const std::string& messageType,
                       const std::string& to);

    // -- lookup ---------------------------------------------------------------
    const State* state(const std::string& id) const;
    State* state(const std::string& id);
    std::vector<const State*> states() const;
    std::vector<std::string> acceptingStates() const;
    const std::vector<Transition>& transitions() const { return transitions_; }

    /// Transitions leaving `from`. Served from a per-state dispatch index
    /// built lazily after the last addTransition; the reference stays valid
    /// until the automaton is mutated.
    const std::vector<const Transition*>& transitionsFrom(const std::string& from) const;

    /// The unique transition leaving `from` on (action, messageType), or
    /// nullptr.
    const Transition* transitionFor(const std::string& from, Action action,
                                    const std::string& messageType) const;

    /// The color shared by this automaton's states (k in Ak). Meaningful
    /// after validate().
    std::uint64_t color() const;

    /// Checks the k-colored automaton invariants; throws SpecError:
    ///  - an initial state is set and exists,
    ///  - at least one accepting state exists,
    ///  - every transition endpoint exists,
    ///  - transitions connect same-colored states only,
    ///  - all states share one color (single-protocol automaton),
    ///  - every state is reachable from q0,
    ///  - no state has two outgoing transitions on the same (action, type).
    void validate() const;

private:
    /// (Re)builds the per-state dispatch index when dirty. Engines query the
    /// automaton far more often than builders mutate it, so the index is
    /// rebuilt at most once per burst of addTransition calls; Transition
    /// pointers in the index stay valid until the next mutation.
    void rebuildDispatchIndex() const;

    std::string name_;
    std::string initial_;
    std::map<std::string, State> states_;
    std::vector<std::string> stateOrder_;
    std::vector<Transition> transitions_;

    // Lazily-built dispatch index: state id -> transitions leaving it, in
    // insertion order (so indexed dispatch preserves linear-scan semantics).
    mutable std::unordered_map<std::string, std::vector<const Transition*>> fromIndex_;
    mutable bool indexDirty_ = true;
};

}  // namespace starlink::automata
