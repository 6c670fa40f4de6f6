// Merged automata (paper section III-C).
//
// A merged automaton A{k1..kn} combines the k-colored automata of n
// protocols with delta-transitions: silent moves between automata that
// exchange no message but may run lambda network actions (e.g. set_host) and
// mark where translation logic applies. The merge constraints of eqns (2)
// and (3) are checked structurally by validate():
//
//   form (i):  s1x --?m--> s1i --delta--> s20 (initial of A2) --!n--> ...
//              with n |= the received history -- enter a protocol after a
//              receive, through its initial state, towards a send;
//
//   form (ii): s2x --?n--> s2n (final of A2) --delta--> s1y --!m--> ...
//              with m |= the received history -- leave a protocol from a
//              final state after a receive, towards a send in the earlier
//              automaton.
//
// The weak-merge condition of eqn (4) -- the delta-transitions chain the
// automata along one directed path that starts and ends in the same
// automaton -- is what classify() reports; a merge is STRONG when every
// entered automaton also delta-returns directly to the automaton that
// entered it (pairwise mergeable), WEAK otherwise (the Fig 4 SLP/SSDP/HTTP
// chain is weak: SSDP hands over to HTTP, which returns to SLP).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/automata/colored_automaton.hpp"
#include "core/merge/translation.hpp"

namespace starlink::merge {

/// A delta-transition between two component automata.
struct DeltaTransition {
    std::string from;  // state id in one component
    std::string to;    // state id in a different component
    std::vector<NetworkAction> actions;  // the {lambda} sequence
};

/// Declares n |= <m1...mk>: message type `lhs` is semantically equivalent to
/// the sequence of message types `rhs` (paper eqn 1).
struct EquivalenceDecl {
    std::string lhs;
    std::vector<std::string> rhs;
};

enum class MergeKind { Strong, Weak };

class MergedAutomaton {
public:
    explicit MergedAutomaton(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    // -- construction ---------------------------------------------------------
    void addComponent(std::shared_ptr<automata::ColoredAutomaton> component);
    void setInitial(const std::string& stateId);
    void addAccepting(const std::string& stateId);
    void addDelta(DeltaTransition delta);
    void addEquivalence(EquivalenceDecl equivalence);
    void addAssignment(Assignment assignment);

    // -- lookup ----------------------------------------------------------------
    const std::vector<std::shared_ptr<automata::ColoredAutomaton>>& components() const {
        return components_;
    }
    automata::ColoredAutomaton* component(const std::string& name);
    const automata::ColoredAutomaton* component(const std::string& name) const;

    /// The component automaton owning a state id (ids are unique across the
    /// merge; validate() enforces it). nullptr when unknown.
    const automata::ColoredAutomaton* automatonOf(const std::string& stateId) const;
    automata::ColoredAutomaton* automatonOf(const std::string& stateId);

    const std::string& initialState() const { return initial_; }
    const std::set<std::string>& acceptingStates() const { return accepting_; }
    const std::vector<DeltaTransition>& deltas() const { return deltas_; }
    const std::vector<EquivalenceDecl>& equivalences() const { return equivalences_; }
    const std::vector<Assignment>& assignments() const { return assignments_; }

    const DeltaTransition* deltaFrom(const std::string& stateId) const;

    /// Assignments whose target is (state, messageType) -- what the engine
    /// executes when composing that message at that state.
    std::vector<const Assignment*> assignmentsTargeting(const std::string& stateId,
                                                        const std::string& messageType) const;

    /// The declared equivalence n |= m-vector for a message type, if any.
    const EquivalenceDecl* equivalenceFor(const std::string& messageType) const;

    // -- validation --------------------------------------------------------------
    /// Structural validation (throws SpecError): components individually
    /// valid, unique state ids, q0/F set and known, every delta crosses
    /// automata and satisfies merge-constraint form (i) or (ii), and an
    /// accepting state is reachable from q0 through -> and delta edges.
    void validate() const;

    /// Checks eqn (1) statically: for every equivalence n |= m-vector, every
    /// mandatory field of n (per `mandatoryFields`, typically backed by the
    /// protocol MDLs) must be covered by an assignment targeting n. Returns
    /// the list of uncovered "type.field" names (empty == equivalent).
    std::vector<std::string> checkEquivalences(
        const std::function<std::vector<std::string>(const std::string&)>& mandatoryFields) const;

    /// Translation-function names the registry does not know, one entry per
    /// offending assignment / delta-action argument (with a description of
    /// where it is used). Deployment fails on any -- a typo'd transform must
    /// surface at deploy time as a named-transform SpecError, not mid-session
    /// as a misleading "translation rejected value".
    std::vector<std::string> unknownTransforms(const TranslationRegistry& registry) const;

    /// Strong vs weak merge (see file header).
    MergeKind classify() const;

private:
    std::string name_;
    std::vector<std::shared_ptr<automata::ColoredAutomaton>> components_;
    std::string initial_;
    std::set<std::string> accepting_;
    std::vector<DeltaTransition> deltas_;
    std::vector<EquivalenceDecl> equivalences_;
    std::vector<Assignment> assignments_;
};

}  // namespace starlink::merge
