// Unit tests for k-colored automata: colors and the perfect hash f, state
// queues, transitions and validation (paper section III-B, experiment E4).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/automata/colored_automaton.hpp"

namespace starlink::automata {
namespace {

Color slpColor() {
    return Color{{keys::transport, "udp"},
                 {keys::port, "427"},
                 {keys::mode, "async"},
                 {keys::multicast, "yes"},
                 {keys::group, "239.255.255.253"}};
}

Color ssdpColor() {
    return Color{{keys::transport, "udp"},
                 {keys::port, "1900"},
                 {keys::mode, "async"},
                 {keys::multicast, "yes"},
                 {keys::group, "239.255.255.250"}};
}

TEST(Color, CanonicalKeyIsOrderIndependent) {
    Color a;
    a.set("port", "427");
    a.set("transport_protocol", "udp");
    Color b;
    b.set("transport_protocol", "udp");
    b.set("port", "427");
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
    EXPECT_EQ(a, b);
}

TEST(Color, SetReplacesValue) {
    Color c;
    c.set("port", "427");
    c.set("port", "1900");
    EXPECT_EQ(c.get("port"), "1900");
    EXPECT_EQ(c.entries().size(), 1u);
}

TEST(Color, TypedAccessors) {
    const Color c = slpColor();
    EXPECT_EQ(c.transport(), "udp");
    EXPECT_EQ(c.port(), 427);
    EXPECT_TRUE(c.isMulticast());
    EXPECT_FALSE(c.isSync());
    EXPECT_EQ(c.group(), "239.255.255.253");
}

TEST(Color, BadPortIsNullopt) {
    Color c;
    c.set(keys::port, "99999");
    EXPECT_FALSE(c.port());
    c.set(keys::port, "abc");
    EXPECT_FALSE(c.port());
}

TEST(ColorRegistry, EqualColorsShareK) {
    ColorRegistry registry;
    EXPECT_EQ(registry.colorOf(slpColor()), registry.colorOf(slpColor()));
}

TEST(ColorRegistry, DistinctColorsGetDistinctK) {
    ColorRegistry registry;
    EXPECT_NE(registry.colorOf(slpColor()), registry.colorOf(ssdpColor()));
}

TEST(ColorRegistry, LookupReturnsDescriptor) {
    ColorRegistry registry;
    const std::uint64_t k = registry.colorOf(slpColor());
    const Color* color = registry.lookup(k);
    ASSERT_NE(color, nullptr);
    EXPECT_EQ(*color, slpColor());
    EXPECT_EQ(registry.lookup(k + 1), nullptr);
}

TEST(ColorRegistry, PerfectHashPropertySweep) {
    // f must be injective over many random tuple lists (paper: "a perfect
    // hash function... without collisions").
    ColorRegistry registry;
    Rng rng(5);
    std::map<std::uint64_t, std::string> seen;
    for (int i = 0; i < 2000; ++i) {
        Color c;
        c.set("port", std::to_string(rng.range(1, 65535)));
        c.set("transport_protocol", rng.chance(0.5) ? "udp" : "tcp");
        c.set("salt", std::to_string(rng.range(0, 1 << 20)));
        const std::uint64_t k = registry.colorOf(c);
        const auto [it, inserted] = seen.emplace(k, c.canonicalKey());
        if (!inserted) {
            EXPECT_EQ(it->second, c.canonicalKey());  // same k => same descriptor
        }
    }
}

// --- automaton ----------------------------------------------------------------

class AutomatonTest : public ::testing::Test {
protected:
    ColorRegistry registry;

    ColoredAutomaton makeSlpServer() {
        ColoredAutomaton automaton("SLP");
        automaton.addState("s10", slpColor(), registry);
        automaton.addState("s11", slpColor(), registry);
        automaton.addState("s12", slpColor(), registry, /*accepting=*/true);
        automaton.setInitial("s10");
        automaton.addTransition("s10", Action::Receive, "SLPSrvRequest", "s11");
        automaton.addTransition("s11", Action::Send, "SLPSrvReply", "s12");
        return automaton;
    }
};

TEST_F(AutomatonTest, ValidatesWellFormed) {
    ColoredAutomaton automaton = makeSlpServer();
    EXPECT_NO_THROW(automaton.validate());
    EXPECT_EQ(automaton.acceptingStates(), (std::vector<std::string>{"s12"}));
    EXPECT_EQ(automaton.states().size(), 3u);
}

TEST_F(AutomatonTest, TransitionLookup) {
    ColoredAutomaton automaton = makeSlpServer();
    const Transition* t = automaton.transitionFor("s10", Action::Receive, "SLPSrvRequest");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->to, "s11");
    EXPECT_EQ(automaton.transitionFor("s10", Action::Send, "SLPSrvRequest"), nullptr);
    EXPECT_EQ(automaton.transitionFor("s10", Action::Receive, "Other"), nullptr);
    EXPECT_EQ(automaton.transitionsFrom("s10").size(), 1u);
}

TEST_F(AutomatonTest, DuplicateStateThrows) {
    ColoredAutomaton automaton("A");
    automaton.addState("s", slpColor(), registry);
    EXPECT_THROW(automaton.addState("s", slpColor(), registry), SpecError);
}

TEST_F(AutomatonTest, MissingInitialFailsValidation) {
    ColoredAutomaton automaton("A");
    automaton.addState("s", slpColor(), registry, true);
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, NoAcceptingFailsValidation) {
    ColoredAutomaton automaton("A");
    automaton.addState("s", slpColor(), registry);
    automaton.setInitial("s");
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, MixedColorsFailValidation) {
    // The paper: an automaton passes between states "only if the concerned
    // states share the same color".
    ColoredAutomaton automaton("A");
    automaton.addState("a", slpColor(), registry);
    automaton.addState("b", ssdpColor(), registry, true);
    automaton.setInitial("a");
    automaton.addTransition("a", Action::Send, "M", "b");
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, UnknownTransitionEndpointFailsValidation) {
    ColoredAutomaton automaton("A");
    automaton.addState("a", slpColor(), registry, true);
    automaton.setInitial("a");
    automaton.addTransition("a", Action::Send, "M", "ghost");
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, NondeterminismFailsValidation) {
    ColoredAutomaton automaton("A");
    automaton.addState("a", slpColor(), registry);
    automaton.addState("b", slpColor(), registry, true);
    automaton.addState("c", slpColor(), registry, true);
    automaton.setInitial("a");
    automaton.addTransition("a", Action::Receive, "M", "b");
    automaton.addTransition("a", Action::Receive, "M", "c");
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, UnreachableStateFailsValidation) {
    ColoredAutomaton automaton("A");
    automaton.addState("a", slpColor(), registry, true);
    automaton.addState("island", slpColor(), registry);
    automaton.setInitial("a");
    EXPECT_THROW(automaton.validate(), SpecError);
}

TEST_F(AutomatonTest, QueueStoresAndFindsLatestInstance) {
    // A state's instance queue (one per state per engine session).
    InstanceQueue s11;
    AbstractMessage first("SLPSrvRequest");
    first.setValue("XID", Value::ofInt(1), "Integer");
    AbstractMessage second("SLPSrvRequest");
    second.setValue("XID", Value::ofInt(2), "Integer");
    s11.push(first);
    s11.push(second);
    const AbstractMessage* found = s11.latest("SLPSrvRequest");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->value("XID")->asInt(), 2);  // latest wins
    EXPECT_EQ(s11.latest("Other"), nullptr);
    EXPECT_EQ(s11.all().size(), 2u);
    s11.clear();
    EXPECT_TRUE(s11.all().empty());
}

}  // namespace
}  // namespace starlink::automata
