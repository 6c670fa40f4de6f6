// Deterministic replay of postmortem bundles.
//
// replayBundle() turns a captured abort into a one-command repro: it deploys
// a fresh single-island simulation of the bundle's case, rewinds the engine's
// jitter generator to the captured (seed, draws) position, re-injects every
// recorded inbound datagram/chunk at its recorded virtual timestamp through
// stub endpoints bound at the original sender addresses, and lets the engine
// run. The replayed SessionRecord and outbound wire traffic are then diffed
// against the capture.
//
// The injected network is latency-, jitter- and loss-free: the capture
// already encodes WHEN each accepted message arrived, so the original chaos
// (dropped datagrams never appear in the log; delayed ones carry their real
// arrival time) is baked into the injection schedule rather than re-rolled.
// Known limitation: legs whose timing the capture cannot pin -- tcp connect
// handshakes and their retries -- complete earlier under zero latency, so a
// session that raced a connect outcome against an inbound message can, for
// some captures, diverge; the comparison reports it rather than hiding it.
#pragma once

#include <cstdint>
#include <string>

#include "core/bridge/models.hpp"
#include "core/telemetry/recorder.hpp"

namespace starlink::bridge {

/// Outcome of one replay, diffed against the bundle's capture.
struct ReplayComparison {
    /// The replay island produced a terminal SessionRecord at all.
    bool ran = false;
    /// completed/cause/code/messagesIn/messagesOut/retransmits all match the
    /// captured SessionEnd event.
    bool recordMatches = false;
    /// The replayed outbound (color, payload) sequence is byte-identical to
    /// the captured Tx sequence.
    bool wireMatches = false;
    /// First mismatch, human-readable; empty when ok().
    std::string detail;

    // The replayed terminal outcome, for reporting.
    bool completed = false;
    int abortCode = 0;
    std::uint32_t messagesIn = 0;
    std::uint32_t messagesOut = 0;
    std::uint32_t retransmits = 0;
    std::size_t originalTx = 0;
    std::size_t replayedTx = 0;

    bool ok() const { return ran && recordMatches && wireMatches; }
};

/// Replays one bundle in a fresh island and diffs the outcome. Throws
/// SpecError when the bundle cannot be replayed at all: a model set whose
/// fingerprint does not match the capture's (bridge.identity-mismatch),
/// a truncated capture, or a case slug no built-in direction has. Resolves
/// the model set via models::directionBySlug and models::forDirection.
ReplayComparison replayBundle(const telemetry::PostmortemBundle& bundle,
                              std::size_t maxEvents = 2'000'000);

/// Replays against a caller-supplied model set (a registry generation
/// resolved by the bundle's identity hash). The identity check is the FIRST
/// gate, before any model document is parsed or loaded: a mismatched bundle
/// is rejected with bridge.identity-mismatch and zero side effects -- no
/// island, no codec plans, no partially deployed bridge.
ReplayComparison replayBundle(const telemetry::PostmortemBundle& bundle,
                              const models::DeploymentSpec& spec,
                              std::size_t maxEvents = 2'000'000);

}  // namespace starlink::bridge
