//! Tier-1 tests for the protocol model checker (DESIGN.md §15).
//!
//! Budgets here are deliberately small: these run in debug builds as
//! part of `cargo test`, so each scenario explores a few thousand
//! states. The full-budget run (≥ 10⁵ summed states) is the release
//! binary: `scale-check protocol` — its smoke variant runs in CI.

use scale_check::protocol::{
    explore_protocol, mutation_scenario, replay_trace, suite, Choice, Mutation, Scenario,
};
use scale_core::wire::Link;

/// Debug-build state budget per scenario.
const BUDGET: u64 = 1_000;

/// Debug-build budget for single-mutation runs: large enough that
/// every seeded bug is still caught (the release smoke re-checks at
/// 4× this).
const MUT_BUDGET: u64 = 2_500;

/// Every clean-protocol scenario holds all invariants at the test
/// budget: no interleaving of deliveries, crashes, detections and
/// restarts reaches a state violating identity consistency, epoch
/// monotonicity, session safety, the replica contract, liveness-map
/// coherence or convergence, leaves a worker holding an S11/S6a
/// transaction between messages, or leaves the MLB holding state for a
/// device whose procedures have all settled.
#[test]
fn clean_suite_holds_invariants() {
    for sc in suite(BUDGET) {
        let r = explore_protocol(&sc);
        assert!(
            r.violation.is_none(),
            "{}: {:?}",
            sc.name,
            r.violation
        );
        assert!(r.states > 0, "{}: explored nothing", sc.name);
    }
}

/// The fault-free base scenario fully quiesces within the budget, and
/// its explored state space is pinned exactly: a broken fingerprint
/// that collapses states would pass the invariant test vacuously, and
/// any change to a machine that moves the interleavings it can reach
/// has to be explained, not noticed by hand.
#[test]
fn exploration_reaches_quiescence_and_breadth() {
    let mut sc = Scenario::base("breadth", 1, 1);
    sc.max_states = 10_000;
    let r = explore_protocol(&sc);
    assert!(r.violation.is_none(), "{:?}", r.violation);
    assert!(!r.truncated, "1 UE × 1 op must exhaust under 10k states");
    assert_eq!(
        (r.states, r.max_depth_reached, r.quiescent_states),
        (195, 52, 1),
        "(distinct states, max depth, quiescent states) of 1 UE × 1 op"
    );
}

/// The explorer is deterministic: the same scenario explored twice
/// yields the same distinct-state count, depth and quiescent count.
/// CI's smoke step relies on this to compare two full passes.
#[test]
fn exploration_is_deterministic() {
    let mut sc = Scenario::base("determinism", 2, 1);
    sc.max_crashes = 1;
    sc.max_states = BUDGET;
    let a = explore_protocol(&sc);
    let b = explore_protocol(&sc);
    assert_eq!(a.states, b.states);
    assert_eq!(a.max_depth_reached, b.max_depth_reached);
    assert_eq!(a.quiescent_states, b.quiescent_states);
    assert_eq!(a.violation.is_some(), b.violation.is_some());
}

/// A reported violation trace must replay: rebuilding the world from
/// the root and re-applying the recorded choices reproduces the same
/// invariant violation. (Uses a seeded mutation to produce a trace.)
#[test]
fn violation_traces_replay() {
    let sc = mutation_scenario(Mutation::DropReplicate, MUT_BUDGET);
    let r = explore_protocol(&sc);
    let v = r.violation.expect("drop_replicate must be caught");
    let replayed = replay_trace(&sc, &v.trace).expect("trace must reproduce the violation");
    assert_eq!(replayed.0, v.invariant, "replay found a different invariant");
}

/// A stale uplink after a worker restart. The device's attach is served
/// on worker 1, whose Authentication Request reaches the cell; worker 1
/// crashes and is detected, the cell answers the request, worker 1
/// restarts empty, and the MLB forwards the answer by its
/// MME-UE-S1AP-ID to the revived engine, which knows no such
/// connection. It answers with an Error Indication (TS 36.413 §10.6),
/// which goes back through the MLB to the cell; no error is counted
/// anywhere. (An engine that counted the stale uplink as an error
/// failed this replay with `errors`, and the full run, which folded no
/// counter into its fingerprints, never saw it.)
#[test]
fn a_stale_uplink_after_a_restart_is_answered_not_counted() {
    let sc = suite(BUDGET)
        .into_iter()
        .find(|s| s.name == "crash_restart_1ue")
        .expect("scenario");
    let trace = [
        Choice::Deliver(Link::EnbToMlb(0)), // S1 Setup
        Choice::Deliver(Link::MlbToEnb(0)), // S1 Setup Response
        Choice::Deliver(Link::EnbToMlb(0)), // the attach, routed to worker 1
        Choice::Deliver(Link::MlbToMmp(1)), // Authentication Request
        Choice::Deliver(Link::MmpToMlb(1)), // relayed to the cell
        Choice::Crash(1),
        Choice::Detect(1),
        Choice::Deliver(Link::MlbToEnb(0)), // the cell answers it
        Choice::Restart(1),
        Choice::Deliver(Link::EnbToMlb(0)), // the answer, to worker 1
        Choice::Deliver(Link::MlbToMmp(1)), // unknown there
        Choice::Deliver(Link::MmpToMlb(1)), // the Error Indication
        Choice::Deliver(Link::MlbToEnb(0)), // reaches the cell
    ];
    assert_eq!(replay_trace(&sc, &trace), None);
}

/// Helper: assert one seeded bug is caught, and by the expected
/// invariant family.
fn assert_caught(m: Mutation, expected: &[&str]) {
    let sc = mutation_scenario(m, MUT_BUDGET);
    let r = explore_protocol(&sc);
    let v = r
        .violation
        .unwrap_or_else(|| panic!("seeded bug {} escaped ({} states)", m.name(), r.states));
    assert!(
        expected.contains(&v.invariant),
        "{} caught by {} (expected one of {expected:?}): {}",
        m.name(),
        v.invariant,
        v.detail
    );
}

#[test]
fn catches_drop_replicate() {
    assert_caught(Mutation::DropReplicate, &["I3", "I4"]);
}

#[test]
fn catches_ack_before_replicate() {
    assert_caught(Mutation::AckBeforeReplicate, &["I3", "I4"]);
}

#[test]
fn catches_stale_epoch_route() {
    assert_caught(Mutation::StaleEpochRoute, &["convergence"]);
}

#[test]
fn catches_missed_reconnect_mark_up() {
    assert_caught(Mutation::MissedReconnectMarkUp, &["I5"]);
}

#[test]
fn catches_wildcard_swallow() {
    assert_caught(Mutation::WildcardSwallow, &["convergence"]);
}

#[test]
fn catches_reject_without_cause() {
    assert_caught(Mutation::RejectWithoutCause, &["errors", "I3"]);
}

#[test]
fn catches_tau_keeps_s1ap_id() {
    assert_caught(Mutation::TauKeepsS1apId, &["convergence"]);
}

/// Only the byte path can see this one: the MLB's relay refuses the
/// cut message, and the zero-error invariant reads the refusal.
#[test]
fn catches_truncated_uplink() {
    assert_caught(Mutation::TruncatedUplink, &["errors"]);
    let sc = mutation_scenario(Mutation::TruncatedUplink, MUT_BUDGET);
    let v = explore_protocol(&sc).violation.expect("caught");
    assert!(v.detail.contains("EnbToMlb(0) refused"), "{}", v.detail);
}
