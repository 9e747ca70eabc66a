//! Interleaving scenarios for the epoch-published routing snapshot
//! (`scale_core::RoutePlane` over the vendored arc-swap).
//!
//! The protocol under test: a writer builds the successor snapshot
//! *completely* (membership, liveness bitmap, epoch) and only then
//! publishes it with one atomic pointer store; readers pin one
//! snapshot per operation and never re-read mid-decision; retirement
//! of a removed VM waits until every reader has announced an epoch at
//! or beyond the retiring publish.
//!
//! Each scenario models that as 2–4 short instruction threads and
//! explores **every** interleaving (≥ 1000 schedules each, per the
//! acceptance bar). Seeded-bug variants invert the publication order
//! and must be caught, proving the checker can see the failure mode.
//! Cross-validation tests replay the same properties against the real
//! `RoutePlane` under `std::thread::scope` churn.

use scale_check::{explore, interleavings, Instr, Report, ShimState};
use scale_core::{RoutePlane, RouteSnapshot};
use scale_nas::Plmn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Acceptance bar: every protocol scenario must visit at least this
/// many distinct schedules.
const MIN_SCHEDULES: u64 = 1000;

fn assert_clean(name: &str, report: &Report, min_schedules: u64) {
    assert!(
        report.schedules >= min_schedules,
        "{name}: only {} schedules explored (need >= {min_schedules})",
        report.schedules
    );
    assert!(
        report.violation_count == 0,
        "{name}: {} violations, e.g. {:?}",
        report.violation_count,
        report.violations
    );
    assert_eq!(
        report.deadlocks, 0,
        "{name}: deadlocked schedules: {:?}",
        report.deadlock_examples
    );
}

// ---------------------------------------------------------------------------
// Scenario 1: publish-then-version ⇒ no torn snapshot.
//
// Two snapshot slots stand in for the old and new `Arc<RouteSnapshot>`;
// the version cell is the arc-swap pointer. The writer fills the new
// slot's fields (epoch, payload) completely BEFORE storing the version;
// a reader loads the version once, then the fields of the slot that
// version selects. In every schedule the selected slot's fields must be
// mutually consistent (payload == 100 × epoch) — a reader can observe
// the old or the new snapshot, never a half-written one.
// ---------------------------------------------------------------------------

const VERSION: usize = 0;
const S1_EPOCH: usize = 1;
const S1_PAYLOAD: usize = 2;
const S2_EPOCH: usize = 3;
const S2_PAYLOAD: usize = 4;

/// Reader program: pin the version, then read both slots' fields (the
/// checker selects the slot the pinned version points at — the shim has
/// no indirect addressing, so the reader reads everything and selection
/// happens in the invariant).
fn snapshot_reader() -> Vec<Instr> {
    vec![
        Instr::Load { cell: VERSION, reg: 0 },
        Instr::Load { cell: S2_EPOCH, reg: 1 },
        Instr::Load { cell: S2_PAYLOAD, reg: 2 },
        Instr::Load { cell: S1_EPOCH, reg: 3 },
        Instr::Load { cell: S1_PAYLOAD, reg: 4 },
    ]
}

/// The slot/fields a reader's pinned version selects: (epoch, payload).
fn selected(locals: &[u64]) -> (u64, u64) {
    if locals[0] >= 2 {
        (locals[1], locals[2])
    } else {
        (locals[3], locals[4])
    }
}

#[test]
fn publish_then_version_never_tears() {
    // Slot 1 is the live snapshot (epoch 1); slot 2 is unwritten.
    let initial = ShimState { cells: vec![1, 1, 100, 0, 0] };
    let writer = vec![
        Instr::Store { cell: S2_EPOCH, v: 2 },
        Instr::Store { cell: S2_PAYLOAD, v: 200 },
        Instr::Store { cell: VERSION, v: 2 },
    ];
    let threads = vec![writer, snapshot_reader(), snapshot_reader()];
    let report = explore(&initial, &threads, |t| {
        for (tid, locals) in t.locals.iter().enumerate().skip(1) {
            let (epoch, payload) = selected(locals);
            if epoch != locals[0] {
                return Err(format!(
                    "reader {tid} pinned version {} but the selected slot says epoch {epoch}: torn",
                    locals[0]
                ));
            }
            if payload != 100 * epoch {
                return Err(format!(
                    "reader {tid} saw epoch {epoch} with payload {payload}: torn snapshot"
                ));
            }
        }
        Ok(())
    });
    assert_eq!(report.schedules, interleavings(&[3, 5, 5])); // 72 072
    assert_clean("publish_then_version", &report, MIN_SCHEDULES);
}

/// The same program with the publication order inverted (version store
/// first, fields after — what a mutable-in-place snapshot would do)
/// MUST tear in some schedule; this proves the invariant actually
/// discriminates and the green run above is not vacuous.
#[test]
fn version_then_publish_tears_and_is_detected() {
    let initial = ShimState { cells: vec![1, 1, 100, 0, 0] };
    let writer = vec![
        Instr::Store { cell: VERSION, v: 2 },
        Instr::Store { cell: S2_EPOCH, v: 2 },
        Instr::Store { cell: S2_PAYLOAD, v: 200 },
    ];
    let threads = vec![writer, snapshot_reader()];
    let report = explore(&initial, &threads, |t| {
        let (epoch, payload) = selected(&t.locals[1]);
        if epoch == t.locals[1][0] && payload == 100 * epoch {
            Ok(())
        } else {
            Err("torn".into())
        }
    });
    assert_eq!(report.schedules, interleavings(&[3, 5]));
    assert!(
        report.violation_count > 0,
        "inverted publication order must produce a torn read in some schedule"
    );
}

// ---------------------------------------------------------------------------
// Scenario 2: mark-down publish + epoch-announcing readers ⇒ no route
// to the removed VM once retirement proceeds.
//
// The writer publishes a snapshot whose liveness bitmap has the victim
// VM down (fill slot 2's down bit, then bump the version). Readers pin
// one version for the whole routing decision, route against the
// selected slot's down bit, and afterwards ANNOUNCE the epoch they
// used (`StoreReg` — the per-reader epoch cell that epoch-based
// retirement polls). The decommissioner polls both announcements;
// retirement is allowed only when every reader announced ≥ the
// mark-down epoch — at which point no reader can still have routed to
// the victim, in any schedule.
// ---------------------------------------------------------------------------

const DVERSION: usize = 0;
const S1_DOWN: usize = 1;
const S2_DOWN: usize = 2;
const ANNOUNCE_A: usize = 3;
const ANNOUNCE_B: usize = 4;

fn routing_reader(announce: usize) -> Vec<Instr> {
    vec![
        Instr::Load { cell: DVERSION, reg: 0 },
        Instr::Load { cell: S1_DOWN, reg: 1 },
        Instr::Load { cell: S2_DOWN, reg: 2 },
        Instr::StoreReg { cell: announce, reg: 0 },
    ]
}

/// Did this reader route to the victim VM? (Selected slot's down bit
/// clear ⇒ the VM was live in the snapshot the reader pinned.)
fn routed_to_victim(locals: &[u64]) -> bool {
    let down = if locals[0] >= 2 { locals[2] } else { locals[1] };
    down == 0
}

#[test]
fn no_route_to_removed_vm_after_epoch_retires() {
    let initial = ShimState { cells: vec![1, 0, 0, 0, 0] };
    let writer = vec![
        Instr::Store { cell: S2_DOWN, v: 1 },
        Instr::Store { cell: DVERSION, v: 2 },
    ];
    let decommissioner = vec![
        Instr::Load { cell: ANNOUNCE_A, reg: 0 },
        Instr::Load { cell: ANNOUNCE_B, reg: 1 },
    ];
    let threads = vec![
        writer,
        routing_reader(ANNOUNCE_A),
        routing_reader(ANNOUNCE_B),
        decommissioner,
    ];
    let report = explore(&initial, &threads, |t| {
        // Torn-bitmap check, as in scenario 1.
        for (tid, locals) in t.locals.iter().enumerate().take(3).skip(1) {
            if locals[0] >= 2 && locals[2] != 1 {
                return Err(format!(
                    "reader {tid} pinned the mark-down epoch but saw the VM live: torn bitmap"
                ));
            }
        }
        // Retirement gate: if the decommissioner saw BOTH readers
        // announce the mark-down epoch, neither may have routed to the
        // victim — its context can be dropped with no in-flight work.
        let gate_passed = t.locals[3][0] >= 2 && t.locals[3][1] >= 2;
        if gate_passed && (routed_to_victim(&t.locals[1]) || routed_to_victim(&t.locals[2])) {
            return Err(
                "retirement gate passed while a reader had routed to the removed VM".into(),
            );
        }
        Ok(())
    });
    assert_eq!(report.schedules, interleavings(&[2, 4, 4, 2])); // 207 900
    assert_clean("epoch_retirement", &report, MIN_SCHEDULES);
}

/// Seeded bug: a decommissioner that does NOT wait for announcements
/// (gate always passes) must be caught routing to the removed VM.
#[test]
fn retiring_without_epoch_gate_is_detected() {
    let initial = ShimState { cells: vec![1, 0, 0, 0, 0] };
    let writer = vec![
        Instr::Store { cell: S2_DOWN, v: 1 },
        Instr::Store { cell: DVERSION, v: 2 },
    ];
    let threads = vec![writer, routing_reader(ANNOUNCE_A)];
    let report = explore(&initial, &threads, |t| {
        // No gate: claim the VM is retired as soon as the publish
        // lands. Any reader still pinned to the old snapshot disproves
        // the claim.
        if routed_to_victim(&t.locals[1]) {
            Err("reader routed to the VM the ungated retirement already dropped".into())
        } else {
            Ok(())
        }
    });
    assert_eq!(report.schedules, interleavings(&[2, 4]));
    assert!(
        report.violation_count > 0,
        "ungated retirement must be caught routing to the removed VM"
    );
}

// ---------------------------------------------------------------------------
// Scenario 3: serialized publishers ⇒ strictly advancing epoch, and
// readers observe a monotone epoch sequence. The writer mutex is the
// `RoutePlane` publish lock; each publisher increments the epoch under
// it and records what it published. Lock discipline is also implicitly
// checked: `assert_clean` fails on any deadlocked schedule.
// ---------------------------------------------------------------------------

#[test]
fn serialized_publishes_advance_epoch_monotonically() {
    const EVERSION: usize = 0;
    const WLOCK: usize = 1;
    let publisher = vec![
        Instr::Lock { cell: WLOCK },
        Instr::Add { cell: EVERSION, k: 1 },
        Instr::Load { cell: EVERSION, reg: 0 },
        Instr::Unlock { cell: WLOCK },
    ];
    let reader = vec![
        Instr::Load { cell: EVERSION, reg: 0 },
        Instr::Load { cell: EVERSION, reg: 1 },
        Instr::Load { cell: EVERSION, reg: 2 },
    ];
    let threads = vec![publisher.clone(), publisher, reader.clone(), reader];
    let report = explore(&ShimState { cells: vec![1, 0] }, &threads, |t| {
        if t.cells[EVERSION] != 3 {
            return Err(format!("final epoch {} != 3: a publish was lost", t.cells[EVERSION]));
        }
        let (a, b) = (t.locals[0][0], t.locals[1][0]);
        if !((a == 2 && b == 3) || (a == 3 && b == 2)) {
            return Err(format!(
                "publishers saw epochs {a}/{b}: not strictly advancing under the lock"
            ));
        }
        for (tid, r) in t.locals.iter().enumerate().skip(2) {
            if !(r[0] <= r[1] && r[1] <= r[2]) {
                return Err(format!(
                    "reader {tid} epochs not monotone: {} {} {}",
                    r[0], r[1], r[2]
                ));
            }
        }
        Ok(())
    });
    assert_clean("serialized_publish", &report, MIN_SCHEDULES);
}

// ---------------------------------------------------------------------------
// Cross-validation against the real RoutePlane (the shim must not
// drift from the code it models).
// ---------------------------------------------------------------------------

fn test_plane() -> Arc<RoutePlane> {
    let mut snap = RouteSnapshot::new(16, 2, Plmn::test(), 0x8001, 1);
    for vm in 1..=4 {
        snap.ring.add_node(vm);
    }
    Arc::new(RoutePlane::new(snap))
}

/// Scenario 1 on the real type: a publisher alternates mark_down /
/// mark_up of one VM, so every snapshot satisfies `is_down(victim) ⇔
/// (epoch − E0) odd`. Readers hammering `snapshot()` under real
/// threads must see that cross-field relation hold on every load, and
/// epochs must never run backwards — the torn/monotonicity properties
/// the shim proved, now against the vendored arc-swap.
#[test]
fn real_routeplane_snapshots_never_tear() {
    const PUBLISHES: u64 = 2000;
    let plane = test_plane();
    let victim = 2;
    let e0 = plane.snapshot().epoch;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let plane = Arc::clone(&plane);
            scope.spawn(move || {
                let mut reader = plane.reader();
                let mut last_epoch = 0u64;
                loop {
                    let snap = reader.snapshot();
                    assert!(snap.epoch >= last_epoch, "epoch ran backwards");
                    last_epoch = snap.epoch;
                    assert_eq!(
                        snap.is_down(victim),
                        (snap.epoch - e0) % 2 == 1,
                        "snapshot at epoch {} has a down-bit from another epoch: torn",
                        snap.epoch
                    );
                    if snap.epoch == e0 + PUBLISHES {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
        }
        scope.spawn(|| {
            for k in 0..PUBLISHES {
                if k % 2 == 0 {
                    plane.mark_down(victim);
                } else {
                    plane.mark_up(victim);
                }
            }
        });
    });
    assert_eq!(plane.snapshot().epoch, e0 + PUBLISHES);
}

/// Scenario 2 on the real type: once a reader observes an epoch at or
/// beyond the mark-down publish, neither `route_new_attach` nor
/// `route_idle` may ever hand back the downed VM (monotone: the victim
/// is never marked up again in this test).
#[test]
fn real_routeplane_never_routes_to_downed_vm_after_epoch() {
    let plane = test_plane();
    let victim = 3;
    let down_epoch = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..2 {
            let plane = Arc::clone(&plane);
            let down_epoch = Arc::clone(&down_epoch);
            scope.spawn(move || {
                let mut reader = plane.reader();
                for i in 0..40_000u32 {
                    let m_tmsi = 0x0100_0000 + i * 7 + t;
                    let gate = down_epoch.load(Ordering::Acquire);
                    let pinned = reader.epoch();
                    let attach = reader.route_new_attach(m_tmsi);
                    let idle = reader.route_idle(m_tmsi);
                    if gate != 0 && pinned >= gate {
                        assert_ne!(attach, Some(victim), "attach routed to the downed VM");
                        assert_ne!(idle, Some(victim), "idle procedure routed to the downed VM");
                    }
                }
            });
        }
        scope.spawn(|| {
            // Let the readers route against the full fleet briefly,
            // then take the victim down and announce the epoch that
            // publish produced.
            std::thread::yield_now();
            plane.mark_down(victim);
            down_epoch.store(plane.snapshot().epoch, Ordering::Release);
        });
    });
}
