//! Interleaving scenarios for the `scale-obs` concurrency surface.
//!
//! Each scenario models one hot-path interaction as 2–3 short
//! instruction-list threads, exhaustively explores **every**
//! interleaving (≥ 1000 schedules per the acceptance bar), and asserts
//! the linearizability invariant the observability layer relies on.
//! Each scenario is paired with a cross-validation test that runs the
//! equivalent program against the *real* `scale_obs` types so the shim
//! can't drift from the code it models.

use scale_check::{explore, interleavings, Instr, Report, ShimState};

/// Acceptance bar from the issue: every scenario must visit at least
/// this many distinct schedules.
const MIN_SCHEDULES: u64 = 1000;

fn assert_clean(name: &str, report: &Report, min_schedules: u64) {
    assert!(
        report.schedules >= min_schedules,
        "{name}: only {} schedules explored (need >= {min_schedules})",
        report.schedules
    );
    assert!(
        report.violations.is_empty() && report.violation_count == 0,
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
// Scenario 1: Counter linearizability.
// Three threads each do two fetch_adds then read the counter. Every
// schedule must end with the full total, and no thread may observe less
// than its own completed contribution or more than the grand total.
// ---------------------------------------------------------------------------

#[test]
fn counter_concurrent_adds_linearize() {
    const COUNT: usize = 0;
    let threads: Vec<Vec<Instr>> = (0..3)
        .map(|_| {
            vec![
                Instr::Add { cell: COUNT, k: 1 },
                Instr::Add { cell: COUNT, k: 1 },
                Instr::Load { cell: COUNT, reg: 0 },
            ]
        })
        .collect();
    let report = explore(&ShimState { cells: vec![0] }, &threads, |t| {
        if t.cells[COUNT] != 6 {
            return Err(format!("final count {} != 6: an add was lost", t.cells[COUNT]));
        }
        for (tid, locals) in t.locals.iter().enumerate() {
            let seen = locals[0];
            if !(2..=6).contains(&seen) {
                return Err(format!(
                    "thread {tid} observed {seen}, outside [2, 6]: \
                     its own two adds precede its load, and 6 is the total"
                ));
            }
        }
        Ok(())
    });
    assert_eq!(report.schedules, interleavings(&[3, 3, 3])); // 1680
    assert_clean("counter", &report, MIN_SCHEDULES);
}

#[test]
fn counter_cross_validation_against_real_type() {
    // The same program on the real Counter, sequentially and under real
    // threads: totals must match the model's only legal terminal state.
    let c = scale_obs::Counter::new();
    for _ in 0..3 {
        c.inc();
        c.inc();
        assert!((2..=6).contains(&c.get()));
    }
    assert_eq!(c.get(), 6);

    let shared = std::sync::Arc::new(scale_obs::Counter::new());
    std::thread::scope(|s| {
        for _ in 0..3 {
            let c = std::sync::Arc::clone(&shared);
            s.spawn(move || {
                c.inc();
                c.inc();
                assert!((2..=6).contains(&c.get()));
            });
        }
    });
    assert_eq!(shared.get(), 6);
}

// ---------------------------------------------------------------------------
// Scenario 2: Gauge last-write-wins.
// Three threads each publish two values then read back. The terminal
// value must be the *last* value some thread stored (never a blend or
// the initial value), and each reader sees a value some thread actually
// wrote no earlier than its own first store.
// ---------------------------------------------------------------------------

#[test]
fn gauge_concurrent_stores_last_write_wins() {
    const G: usize = 0;
    // Thread i stores 10*(i+1) then 10*(i+1)+1, then loads.
    let threads: Vec<Vec<Instr>> = (0..3)
        .map(|i| {
            let base = 10 * (i as u64 + 1);
            vec![
                Instr::Store { cell: G, v: base },
                Instr::Store { cell: G, v: base + 1 },
                Instr::Load { cell: G, reg: 0 },
            ]
        })
        .collect();
    let written: Vec<u64> = vec![10, 11, 20, 21, 30, 31];
    let finals: Vec<u64> = vec![11, 21, 31]; // a thread's last store
    let report = explore(&ShimState { cells: vec![0] }, &threads, |t| {
        if !finals.contains(&t.cells[G]) {
            return Err(format!(
                "terminal gauge {} is not any thread's final store",
                t.cells[G]
            ));
        }
        for (tid, locals) in t.locals.iter().enumerate() {
            if !written.contains(&locals[0]) {
                return Err(format!(
                    "thread {tid} read {}, a value no thread ever stored \
                     (torn/blended write)",
                    locals[0]
                ));
            }
        }
        Ok(())
    });
    assert_eq!(report.schedules, interleavings(&[3, 3, 3])); // 1680
    assert_clean("gauge", &report, MIN_SCHEDULES);
}

#[test]
fn gauge_cross_validation_against_real_type() {
    let g = scale_obs::Gauge::new();
    for i in 0..3u64 {
        let base = (10 * (i + 1)) as f64;
        g.set(base);
        g.set(base + 1.0);
        assert_eq!(g.get(), base + 1.0);
    }
    assert_eq!(g.get(), 31.0);
}

// ---------------------------------------------------------------------------
// Scenario 3: Histogram record_us vs snapshot.
// `Histogram::record_us` performs, in order, all Relaxed:
//   bucket.fetch_add(1) -> count.fetch_add(1) -> sum.fetch_add(v)
//   -> max.fetch_max(v)
// A concurrent snapshot reader loads bucket, count (twice), sum, max.
// Because bucket is bumped *before* count, a mid-flight reader may see
// Σbuckets ahead of count (and with reader order bucket-then-count,
// also behind) — but never by more than the number of in-flight
// records, and the terminal state must be exact. This scenario pins
// down precisely that contract.
// ---------------------------------------------------------------------------

#[test]
fn histogram_record_vs_snapshot() {
    const BUCKET: usize = 0;
    const COUNT: usize = 1;
    const SUM: usize = 2;
    const MAX: usize = 3;
    const V1: u64 = 200;
    const V2: u64 = 205; // same log-linear bucket as V1 (width-8 octave)
    // Recorder: two record_us calls (same bucket), 8 atomic steps.
    let recorder = vec![
        Instr::Add { cell: BUCKET, k: 1 },
        Instr::Add { cell: COUNT, k: 1 },
        Instr::Add { cell: SUM, k: V1 },
        Instr::FetchMax { cell: MAX, v: V1 },
        Instr::Add { cell: BUCKET, k: 1 },
        Instr::Add { cell: COUNT, k: 1 },
        Instr::Add { cell: SUM, k: V2 },
        Instr::FetchMax { cell: MAX, v: V2 },
    ];
    // Reader: one snapshot pass in source order, with a second count
    // load at the end to check count monotonicity across the pass.
    let reader = vec![
        Instr::Load { cell: BUCKET, reg: 0 },
        Instr::Load { cell: COUNT, reg: 1 },
        Instr::Load { cell: SUM, reg: 2 },
        Instr::Load { cell: MAX, reg: 3 },
        Instr::Load { cell: COUNT, reg: 4 },
    ];
    let report = explore(
        &ShimState { cells: vec![0; 4] },
        &[recorder, reader],
        |t| {
            // Terminal state is exact: both records fully applied.
            if t.cells != [2, 2, V1 + V2, V2] {
                return Err(format!("terminal state {:?} not exact", t.cells));
            }
            let (b, c1, s, m, c2) = (
                t.locals[1][0],
                t.locals[1][1],
                t.locals[1][2],
                t.locals[1][3],
                t.locals[1][4],
            );
            // Per-field monotone bounds: no snapshot field exceeds its
            // terminal value.
            if b > 2 || c1 > 2 || s > V1 + V2 || m > V2 {
                return Err(format!("snapshot ({b},{c1},{s},{m}) exceeds terminal"));
            }
            // The reader loads bucket *before* count, and record_us
            // bumps bucket *before* count, so the bucket read can run
            // ahead of the later count read only by the one in-flight
            // record; count running ahead of the earlier bucket read is
            // unbounded drift-wise (full records land between the two
            // loads) but capped by the total.
            if b > c1 + 1 {
                return Err(format!(
                    "bucket read {b} exceeds later count read {c1} by more \
                     than the in-flight record"
                ));
            }
            // Counts are monotone within a snapshot pass.
            if c2 < c1 {
                return Err(format!("count went backwards within snapshot: {c1} -> {c2}"));
            }
            // max only moves to recorded values.
            if ![0, V1, V2].contains(&m) {
                return Err(format!("max {m} was never recorded"));
            }
            Ok(())
        },
    );
    assert_eq!(report.schedules, interleavings(&[8, 5])); // 1287
    assert_clean("histogram", &report, MIN_SCHEDULES);
}

#[test]
fn histogram_cross_validation_against_real_type() {
    // The shim uses one bucket cell for both values; that's only
    // faithful if 200 and 205 really land in the same bucket — and the
    // terminal-state contract must hold on the real type.
    assert_eq!(
        scale_obs::Histogram::bucket_index(200),
        scale_obs::Histogram::bucket_index(205),
        "shim models one bucket cell; pick values sharing a bucket"
    );
    let h = scale_obs::Histogram::new();
    h.record_us(200);
    h.record_us(205);
    assert_eq!(h.count(), 2);
    assert_eq!(h.sum_us(), 405);
    assert_eq!(h.max_us(), 205);
    let mut total = 0;
    h.for_each_bucket(|_ub, n| total += n);
    assert_eq!(total, h.count(), "terminal Σbuckets must equal count");
}

// ---------------------------------------------------------------------------
// Scenario 4: Registry concurrent registration.
// Three threads race to register the same metric name. Registration is
// a lookup-or-create under the registry mutex; every caller must
// receive the *same* underlying metric (exactly one creation), no
// schedule may deadlock, and the pre/post work outside the critical
// section interleaves freely.
// ---------------------------------------------------------------------------

#[test]
fn registry_concurrent_registration_is_idempotent() {
    const LOCK: usize = 0;
    const SLOT: usize = 1; // the map entry for one metric name
    const WORK: usize = 2; // uncontended side work outside the lock
    const CREATED: usize = 0; // local: 1 iff this thread created the entry
    const HANDLE: usize = 1; // local: the Arc identity this thread got
    let threads: Vec<Vec<Instr>> = (0..3)
        .map(|_| {
            vec![
                // Free step before the critical section so schedules
                // interleave beyond the 3! serialized lock orders.
                Instr::Add { cell: WORK, k: 1 },
                Instr::Lock { cell: LOCK },
                Instr::LookupOrCreate {
                    cell: SLOT,
                    v: 7, // the one shared metric identity
                    reg: CREATED,
                    obs: HANDLE,
                },
                Instr::Unlock { cell: LOCK },
                // Free step after, e.g. incrementing the metric it got.
                Instr::Add { cell: WORK, k: 1 },
            ]
        })
        .collect();
    let report = explore(&ShimState { cells: vec![0; 3] }, &threads, |t| {
        let creators: u64 = t.locals.iter().map(|l| l[CREATED]).sum();
        if creators != 1 {
            return Err(format!("{creators} threads created the entry (want exactly 1)"));
        }
        for (tid, locals) in t.locals.iter().enumerate() {
            if locals[HANDLE] != 7 {
                return Err(format!(
                    "thread {tid} got handle {} instead of the shared entry",
                    locals[HANDLE]
                ));
            }
        }
        if t.cells[SLOT] != 7 {
            return Err(format!("slot ended as {}", t.cells[SLOT]));
        }
        if t.cells[LOCK] != 0 {
            return Err("registry lock still held at termination".into());
        }
        if t.cells[WORK] != 6 {
            return Err(format!("side work lost updates: {}", t.cells[WORK]));
        }
        Ok(())
    });
    // Lock exclusion prunes the free-interleaving count, but the
    // pre/post steps keep the space well above the acceptance bar.
    assert_clean("registry", &report, MIN_SCHEDULES);
}

#[test]
fn registry_cross_validation_against_real_type() {
    // Racing real threads through the real Registry: one shared Counter
    // regardless of who registers first.
    let reg = std::sync::Arc::new(scale_obs::Registry::new());
    std::thread::scope(|s| {
        for _ in 0..3 {
            let reg = std::sync::Arc::clone(&reg);
            s.spawn(move || {
                let c = reg.counter("scale_check_race_total", "race probe");
                c.inc();
                c.inc();
            });
        }
    });
    assert_eq!(reg.len(), 1, "concurrent registration must be idempotent");
    let c = reg.counter("scale_check_race_total", "race probe");
    assert_eq!(c.get(), 6, "all increments must land on the one shared counter");
}
