//! `scale-check` — a loom-lite bounded interleaving explorer.
//!
//! The observability layer's whole premise is that `Relaxed` atomics
//! and a `Mutex`-guarded registry are safe to hammer from the routing
//! threads. Sanitizers only see the schedules a run happens to take;
//! this crate takes the small-scope route instead: model the handful
//! of atomic cells a scenario touches ([`ShimState`]), express each
//! thread as a short instruction list ([`Instr`]), and have a DFS
//! scheduler ([`explore`]) run **every** interleaving of 2–3 such
//! threads, checking an invariant at each of the thousands of terminal
//! states and flagging deadlocks in lock-modeled programs.
//!
//! ## Memory-model scope (read before trusting a green run)
//!
//! The shim models **sequentially consistent interleavings of atomic
//! steps**: each `Instr` executes atomically, and every thread sees the
//! single shared [`ShimState`]. That is *stronger* than the `Relaxed`
//! ordering the real code uses on weak-memory hardware — the shim
//! cannot surface reorderings that only a fence would forbid. It is
//! exactly the right model for the properties asserted here (per-cell
//! atomicity, read-modify-write linearizability, lock exclusion),
//! which are ordering-free; it is **not** evidence for any invariant
//! that depends on cross-cell visibility order. DESIGN.md §11 spells
//! out the boundary.
//!
//! The scenarios live in `tests/scenarios.rs`; each also cross-checks
//! the model against the real `scale-obs` types run sequentially.

#![forbid(unsafe_code)]

pub mod protocol;

/// Shared state: a small bank of `u64` cells standing in for the
/// `AtomicU64`s (and mutex words) of the system under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShimState {
    /// Cell values, indexed by the scenario's own layout.
    pub cells: Vec<u64>,
}

/// One atomic step of a thread program. Each variant mirrors an atomic
/// operation the `scale-obs` hot path performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `cells[cell] += k` — `fetch_add(k, Relaxed)`.
    Add { cell: usize, k: u64 },
    /// `cells[cell] = v` — an unconditional store (`Gauge::set`).
    Store { cell: usize, v: u64 },
    /// `cells[cell] = max(cells[cell], v)` — `fetch_max(v, Relaxed)`.
    FetchMax { cell: usize, v: u64 },
    /// `locals[reg] = cells[cell]` — an atomic load into a thread-local
    /// register (what a snapshot reader does per field).
    Load { cell: usize, reg: usize },
    /// `cells[cell] = locals[reg]` — publish a previously loaded value
    /// (a reader announcing the epoch it last observed, the handshake
    /// epoch-based retirement waits on).
    StoreReg { cell: usize, reg: usize },
    /// Acquire a mutex modeled as a cell (0 = free). Blocks (the
    /// scheduler will not pick this thread) while held by another.
    Lock { cell: usize },
    /// Release a mutex cell. Panics if this thread does not hold it —
    /// that is a scenario bug, not a schedule outcome.
    Unlock { cell: usize },
    /// Lookup-or-create under an already-held lock (the registry's
    /// idempotent registration): if `cells[cell] == 0`, store `v` and
    /// set `locals[reg] = 1` (created); either way `locals[obs]` gets
    /// the value now in the slot (the Arc every caller receives).
    LookupOrCreate { cell: usize, v: u64, reg: usize, obs: usize },
}

/// Per-thread register count — scenarios index `locals[tid][reg]`.
pub const N_REGS: usize = 8;

/// What [`step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The instruction executed; advance this thread's pc.
    Ran,
    /// The instruction cannot execute now (lock held elsewhere).
    Blocked,
}

/// Execute `instr` for thread `tid` against `(cells, locals)`.
pub fn step(instr: Instr, tid: usize, cells: &mut [u64], locals: &mut [u64]) -> Outcome {
    match instr {
        Instr::Add { cell, k } => cells[cell] = cells[cell].wrapping_add(k),
        Instr::Store { cell, v } => cells[cell] = v,
        Instr::FetchMax { cell, v } => cells[cell] = cells[cell].max(v),
        Instr::Load { cell, reg } => locals[reg] = cells[cell],
        Instr::StoreReg { cell, reg } => cells[cell] = locals[reg],
        Instr::Lock { cell } => {
            if cells[cell] != 0 {
                return Outcome::Blocked;
            }
            cells[cell] = tid as u64 + 1;
        }
        Instr::Unlock { cell } => {
            assert_eq!(
                cells[cell],
                tid as u64 + 1,
                "scenario bug: thread {tid} unlocking a mutex it does not hold"
            );
            cells[cell] = 0;
        }
        Instr::LookupOrCreate { cell, v, reg, obs } => {
            if cells[cell] == 0 {
                cells[cell] = v;
                locals[reg] = 1;
            }
            locals[obs] = cells[cell];
        }
    }
    Outcome::Ran
}

/// Terminal (or deadlocked) execution state handed to the invariant
/// checker.
#[derive(Debug)]
pub struct Terminal<'a> {
    /// Final cell values.
    pub cells: &'a [u64],
    /// Final registers of each thread.
    pub locals: &'a [Vec<u64>],
}

/// Exploration result.
#[derive(Debug, Default)]
pub struct Report {
    /// Complete executions reached (distinct interleavings).
    pub schedules: u64,
    /// Invariant failures, capped at [`Report::MAX_KEPT`] messages.
    pub violations: Vec<String>,
    /// Total invariant failures (even beyond the message cap).
    pub violation_count: u64,
    /// Executions that wedged: some thread unfinished, none runnable.
    pub deadlocks: u64,
    /// One example schedule per deadlock class, capped like violations.
    pub deadlock_examples: Vec<String>,
}

impl Report {
    /// Cap on stored violation/deadlock messages.
    pub const MAX_KEPT: usize = 8;

    /// True when every schedule completed and satisfied the invariant.
    pub fn clean(&self) -> bool {
        self.violation_count == 0 && self.deadlocks == 0
    }
}

struct Dfs<'a, F: Fn(&Terminal<'_>) -> Result<(), String>> {
    threads: &'a [Vec<Instr>],
    check: F,
    report: Report,
}

impl<F: Fn(&Terminal<'_>) -> Result<(), String>> Dfs<'_, F> {
    fn run(&mut self, cells: &[u64], locals: &[Vec<u64>], pcs: &[usize], trace: &mut Vec<usize>) {
        let mut ran_any = false;
        let mut all_done = true;
        for tid in 0..self.threads.len() {
            let pc = pcs[tid];
            if pc >= self.threads[tid].len() {
                continue;
            }
            all_done = false;
            let mut next_cells = cells.to_vec();
            let mut next_locals = locals.to_vec();
            match step(
                self.threads[tid][pc],
                tid,
                &mut next_cells,
                &mut next_locals[tid],
            ) {
                Outcome::Blocked => continue,
                Outcome::Ran => {
                    ran_any = true;
                    let mut next_pcs = pcs.to_vec();
                    next_pcs[tid] += 1;
                    trace.push(tid);
                    self.run(&next_cells, &next_locals, &next_pcs, trace);
                    trace.pop();
                }
            }
        }
        if all_done {
            self.report.schedules += 1;
            let term = Terminal { cells, locals };
            if let Err(msg) = (self.check)(&term) {
                self.report.violation_count += 1;
                if self.report.violations.len() < Report::MAX_KEPT {
                    self.report
                        .violations
                        .push(format!("schedule {trace:?}: {msg}"));
                }
            }
        } else if !ran_any {
            self.report.deadlocks += 1;
            if self.report.deadlock_examples.len() < Report::MAX_KEPT {
                self.report
                    .deadlock_examples
                    .push(format!("deadlock after schedule {trace:?} at pcs {pcs:?}"));
            }
        }
    }
}

/// Exhaustively run every interleaving of `threads` from `initial`
/// state, applying `check` at each terminal state.
///
/// The state space is the full interleaving tree (no partial-order
/// reduction), so keep programs small: total step count ≤ ~16 across
/// 2–3 threads explores in well under a second.
pub fn explore(
    initial: &ShimState,
    threads: &[Vec<Instr>],
    check: impl Fn(&Terminal<'_>) -> Result<(), String>,
) -> Report {
    let locals: Vec<Vec<u64>> = vec![vec![0u64; N_REGS]; threads.len()];
    let pcs = vec![0usize; threads.len()];
    let mut dfs = Dfs {
        threads,
        check,
        report: Report::default(),
    };
    dfs.run(&initial.cells, &locals, &pcs, &mut Vec::new());
    dfs.report
}

/// Number of interleavings of threads with the given step counts when
/// nothing blocks: the multinomial coefficient. Scenarios assert the
/// explorer visited exactly this many schedules.
pub fn interleavings(steps: &[usize]) -> u64 {
    let mut n = 1u128;
    let mut d = 1u128;
    let mut k = 0usize;
    for &s in steps {
        for i in 1..=s {
            k += 1;
            n *= k as u128;
            d *= i as u128;
        }
    }
    (n / d) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_counts() {
        assert_eq!(interleavings(&[3, 3, 3]), 1680);
        assert_eq!(interleavings(&[8, 5]), 1287);
        assert_eq!(interleavings(&[1, 1]), 2);
        assert_eq!(interleavings(&[2, 2]), 6);
    }

    #[test]
    fn two_racing_adds_linearize() {
        let threads = vec![
            vec![Instr::Add { cell: 0, k: 1 }, Instr::Add { cell: 0, k: 1 }],
            vec![Instr::Add { cell: 0, k: 1 }, Instr::Add { cell: 0, k: 1 }],
        ];
        let report = explore(&ShimState { cells: vec![0] }, &threads, |t| {
            if t.cells[0] == 4 {
                Ok(())
            } else {
                Err(format!("lost update: {}", t.cells[0]))
            }
        });
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.schedules, interleavings(&[2, 2]));
    }

    /// The explorer must *find* bugs, not just bless correct code: a
    /// non-atomic read-modify-write (load, then store of reg+1) must
    /// exhibit the classic lost update in at least one schedule.
    #[test]
    fn seeded_lost_update_is_detected() {
        // Non-atomic increment: load, then store the (possibly stale)
        // incremented value. Both threads start from 0 and store 1, so
        // any schedule where the loads interleave loses an update.
        let threads = vec![
            vec![Instr::Load { cell: 0, reg: 0 }, Instr::Store { cell: 0, v: 1 }],
            vec![Instr::Load { cell: 0, reg: 0 }, Instr::Store { cell: 0, v: 1 }],
        ];
        // A correct atomic counter would end at 2; the non-atomic
        // version ends at 1 whenever the loads interleave. The checker
        // demands 2, so the explorer must report violations.
        let report = explore(&ShimState { cells: vec![0] }, &threads, |t| {
            if t.cells[0] == 2 {
                Ok(())
            } else {
                Err(format!("lost update: {}", t.cells[0]))
            }
        });
        assert!(
            report.violation_count > 0,
            "explorer failed to detect the seeded lost update"
        );
        assert_eq!(report.schedules, interleavings(&[2, 2]));
    }

    /// Opposite lock order must be reported as a deadlock, proving the
    /// wedge detector works (this is the `await-guard`-style bug class
    /// the sctplite lint exists for).
    #[test]
    fn seeded_deadlock_is_detected() {
        let threads = vec![
            vec![
                Instr::Lock { cell: 0 },
                Instr::Lock { cell: 1 },
                Instr::Unlock { cell: 1 },
                Instr::Unlock { cell: 0 },
            ],
            vec![
                Instr::Lock { cell: 1 },
                Instr::Lock { cell: 0 },
                Instr::Unlock { cell: 0 },
                Instr::Unlock { cell: 1 },
            ],
        ];
        let report = explore(&ShimState { cells: vec![0, 0] }, &threads, |_| Ok(()));
        assert!(
            report.deadlocks > 0,
            "explorer failed to detect the seeded lock-order deadlock"
        );
        // The non-deadlocking schedules still complete.
        assert!(report.schedules > 0);
        assert_eq!(report.violation_count, 0);
    }

    #[test]
    fn consistent_lock_order_never_deadlocks() {
        let threads = vec![
            vec![
                Instr::Lock { cell: 0 },
                Instr::Lock { cell: 1 },
                Instr::Add { cell: 2, k: 1 },
                Instr::Unlock { cell: 1 },
                Instr::Unlock { cell: 0 },
            ];
            2
        ];
        let report = explore(&ShimState { cells: vec![0, 0, 0] }, &threads, |t| {
            if t.cells[2] == 2 {
                Ok(())
            } else {
                Err("exclusion violated".into())
            }
        });
        assert!(report.clean(), "{report:?}");
    }
}
