//! A cell's heap follows its window, not its history: after running
//! every session of its population to completion, an `EnbEmulator`
//! holds no more than it did when built plus what the connections of
//! one window take. Exact and immune to host noise: this binary's
//! allocator keeps a running total of the bytes the test's thread
//! holds.
//!
//! The cell is driven by one `MmeCore` with an HSS and an S-GW stub,
//! all dropped before the count is read, so what is left is the cell's.

use scale_epc::{imsi_of, DriveMode, EmuEvent, EmulatorConfig, EnbEmulator, Hss, Sgw};
use scale_mme::{Incoming, MmeConfig, MmeCore, Outgoing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    LIVE.with(|l| l.set(l.get() + delta));
}

// SAFETY: every call is passed through to `System` unchanged; the
// counter is a plain thread-local cell with no destructor, so noting a
// request neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Sessions the cell keeps open at once.
const WINDOW: usize = 16;

/// What one window's connections may cost the cell beyond its build:
/// the eNodeB's connection and S1AP-id tables at their peak.
const WINDOW_BYTES: isize = 128 * WINDOW as isize;

fn cell(n_ues: usize) -> EnbEmulator {
    EnbEmulator::new(&EmulatorConfig {
        cell: 0,
        n_cells: 1,
        n_local_ues: n_ues,
        ops_per_ue: 2,
        seed: 7,
        mode: DriveMode::Closed { window: WINDOW },
    })
}

/// Run every session of `emu`'s population to completion against one
/// engine, looping its S6a and S11 requests through an HSS and an S-GW.
fn run_to_completion(emu: &mut EnbEmulator, n_ues: usize) {
    let mut engine = MmeCore::new(MmeConfig::default());
    let mut hss = Hss::new(7);
    assert!(hss.provision_span(&imsi_of(0), n_ues as u64));
    let mut sgw = Sgw::new([10, 0, 0, 2]);
    emu.start();
    loop {
        let events = emu.drain();
        if events.is_empty() {
            break;
        }
        for ev in events {
            let EmuEvent::Uplink { attach_hint, pdu } = ev else {
                continue;
            };
            if let Some(m_tmsi) = attach_hint {
                engine.set_guti_hint(m_tmsi);
            }
            let mut queue = VecDeque::from([Incoming::S1ap {
                enb_id: emu.enb_id(),
                pdu,
            }]);
            while let Some(ev) = queue.pop_front() {
                for out in engine.handle(ev).expect("the engine serves the cell") {
                    match out {
                        Outgoing::S1ap { pdu, .. } => emu.handle_downlink(pdu),
                        Outgoing::S6a(msg) => queue.push_back(Incoming::S6a(hss.handle(&msg))),
                        Outgoing::S11(msg) => queue.extend(sgw.handle(msg).map(Incoming::S11)),
                        Outgoing::UeActive { guti } => emu.settled(guti.m_tmsi, true),
                        Outgoing::UeIdle { guti } => emu.settled(guti.m_tmsi, false),
                        Outgoing::UeAttached { .. } | Outgoing::UeDetached { .. } => {}
                    }
                }
            }
        }
    }
    assert!(emu.done(), "sessions left unfinished");
    assert_eq!(emu.counts.errors, 0, "{:?}", emu.error_samples());
    assert_eq!(emu.counts.attaches, n_ues as u64);
}

/// The heap a cell of `n_ues` devices gains from build to the end of
/// its run.
fn grown_over_run(n_ues: usize) -> isize {
    let start = live();
    let mut emu = cell(n_ues);
    let built = live() - start;
    run_to_completion(&mut emu, n_ues);
    let held = live() - start;
    println!("cell of {n_ues}: {built} B built, {held} B after every session");
    held - built
}

/// A cell that remembered every connection it ever opened grew by
/// about 35 B per device here: 18.5 kB at 500 devices, 70.8 kB at 2,000.
#[test]
fn a_cell_holds_what_it_was_built_with_plus_one_window() {
    // Anything allocated once per process on first use is allocated
    // here, outside the count.
    grown_over_run(WINDOW);
    for n_ues in [500, 2_000] {
        let grown = grown_over_run(n_ues);
        assert!(
            grown <= WINDOW_BYTES,
            "a cell of {n_ues} grew by {grown} B over its run, over {WINDOW_BYTES} B"
        );
    }
}
