//! A registered device's resident state does not depend on how many
//! procedures it has run: Eq 1 sizes the MMP fleet by a fixed `S` per
//! device, and an IoT device spends its life cycling Idle ↔ Active.
//! Exact and immune to host noise: this binary's allocator keeps a
//! running total of the bytes a test's own thread holds.
//!
//! Two deployments are held to it. The wire deployment's workers
//! (`MmpNode`) are fed, in fresh nodes, exactly what a shuttle run's
//! MLB sent them; the reference cluster (`ScaleDc`) runs inside the
//! EPC harness. Each population is measured after its attach and
//! first release, and again after it has also run 32 Idle-mode
//! procedures; what a device holds may grow by at most 5 %. A worker's
//! bytes per device are also held to an absolute bound: its HSS front
//! end keeps nothing per subscriber, so they are the device's contexts
//! and the engines' indexes alone.

use scale_core::cluster::{ScaleConfig, ScaleDc};
use scale_core::wire::{MmpNode, WireMsg};
use scale_epc::Network;
use scale_sim::replay::Recording;
use scale_sim::{WireMode, WireRunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Bytes held, per thread (the harness runs tests side by side).
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

/// Idle-mode procedures per device in the long-lived population:
/// `engine_idle_churn`'s count.
const OPS: usize = 32;

/// Allowed growth of a device's bytes over `OPS` procedures.
const FLAT: f64 = 1.05;

/// Heap a worker may hold per device, after any number of procedures:
/// 457 B after none and 473 B after 32 with at-rest copies keyed by
/// their own M-TMSI bytes and no IMSI index; 12-byte IMSI entries as
/// well held 493 B and 509 B, a `u32`-keyed at-rest map and 16-byte
/// IMSI entries 526 B and 542 B, the 146-byte blob and an S11-TEID
/// index 589 B and 606 B, and an HSS that kept a record per subscriber
/// 663 B and 681 B.
const WORKER_BYTES_PER_DEVICE: f64 = 480.0;

/// `engine_idle_churn`'s fleet (16 VMs, R = 2) on two workers and two
/// cells, at a population a debug build replays in seconds.
fn fleet(ops_per_ue: usize) -> WireRunConfig {
    WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed: 35,
        n_ues: 1_500,
        ops_per_ue,
        mode: WireMode::Closed { window: 64 },
    }
}

/// Heap bytes per device the workers hold after handling everything the
/// MLB sent them in a run of `cfg`.
fn worker_bytes_per_device(cfg: &WireRunConfig) -> f64 {
    let rec = Recording::of(cfg);
    let before = live();
    let mut out = Vec::new();
    let nodes: Vec<MmpNode> = rec
        .to_mmp
        .iter()
        .enumerate()
        .map(|(index, msgs)| {
            let mut node = MmpNode::new(&cfg.topo(), index);
            for msg in msgs {
                let msg = WireMsg::decode(msg.clone()).expect("a recorded message decodes");
                node.handle(msg, &mut out);
                out.clear();
            }
            assert_eq!(node.errors, 0, "{:?}", node.error_samples());
            node
        })
        .collect();
    drop(out);
    let held = live() - before;
    let contexts: usize = nodes.iter().map(MmpNode::contexts_held).sum();
    assert_eq!(
        contexts,
        cfg.n_ues * cfg.replication,
        "every device on R holders"
    );
    held as f64 / cfg.n_ues as f64
}

/// The workers' heap per device after 32 Idle-mode procedures is within
/// 5 % of what it is after none, and both are within
/// [`WORKER_BYTES_PER_DEVICE`]. (Before every S11 response retired its
/// transaction, each S1 release left an entry behind: +52 % here.)
#[test]
fn a_workers_bytes_per_device_do_not_grow_with_its_procedures() {
    let settled = worker_bytes_per_device(&fleet(0));
    let cycled = worker_bytes_per_device(&fleet(OPS));
    println!("MmpNode heap per device: {settled:.0} B after 0 ops, {cycled:.0} B after {OPS}");
    assert!(
        cycled <= settled * FLAT,
        "{settled:.0} → {cycled:.0} B per device over {OPS} procedures"
    );
    assert!(
        settled.max(cycled) <= WORKER_BYTES_PER_DEVICE,
        "{settled:.0} B and {cycled:.0} B per device, over {WORKER_BYTES_PER_DEVICE} B"
    );
}

/// `ScaleDc` behind the EPC harness: `n` devices attached and Idle.
fn reference_cluster(n: usize) -> Network<ScaleDc> {
    let dc = ScaleDc::new(ScaleConfig {
        initial_vms: 16,
        ..Default::default()
    });
    let mut net = Network::new(dc, 2);
    net.s1_setup();
    for ue in 0..n {
        net.add_ue(&format!("00101{ue:010}"), ue % 2);
    }
    for ue in 0..n {
        assert!(
            net.attach(ue) && net.go_idle(ue),
            "ue {ue}: {:?}",
            net.errors
        );
    }
    net.take_events();
    net
}

/// The same bound on the reference cluster: whatever the whole harness
/// holds — the cluster, and the devices, cells, HSS and S-GW around it —
/// grows by at most 5 % over 32 cycles of Service Request and release.
#[test]
fn the_reference_clusters_bytes_per_device_do_not_grow_with_its_procedures() {
    const N: usize = 1_000;
    let start = live();
    let mut net = reference_cluster(N);
    let settled = (live() - start) as f64 / N as f64;
    for _ in 0..OPS {
        for ue in 0..N {
            assert!(
                net.service_request(ue) && net.go_idle(ue),
                "ue {ue}: {:?}",
                net.errors
            );
        }
        net.take_events();
    }
    assert!(net.errors.is_empty(), "{:?}", net.errors);
    let cycled = (live() - start) as f64 / N as f64;
    println!(
        "ScaleDc harness heap per device: {settled:.0} B after 0 ops, {cycled:.0} B after {OPS}"
    );
    assert!(
        cycled <= settled * FLAT,
        "{settled:.0} → {cycled:.0} B per device over {OPS} procedures"
    );
}
