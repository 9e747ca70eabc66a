//! Heap bytes an `MmeCore` keeps per context, exact and immune to host
//! noise: this binary's allocator keeps a running total of the bytes a
//! test's own thread holds, so "bytes per replica copy" — the `S` that
//! sizes an MMP fleet by memory (Eq 1) — reads the same every run.
//!
//! The copies are imported as replica blobs, the way a holder receives
//! them on every Idle edge: a registered device with a security context
//! and one TAI, 127 bytes on the wire. An imported copy stays at rest as
//! those bytes; a TAU wakes it into a decoded record, and the release
//! that ends the TAU puts it back to rest.

use bytes::Bytes;
use scale_mme::{Incoming, MmeConfig, MmeCore, Outgoing};
use scale_nas::{EmmMessage, Guti, Imsi, Plmn, Tai};
use scale_s1ap::S1apPdu;
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

/// A registered, Idle device after attach: the reference image of
/// `context_blob_images.rs`, VM 5's engine.
const TEMPLATE: &str = "f98765432101010000f110800101050000010200f11000010100f1100001\
0500000001000000020a0000026440000102b0fc28d2e768b9795a26ae37f5b1f75da912e0a157f82a6b2a\
14eaa073dcc2a69a687f86956f17e6cffa0bca72560dc0cf3eb26fe4701a4b265aa16f870c1a6e00000200\
0002000000000000000000";

/// Where the template keeps what differs per device: the packed IMSI
/// and the GUTI's M-TMSI (which is the S11 TEID as well).
const IMSI_AT: usize = 0;
const M_TMSI_AT: usize = 14;

const BASE: u32 = 0x0100_0000;

/// Device `i`'s replica blob, built fresh: IMSI 00101‖i and an M-TMSI of
/// its own.
fn blob(i: u32) -> Bytes {
    let mut b: Vec<u8> = (0..TEMPLATE.len())
        .step_by(2)
        .map(|k| u8::from_str_radix(&TEMPLATE[k..k + 2], 16).expect("hex"))
        .collect();
    let imsi = Imsi::from_ascii(format!("00101{i:010}").as_bytes()).expect("15 digits");
    b[IMSI_AT..IMSI_AT + 8].copy_from_slice(&imsi.packed().to_be_bytes());
    b[M_TMSI_AT..M_TMSI_AT + 4].copy_from_slice(&(BASE + i).to_be_bytes());
    Bytes::from(b)
}

fn guti(i: u32) -> Guti {
    Guti {
        plmn: Plmn::test(),
        mme_group_id: 0x8001,
        mme_code: 1,
        m_tmsi: BASE + i,
    }
}

/// Import devices `range` into `engine`; the bytes it holds afterwards
/// beyond what it held before. Each blob is made and consumed inside,
/// so only what the engine keeps is counted.
fn import(engine: &mut MmeCore, range: std::ops::Range<u32>) -> isize {
    let before = live();
    for i in range {
        let got = engine.import_state(blob(i)).expect("template imports");
        assert_eq!(got.m_tmsi, BASE + i);
    }
    live() - before
}

/// A TAU from Idle for device `i`: its copy wakes into a decoded record,
/// on the connection the TAU opens. Returns the S1AP id the engine
/// minted for that connection, as its Release Command carries it.
fn tau(engine: &mut MmeCore, i: u32) -> u32 {
    let tai = Tai::new(Plmn::test(), 0x42);
    let out = engine
        .handle(Incoming::S1ap {
            enb_id: 1,
            pdu: S1apPdu::InitialUeMessage {
                enb_ue_id: 1,
                nas_pdu: EmmMessage::TauRequest { guti: guti(i), tai }.encode(),
                tai,
                establishment_cause: 4,
                s_tmsi: Some((1, guti(i).m_tmsi)),
            },
        })
        .expect("a held device is served");
    match &out[..] {
        [_, Outgoing::S1ap {
            pdu: S1apPdu::UeContextReleaseCommand { mme_ue_id, .. },
            ..
        }] => *mme_ue_id,
        other => panic!("expected TAU accept + release command, got {other:?}"),
    }
}

/// The release that ends the TAU on connection `mme_ue_id`: its device's
/// copy goes back to rest.
fn release(engine: &mut MmeCore, mme_ue_id: u32) {
    let out = engine
        .handle(Incoming::S1ap {
            enb_id: 1,
            pdu: S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id: 1,
            },
        })
        .expect("the release completes");
    assert!(matches!(&out[..], [Outgoing::UeIdle { .. }]), "{out:?}");
}

/// A copy at rest costs at most 170 heap bytes: the 127-byte blob and
/// its one-byte tail in one allocation, and one index bucket — the
/// copy's own 16-byte box in the at-rest set, keyed by the M-TMSI inside
/// its blob (the S11 TEID is the M-TMSI, and no table is keyed by IMSI).
/// Measured at `wire_saturate`'s load per engine (30,000 devices × R = 2
/// over 16 VMs), where it reads 165.1, and at ten times that (157.7).
/// With a 12-byte IMSI entry beside it, it read 193.5 and 180.4; with a
/// 24-byte at-rest entry keyed by a `u32` and a 16-byte IMSI entry,
/// 219.8 and 201.4.
#[test]
fn an_at_rest_copy_costs_at_most_170_heap_bytes() {
    assert_eq!(blob(0).len(), 127);
    for n in [3_750u32, 37_500] {
        let mut engine = MmeCore::new(MmeConfig::default());
        let held = import(&mut engine, 0..n);
        assert_eq!(engine.context_count(), n as usize);
        let per_ctx = held as f64 / f64::from(n);
        println!("{n} contexts at rest: {per_ctx:.1} heap bytes per context");
        assert!(per_ctx <= 170.0, "{per_ctx:.1} bytes per context at {n}");
    }
}

/// The same copies, split into the blob's allocation (128 bytes with its
/// tail) and what the index adds: at most 40 bytes. The set's buckets
/// hold 16 + 1 bytes (entry and control byte) at a load between 46 %
/// (3,750 copies in 8,192 buckets: 37.1 bytes) and 57 % (37,500 in
/// 65,536: 29.7); with a 12-byte IMSI entry as well they came to 65.5
/// and 52.4, and with the wider entries before that to 91.7 and 73.4.
#[test]
fn a_replica_copy_costs_its_blob_and_at_most_40_bytes_of_index() {
    const BLOB_ALLOCATION: f64 = 128.0;
    for n in [3_750u32, 37_500] {
        let mut engine = MmeCore::new(MmeConfig::default());
        let held = import(&mut engine, 0..n);
        assert_eq!(engine.context_count(), n as usize);
        let index = held as f64 / f64::from(n) - BLOB_ALLOCATION;
        println!("{n} contexts: {index:.1} index bytes per context");
        assert!(index <= 40.0, "{index:.1} index bytes per context at {n}");
    }
}

/// A replica arrives as a slice of the buffer its link read it into;
/// the copy kept is the blob's own bytes, not that buffer.
#[test]
fn an_imported_copy_does_not_keep_its_read_buffer_alive() {
    let mut engine = MmeCore::new(MmeConfig::default());
    let before = live();
    {
        let mut read = vec![0u8; 64 * 1024];
        let b = blob(0);
        read[1000..1000 + b.len()].copy_from_slice(&b);
        let read = Bytes::from(read);
        engine
            .import_state(read.slice(1000..1000 + b.len()))
            .expect("template imports");
    }
    let held = live() - before;
    println!("one copy imported from a 64 KiB read: {held} heap bytes held");
    assert!(held < 1024, "{held} bytes held for one 127-byte copy");
}

/// Devices come and go, and wake and rest; the engine's footprint
/// follows the population, not its history: ten rounds of removing half
/// the devices and importing as many new ones, then running a TAU on a
/// quarter of them, 64 at a time, and releasing each batch back to rest,
/// leave live bytes within 5 % of where they started.
#[test]
fn churn_does_not_grow_the_footprint() {
    const N: u32 = 3_750;
    let mut engine = MmeCore::new(MmeConfig::default());
    let mut present: Vec<u32> = (0..N).collect();
    let start = live();
    import(&mut engine, 0..N);
    let settled = live() - start;
    let mut next = N;
    for round in 0..10 {
        let mut kept = Vec::with_capacity(present.len());
        for (k, &i) in present.iter().enumerate() {
            if (k + round) % 2 == 0 {
                assert!(engine.remove_context(&guti(i)));
            } else {
                kept.push(i);
            }
        }
        let fresh = N - kept.len() as u32;
        import(&mut engine, next..next + fresh);
        kept.extend(next..next + fresh);
        next += fresh;
        present = kept;
        assert_eq!(engine.context_count(), N as usize);
        for batch in present.chunks(64).step_by(4) {
            let ids: Vec<u32> = batch.iter().map(|&i| tau(&mut engine, i)).collect();
            for id in ids {
                release(&mut engine, id);
            }
        }
    }
    let after = live() - start;
    println!("churn: {settled} → {after} bytes over ten rounds");
    assert!(
        after as f64 <= settled as f64 * 1.05,
        "{settled} → {after} bytes over ten rounds of churn"
    );
}
