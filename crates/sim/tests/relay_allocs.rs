//! Allocation counts of the wire path, exact and immune to host noise:
//! this binary's allocator counts every request a test's own thread
//! makes, so a test reads "allocations per relayed message" the way a
//! timing bench reads nanoseconds — but the same number every run.

use bytes::Bytes;
use scale_core::wire::{MmpNode, WireMsg};
use scale_s1ap::S1apPdu;
use scale_sctplite::Frame;
use scale_sim::replay::{MlbReplay, MmpReplay, Recording};
use scale_sim::{WireMode, WireRunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests and the largest single request, per thread (the harness
/// runs tests side by side).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is passed through to `System` unchanged; the
// counters are plain thread-local cells with no destructor, so noting a
// request neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(requests, largest request in bytes)` this thread made inside `f`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = ALLOCS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

/// No decoder sizes memory from a length or count it has read before
/// checking it against what is actually there: a short message that
/// announces a huge blob, IE, list or frame body costs no more than a
/// short message.
#[test]
fn a_length_field_never_sizes_an_allocation_beyond_the_input() {
    let mut hostile: Vec<(&str, Vec<u8>)> = Vec::new();
    // WireMsg blobs: Replicate and the three PDU-bearing envelopes, each
    // announcing 4 GiB - 1 and carrying four bytes.
    hostile.push((
        "replicate blob",
        [&[6, 0, 0, 0, 1][..], &[0xFF; 4], &[0; 4]].concat(),
    ));
    hostile.push((
        "uplink pdu",
        [&[2, 0, 0, 0, 1, 0][..], &[0xFF; 4], &[0; 4]].concat(),
    ));
    hostile.push((
        "deliver pdu",
        [&[3, 0, 0, 0, 1, 0, 0, 0, 0, 1][..], &[0xFF; 4], &[0; 4]].concat(),
    ));
    hostile.push((
        "to-enb pdu",
        [&[4, 0, 0, 0, 1][..], &[0xFF; 4], &[0; 4]].concat(),
    ));
    for (what, bytes) in &hostile {
        let (res, _, largest) = measured(|| WireMsg::decode(Bytes::from(bytes.clone())));
        assert!(res.is_err(), "{what}: decoded");
        // The input itself is moved into the `Bytes`, plus its handle.
        assert!(
            largest <= 64,
            "{what}: a {largest}-byte request from {} bytes",
            bytes.len()
        );
    }

    // S1AP: an IE announcing 65,535 bytes, and the count-prefixed lists
    // (E-RABs, TAIs, GUMMEIs) announcing 255 entries, each with nothing
    // behind the count.
    let ie = |id: u16, value: &[u8]| {
        let mut v = id.to_be_bytes().to_vec();
        v.extend_from_slice(&(value.len() as u16).to_be_bytes());
        v.extend_from_slice(value);
        v
    };
    let ids = [ie(0, &[0; 4]), ie(8, &[0; 4])].concat();
    let s1ap: Vec<(&str, Vec<u8>)> = vec![
        ("ie length", vec![0, 13, 0, 26, 0xFF, 0xFF, 1, 2, 3]),
        ("e-rab count", [&[1, 9][..], &ids, &ie(28, &[255])].concat()),
        (
            "tai count",
            [&[0, 10][..], &ie(80, &[1, 0, 0, 0, 1]), &ie(46, &[255])].concat(),
        ),
        (
            "gummei count",
            [&[1, 17][..], &ie(61, b"m"), &ie(105, &[255]), &ie(87, &[1])].concat(),
        ),
    ];
    for (what, bytes) in &s1ap {
        let (res, _, largest) = measured(|| S1apPdu::decode(Bytes::from(bytes.clone())));
        assert!(res.is_err(), "{what}: decoded");
        // 255 entries of the smallest list element would be 1,530.
        assert!(
            largest <= 256,
            "{what}: a {largest}-byte request from {} bytes",
            bytes.len()
        );
    }

    // A frame whose chunk length says 65,535 with ten bytes behind it.
    let frame = [&[0, 0, 0, 1, 0, 0, 0xFF, 0xFF][..], &[0; 10]].concat();
    let (res, _, largest) = measured(|| Frame::decode(Bytes::from(frame.clone())));
    assert!(res.is_err());
    assert!(
        largest <= 64,
        "frame: a {largest}-byte request from {} bytes",
        frame.len()
    );
}

/// One cell and two workers, every procedure class: the slice the
/// relay differential replays.
fn slice() -> WireRunConfig {
    WireRunConfig {
        n_enbs: 1,
        n_mmps: 2,
        total_vms: 8,
        replication: 2,
        ring_tokens: 64,
        seed: 19,
        n_ues: 2000,
        ops_per_ue: 2,
        mode: WireMode::Closed { window: 64 },
    }
}

/// The MLB forwards bytes, not objects: once its buffers and routing
/// tables have seen the traffic, relaying a message — deframe, parse,
/// route, queue, number, frame, copy: the deployment's `Router`, fed by
/// an `Ingress` and writing into buffers — asks the allocator for
/// nothing. (The
/// codec this replaced made 17.14 requests per relayed message on this
/// slice: a `Bytes` per frame and per IE, a `Vec` of IEs, two buffers
/// per encode, per layer.)
#[test]
fn relaying_a_recorded_slice_allocates_nothing_at_the_mlb() {
    let cfg = slice();
    let rec = Recording::of(&cfg);
    let (mut mlb, mut peers) = MlbReplay::new(&cfg);
    // The one message the MLB answers itself, once per cell, is built
    // as a typed value; everything else is relayed.
    let relayed = || {
        rec.inbound
            .iter()
            .filter(|(_, msg)| {
                !matches!(
                    WireMsg::decode(msg.clone()),
                    Ok(WireMsg::Uplink {
                        pdu: S1apPdu::S1SetupRequest { .. },
                        ..
                    })
                )
            })
            .map(|(link, msg)| (*link, msg))
    };
    let pass = |mlb: &mut MlbReplay, reads: &[(usize, Vec<u8>)]| {
        let mut messages = 0;
        for (from, read) in reads {
            messages += mlb.read(*from, read);
            mlb.clear_sent();
        }
        messages
    };
    let warm_up = peers.reads_of(relayed(), 24);
    let again = peers.reads_of(relayed(), 24);
    assert_eq!(pass(&mut mlb, &warm_up), rec.inbound.len() - 1);
    let (messages, allocs, _) = measured(|| pass(&mut mlb, &again));
    assert_eq!(messages, rec.inbound.len() - 1);
    assert_eq!(mlb.state().stats.dropped + mlb.state().stats.errors, 0);
    // Nothing per message. (The routing tables are `HashMap`s under
    // insert/remove churn with a per-process hash seed: about one run
    // in six, one of them moves house once during the pass.)
    assert!(
        allocs <= 2,
        "{allocs} allocations over {messages} relayed messages"
    );
}

/// Allocations per message of a worker's receive → handle → send loop
/// that are the transport's and the codec's, not the engine's: the loop
/// over the recorded slice, less `MmpNode::handle` alone over the same
/// messages. The codec this replaced read 16.4 here (its loop measured
/// on the same slice with the same subtraction); what is left is one
/// shared copy per read and the `Vec`s typed PDUs hold.
#[test]
fn a_workers_transport_share_of_allocations_is_a_fraction_of_what_it_was() {
    const BEFORE: f64 = 16.4;
    let cfg = slice();
    let rec = Recording::of(&cfg);
    let msgs = &rec.to_mmp[0];

    let (mut worker, mut peers) = MmpReplay::new(&cfg, 0);
    let reads = peers.reads_of(msgs.iter().map(|m| (0, m)), 24);
    let (delivered, in_loop, _) = measured(|| {
        let mut delivered = 0;
        for (_, read) in &reads {
            delivered += worker.read(read);
            worker.clear_sent();
        }
        delivered
    });
    assert_eq!(delivered, msgs.len());
    assert_eq!(worker.node().errors, 0);

    let mut engine = MmpNode::new(&cfg.topo(), 0);
    let inputs: Vec<WireMsg> = msgs
        .iter()
        .map(|m| WireMsg::decode(m.clone()).unwrap())
        .collect();
    let mut out = Vec::with_capacity(64);
    let ((), in_engine, _) = measured(|| {
        for msg in inputs {
            engine.handle(msg, &mut out);
            out.clear();
        }
    });
    assert_eq!(
        engine.stats(),
        worker.node().stats(),
        "the twin did the same work"
    );

    let share = (in_loop - in_engine) as f64 / msgs.len() as f64;
    println!("worker transport share: {share:.2} allocations per message (was {BEFORE})");
    assert!(share <= BEFORE / 3.0, "{share:.2} allocations per message");
}
