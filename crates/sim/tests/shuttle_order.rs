//! The shuttle's delivery order, pinned: a hash over every message on
//! the MLB's links in the smoke run — direction, cell or worker, and
//! bytes, in the order the shuttle showed them. The order is what the
//! shuttle produced as one queue of typed hops, before it ran on the
//! pump's stamped byte links; one FIFO over those links must keep it.
//!
//! The bytes hash moves whenever an authentication vector's bytes do
//! (the SQN layout, the RAND stream); the second pin, over each
//! message's direction, peer, wire tag and length only, must not: it
//! holds the message sequence to what it was before vectors changed.
//!
//! Both moved once more, with the compact replica blob: every one of the
//! run's 1,230 `Replicate` messages is 19 bytes shorter, and no other
//! message changed length or order. The bytes of two other kinds moved
//! with the S11 TEID, now the M-TMSI, which the workers' S-GW stub
//! mirrors into the S1-U TEID and the PDN address: the 1,874 Initial
//! Context Setup Requests and the 798 Attach Accepts (whose ciphertext
//! and MAC follow the address).

use scale_core::wire::Link;
use scale_sim::{run_shuttle_tapped, WireRunConfig};
use std::hash::{DefaultHasher, Hash, Hasher};

/// (messages, hash of every message's bytes, hash of every message's
/// direction, cell or worker, wire tag and length) of the smoke run.
fn tapped() -> (u64, u64, u64) {
    let (mut bytes, mut shape) = (DefaultHasher::new(), DefaultHasher::new());
    let mut n = 0u64;
    run_shuttle_tapped(&WireRunConfig::smoke(), &mut |tap| {
        let (dir, id) = match tap.link {
            Link::EnbToMlb(c) => (0u8, c),
            Link::MmpToMlb(w) => (1, w),
            Link::MlbToMmp(w) => (2, w),
            Link::MlbToEnb(c) => (3, c),
        };
        (dir, id, tap.bytes.first().copied(), tap.bytes.len()).hash(&mut shape);
        (dir, id, tap.bytes).hash(&mut bytes);
        n += 1;
    });
    (n, bytes.finish(), shape.finish())
}

#[test]
fn the_shuttle_delivers_in_the_order_it_always_has() {
    let (n, bytes, _) = tapped();
    assert_eq!((n, bytes), (23_656, 0x4970_1425_9be0_7a71));
}

#[test]
fn the_shuttle_sends_the_messages_it_always_has() {
    let (n, _, shape) = tapped();
    assert_eq!((n, shape), (23_656, 0xbb46_fe22_dee6_d197));
}
