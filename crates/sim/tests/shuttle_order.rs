//! The shuttle's delivery order, pinned: a hash over every message on
//! the MLB's links in the smoke run — direction, cell or worker, and
//! bytes, in the order the shuttle showed them. The constant is what
//! the shuttle produced as one queue of typed hops, before it ran on
//! the pump's stamped byte links; one FIFO over those links must keep
//! it.

use scale_core::wire::Link;
use scale_sim::{run_shuttle_tapped, WireRunConfig};
use std::hash::{DefaultHasher, Hash, Hasher};

#[test]
fn the_shuttle_delivers_in_the_order_it_always_has() {
    let mut h = DefaultHasher::new();
    let mut n = 0u64;
    run_shuttle_tapped(&WireRunConfig::smoke(), &mut |tap| {
        let (dir, id) = match tap.link {
            Link::EnbToMlb(c) => (0u8, c),
            Link::MmpToMlb(w) => (1, w),
            Link::MlbToMmp(w) => (2, w),
            Link::MlbToEnb(c) => (3, c),
        };
        (dir, id, tap.bytes).hash(&mut h);
        n += 1;
    });
    assert_eq!((n, h.finish()), (23_656, 0x4822_503b_29f2_adb1));
}
