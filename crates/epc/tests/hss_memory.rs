//! The HSS front end keeps nothing per subscriber: answering AIRs for
//! ten thousand distinct IMSIs, each provisioned just before it asks
//! (as a worker meets its devices), it holds no more heap than after
//! the first. Exact and immune to host noise: this binary's allocator
//! keeps a running total of the bytes the test's thread holds.

use scale_diameter::{DiameterMsg, S6a};
use scale_epc::{imsi_of, Hss};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn air(imsi: String) -> DiameterMsg {
    S6a::AuthInfoRequest {
        imsi,
        visited_plmn: [0x00, 0xf1, 0x10],
        vectors: 1,
        resync: None,
    }
    .into_msg(1, 1)
}

#[test]
fn an_hss_answering_ten_thousand_subscribers_holds_what_it_held_after_one() {
    let start = live();
    let mut hss = Hss::new(7);
    let mut answer = |u: usize| {
        let imsi = imsi_of(u);
        assert!(hss.provision(&imsi));
        let aia = hss.handle(&air(imsi));
        assert!(matches!(
            S6a::from_msg(&aia),
            Ok(S6a::AuthInfoAnswer { vectors, .. }) if vectors.len() == 1
        ));
    };
    answer(0);
    let after_one = live() - start;
    for u in 1..10_000 {
        answer(u);
    }
    let after_all = live() - start;
    assert!(
        after_all <= after_one,
        "{after_one} B after one subscriber, {after_all} B after 10,000"
    );
}
