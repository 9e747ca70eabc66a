//! Relay by bytes ≡ decode → `MlbState` → encode.
//!
//! A recorded 2,000-session slice of the traffic that reaches an MLB is
//! replayed, from the bytes its three links deliver, through both forms
//! of the MLB's receive → route → send path (`scale_sim::replay`): the
//! typed one, and the deployment's own `Router` over links that end in
//! buffers. Every link must carry the same bytes either way, and the
//! routing state must end up the same.

use scale_sim::replay::{swap_neighbours, MlbReplay, Recording};
use scale_sim::{WireMode, WireRunConfig};
use std::hash::{DefaultHasher, Hasher};

/// One cell and two workers — three links at the MLB — and every
/// procedure class.
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

fn fingerprint(mlb: &MlbReplay) -> u64 {
    let mut h = DefaultHasher::new();
    mlb.state().fingerprint(&mut h);
    h.finish()
}

/// Replay the slice through the typed reference and — each read first
/// put through `as_delivered` — through the router, comparing every
/// link's bytes after every read.
fn both_ways(as_delivered: impl Fn(&[u8]) -> Vec<u8>) {
    let cfg = slice();
    let rec = Recording::of(&cfg);
    let (mut reference, mut peers) = MlbReplay::new(&cfg);
    let (mut relayed, _) = MlbReplay::new(&cfg);
    // Reads of up to 24 messages: batches, as a loaded link has them.
    let reads = peers.reads_of(rec.inbound.iter().map(|(link, msg)| (*link, msg)), 24);

    let (mut messages, mut carried) = (0, 0);
    for (from, read) in &reads {
        let n = reference.typed_read(*from, read);
        assert_eq!(relayed.read(*from, &as_delivered(read)), n);
        messages += n;
        for link in 0..cfg.n_enbs + cfg.n_mmps {
            let (got, want) = (relayed.sent(link), reference.sent(link));
            assert!(*got == *want, "link {link} diverged");
            carried += want.len();
        }
        reference.clear_sent();
        relayed.clear_sent();
    }
    assert_eq!(relayed.state().stats, reference.state().stats);
    assert_eq!(fingerprint(&relayed), fingerprint(&reference));
    let s = reference.state().stats;
    assert_eq!(s.routed_attaches, cfg.n_ues as u64);
    assert_eq!(s.dropped + s.errors, 0);
    // The slice is real traffic: some thirty messages a session, each
    // of them but the S1 Setup going on, framed, as seventy bytes or so.
    assert_eq!(messages, rec.inbound.len());
    assert!(messages > 25 * cfg.n_ues, "{messages} messages");
    assert!(carried > 60 * messages, "{carried} bytes carried");
}

#[test]
fn a_recorded_slice_leaves_the_mlb_as_the_same_bytes_either_way() {
    both_ways(<[u8]>::to_vec);
}

/// A message that arrives ahead of its turn is held, delivered from the
/// reorder buffer instead of the read buffer, and relayed by the same
/// code: with every second frame of every read overtaking the one
/// before it, the links still carry the in-order reference's bytes.
#[test]
fn messages_out_of_the_reorder_buffer_are_relayed_the_same() {
    both_ways(swap_neighbours);
}
