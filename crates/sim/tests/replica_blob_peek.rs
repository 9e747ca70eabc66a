//! A worker keeps an Idle copy at rest as the replica blob it received,
//! indexed under the keys `UeContext::peek` reads from the bytes. The
//! peek must read what the full decode reads, on the blobs a deployment
//! really makes: every replica the workers of a recorded shuttle run
//! exchanged, and every copy resident on them at its end.

use scale_core::wire::{MmpNode, WireMsg};
use scale_mme::UeContext;
use scale_sim::replay::Recording;
use scale_sim::{WireMode, WireRunConfig};

#[test]
fn the_peek_reads_what_the_decoder_reads_on_every_blob_of_a_shuttle_run() {
    let cfg = WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed: 36,
        n_ues: 400,
        ops_per_ue: 6,
        mode: WireMode::Closed { window: 64 },
    };
    let rec = Recording::of(&cfg);
    let mut blobs = Vec::new();
    let mut out = Vec::new();
    for (index, msgs) in rec.to_mmp.iter().enumerate() {
        let mut node = MmpNode::new(&cfg.topo(), index);
        for msg in msgs {
            let msg = WireMsg::decode(msg.clone()).expect("a recorded message decodes");
            node.handle(msg, &mut out);
            blobs.extend(out.drain(..).filter_map(|m| match m {
                WireMsg::Replicate { blob, .. } => Some(blob),
                _ => None,
            }));
        }
        assert_eq!(node.errors, 0, "{:?}", node.error_samples());
        blobs.extend(node.contexts().map(|(_, ctx)| ctx.to_bytes()));
    }
    assert!(blobs.len() > cfg.n_ues * cfg.replication, "{} blobs", blobs.len());
    for blob in &blobs {
        let keys = UeContext::peek(blob).expect("a blob the deployment made peeks");
        let ctx = UeContext::from_bytes(blob.clone()).expect("and decodes");
        assert_eq!(
            (keys.imsi, keys.guti, keys.mme_ue_id, keys.s11_mme_teid),
            (ctx.imsi, ctx.guti, ctx.mme_ue_id, ctx.bearer.s11_mme_teid)
        );
        assert_eq!(keys.access_freq.to_bits(), ctx.access_freq.to_bits());
    }
}
