//! A worker keeps an Idle copy at rest as the replica blob it received,
//! indexed under the keys `UeContext::peek` reads from the bytes. The
//! peek must read what the full decode reads, on the blobs a deployment
//! really makes: every replica the workers of a recorded shuttle run
//! exchanged, and every copy resident on them at its end. And the blob
//! must carry everything a record holds at its Idle edge that it does
//! not rebuild: the decode of each Idle edge's blob is the record.

use scale_core::wire::{MmpNode, WireMsg};
use scale_mme::{EcmState, Procedure, UeContext};
use scale_s1ap::S1apPdu;
use scale_sim::replay::Recording;
use scale_sim::{WireMode, WireRunConfig};

fn config() -> WireRunConfig {
    WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed: 36,
        n_ues: 400,
        ops_per_ue: 6,
        mode: WireMode::Closed { window: 64 },
    }
}

#[test]
fn the_peek_reads_what_the_decoder_reads_on_every_blob_of_a_shuttle_run() {
    let cfg = config();
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
        assert_eq!((keys.imsi, keys.guti), (ctx.imsi, ctx.guti));
        assert_eq!(keys.access_freq.to_bits(), ctx.access_freq.to_bits());
        // The TEID is rebuilt, not read: the M-TMSI once a bearer exists.
        let teid = if ctx.bearer.ebi == 0 { 0 } else { ctx.guti.m_tmsi };
        assert_eq!(ctx.bearer.s11_mme_teid, teid);
    }
}

#[test]
fn every_record_at_its_idle_edge_is_what_its_blob_decodes_to() {
    let cfg = config();
    let rec = Recording::of(&cfg);
    let mut out = Vec::new();
    let mut edges = 0;
    for (index, msgs) in rec.to_mmp.iter().enumerate() {
        let mut node = MmpNode::new(&cfg.topo(), index);
        for msg in msgs {
            let msg = WireMsg::decode(msg.clone()).expect("a recorded message decodes");
            // A Release Complete is where a record reaches its Idle edge:
            // keep the decoded records of the connection it names.
            let releasing: Vec<UeContext> = match &msg {
                WireMsg::Deliver {
                    vm,
                    pdu: S1apPdu::UeContextReleaseComplete { mme_ue_id, .. },
                    ..
                } => node
                    .contexts()
                    .filter(|(v, c)| v == vm && c.ecm != EcmState::Idle && c.mme_ue_id == *mme_ue_id)
                    .map(|(_, c)| c.clone())
                    .collect(),
                _ => Vec::new(),
            };
            node.handle(msg, &mut out);
            for m in out.drain(..) {
                let WireMsg::Settled { m_tmsi, active: false } = m else {
                    continue;
                };
                let Some(record) = releasing.iter().find(|c| c.guti.m_tmsi == m_tmsi) else {
                    continue;
                };
                // The record as the release leaves it, less what a copy at
                // rest keeps beside its blob (the eNodeB and the epoch's
                // accesses) and the connection id no copy keeps.
                let mut idle = record.clone();
                (idle.ecm, idle.procedure) = (EcmState::Idle, Procedure::None);
                (idle.mme_ue_id, idle.enb_ue_id, idle.enb_id, idle.epoch_accesses) = (0, 0, 0, 0);
                let back = UeContext::from_bytes(idle.to_bytes()).expect("an Idle edge's blob decodes");
                assert_eq!(back.access_freq.to_bits(), idle.access_freq.to_bits());
                assert_eq!(back, idle);
                edges += 1;
            }
        }
        assert_eq!(node.errors, 0, "{:?}", node.error_samples());
    }
    assert!(edges > cfg.n_ues, "{edges} Idle edges");
}
