//! Integration tests for the sharded scale-out runtime.
//!
//! * Determinism: a fixed `(seed, config)` must reproduce identical
//!   outcome counts run-to-run (the racy least-loaded holder choice
//!   moves *where* work runs, never *how much*), and the counts must
//!   not depend on how the fixed VM fleet is striped over shards.
//! * Failover: after the master holder of a device is marked down in
//!   an epoch-bump publish, idle-mode procedures route to the
//!   surviving replica and complete — the cross-shard replication
//!   actually buys the §4.6 failover story.

use scale_core::shard::ShardEvent;
use scale_core::{RoutePlane, RouteSnapshot, Shard, ShardConfig, ShardMsg};
use scale_mme::Incoming;
use scale_nas::{Plmn, Tai};
use scale_epc::{EnbEvent, EnodeB, Ue, UeEvent};
use scale_s1ap::S1apPdu;
use scale_sim::{run_scale_out, ScaleOutConfig};
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Determinism (the `scale_out --smoke` CI gate, as a test).
// ---------------------------------------------------------------------------

#[test]
fn smoke_counts_are_deterministic_across_runs() {
    let cfg = ScaleOutConfig::smoke(2);
    let first = run_scale_out(&cfg);
    let second = run_scale_out(&cfg);
    assert_eq!(first.counts, second.counts, "same seed+config must reproduce counts exactly");
    assert_eq!(first.counts.errors, 0);
    assert_eq!(first.counts.rejects, 0);
}

#[test]
fn smoke_counts_are_invariant_under_shard_count() {
    let baseline = run_scale_out(&ScaleOutConfig::smoke(1)).counts;
    for n_shards in [2usize, 3, 4] {
        let counts = run_scale_out(&ScaleOutConfig::smoke(n_shards)).counts;
        assert_eq!(
            counts, baseline,
            "fixed fleet striped over {n_shards} shards must produce identical outcomes"
        );
    }
}

// ---------------------------------------------------------------------------
// Failover: a minimal single-threaded pump over one Shard owning the
// whole fleet, driving one UE through attach → release, then serving a
// Service Request after the master holder goes down.
// ---------------------------------------------------------------------------

const ENB_ID: u32 = 0x0100_0000;
const M_TMSI: u32 = 0x0200_0001;

struct Pump {
    shard: Shard,
    enb: EnodeB,
    ue: Ue,
    serving_vm: u32,
    queue: VecDeque<ShardMsg>,
    active_edges: u32,
    idle_edges: u32,
}

impl Pump {
    fn send(&mut self, pdu: S1apPdu) {
        self.queue.push_back(ShardMsg::ToVm {
            vm: self.serving_vm,
            guti_hint: Some(M_TMSI),
            ev: Incoming::S1ap { enb_id: ENB_ID, pdu },
        });
    }

    /// Drain the queue to quiescence, shuttling S1AP through the
    /// eNodeB/UE harness and re-enqueuing everything that produces.
    fn run(&mut self) {
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        while let Some(msg) = self.queue.pop_front() {
            self.shard.process(msg, &mut outbox, &mut events);
            // Single shard owns every VM: cross-shard messages loop back.
            for (shard_id, m) in outbox.drain(..) {
                assert_eq!(shard_id, 0);
                self.queue.push_back(m);
            }
            for ev in events.drain(..) {
                match ev {
                    ShardEvent::S1ap { enb_id, pdu } => {
                        assert_eq!(enb_id, ENB_ID);
                        self.handle_enb(pdu);
                    }
                    ShardEvent::Active { .. } => self.active_edges += 1,
                    ShardEvent::Idle { .. } => self.idle_edges += 1,
                    ShardEvent::Attached { .. } | ShardEvent::Detached { .. } => {}
                    ShardEvent::Error { vm, error } => {
                        panic!("engine error on vm {vm}: {error}")
                    }
                }
            }
        }
    }

    fn handle_enb(&mut self, pdu: S1apPdu) {
        for ev in self.enb.handle_from_mme(pdu) {
            match ev {
                EnbEvent::ToMme(p) => self.send(p),
                EnbEvent::NasToUe { nas, .. } => {
                    let replies = self.ue.handle_nas(nas).expect("UE NAS handling");
                    for reply in replies {
                        match reply {
                            UeEvent::SendNas(nas) => {
                                let enb_ue_id =
                                    self.enb.enb_ue_id_of(0).expect("live connection");
                                let pdu = self.enb.uplink(enb_ue_id, nas).expect("uplink");
                                self.send(pdu);
                            }
                            UeEvent::Attached { .. } | UeEvent::Detached => {}
                            other => panic!("unexpected UE event: {other:?}"),
                        }
                    }
                }
                EnbEvent::UeReleased { .. } => self.ue.radio_released(),
                other => panic!("unexpected eNB event: {other:?}"),
            }
        }
    }
}

#[test]
fn service_request_survives_master_holder_down() {
    let plmn = Plmn::test();
    let mut snap = RouteSnapshot::new(64, 2, plmn, 0x8001, 1);
    for vm in 1..=4u32 {
        snap.ring.add_node(vm);
    }
    let plane = Arc::new(RoutePlane::new(snap));
    let shard = Shard::new(
        &ShardConfig { id: 0, n_shards: 1, vms: vec![1, 2, 3, 4], hss_seed: 7 },
        &plane,
    );
    let mut reader = plane.reader();
    let (holders, n) = reader.holders(M_TMSI);
    assert_eq!(n, 2, "replication degree 2 must yield two holders");
    let (master, replica) = (holders[0], holders[1]);

    let tai = Tai::new(plmn, 1);
    let mut pump = Pump {
        shard,
        enb: EnodeB::new(ENB_ID, "cell-0", vec![tai]),
        ue: Ue::new("001010000000001", plmn, tai),
        serving_vm: master,
        queue: VecDeque::new(),
        active_edges: 0,
        idle_edges: 0,
    };

    // Attach on the master holder, then release to Idle: the context
    // replicates to both holders on the idle edge.
    let nas = pump.ue.attach_request();
    let pdu = pump.enb.connect(0, nas, None, 3);
    pump.send(pdu);
    pump.run();
    assert_eq!(pump.active_edges, 1, "attach must reach Active");
    pump.ue.radio_active();

    let enb_ue_id = pump.enb.enb_ue_id_of(0).expect("live connection");
    let release = pump.enb.inactivity_release(enb_ue_id).expect("release PDU");
    pump.send(release);
    pump.run();
    assert_eq!(pump.idle_edges, 1, "release must reach Idle");
    assert_eq!(pump.shard.contexts_held(), 2, "idle context replicated to R=2 holders");

    // Master goes down (epoch-bump publish). Idle-mode routing must
    // fail over to the surviving replica...
    plane.mark_down(master);
    let routed = reader.route_idle(M_TMSI).expect("a live holder remains");
    assert_eq!(routed, replica, "idle routing must pick the surviving replica");
    assert!(plane.snapshot().is_down(master));

    // ...and a Service Request served there must complete end-to-end
    // from the replicated context alone.
    let (nas, m_tmsi) = pump.ue.service_request().expect("UE can build SR");
    assert_eq!(m_tmsi, M_TMSI);
    let code = pump.ue.guti.map_or(0, |g| g.mme_code);
    let pdu = pump.enb.connect(0, nas, Some((code, m_tmsi)), 3);
    pump.serving_vm = replica;
    pump.send(pdu);
    pump.run();
    assert_eq!(pump.active_edges, 2, "Service Request must reach Active on the replica");
    pump.ue.radio_active();
}
