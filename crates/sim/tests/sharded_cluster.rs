//! Integration tests for the sharded scale-out runtime.
//!
//! * Determinism: a fixed `(seed, config)` must reproduce identical
//!   outcome counts run-to-run (the racy least-loaded holder choice
//!   moves *where* work runs, never *how much*), and the counts must
//!   not depend on how the fixed VM fleet is striped over shards.
//! * Failover: after the master holder of a device is marked down in
//!   an epoch-bump publish, idle-mode procedures route to the
//!   surviving replica on the other worker and complete — the
//!   cross-worker replication actually buys the §4.6 failover story.

use scale_core::wire::{shard_of, MmpNode, WireMsg, WireTopo};
use scale_core::VmId;
use scale_epc::{EnbEvent, EnodeB, Ue, UeEvent, MTMSI_BASE};
use scale_nas::{Plmn, Tai};
use scale_s1ap::S1apPdu;
use scale_sim::{run_scale_out, ScaleOutConfig};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Determinism (the `scale_out --smoke` CI gate, as a test).
// ---------------------------------------------------------------------------

#[test]
fn smoke_counts_are_deterministic_across_runs() {
    let cfg = ScaleOutConfig::smoke(2);
    let first = run_scale_out(&cfg);
    let second = run_scale_out(&cfg);
    assert_eq!(
        first.counts, second.counts,
        "same seed+config must reproduce counts exactly"
    );
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
// Failover: a minimal single-threaded pump over two MMP workers fed
// `WireMsg`s, driving one UE through attach → release, then serving a
// Service Request after the master holder goes down.
// ---------------------------------------------------------------------------

const ENB_ID: u32 = 0x0100_0000;
const N_WORKERS: usize = 2;

struct Pump {
    workers: Vec<MmpNode>,
    enb: EnodeB,
    ue: Ue,
    serving_vm: VmId,
    /// The MLB-assigned M-TMSI: the attach's first `Deliver` carries it.
    guti_hint: Option<u32>,
    /// Messages on their way to a worker, with the VM each is for.
    queue: VecDeque<(VmId, WireMsg)>,
    active_edges: u32,
    idle_edges: u32,
    /// The output of the `handle` call that produced the last Idle edge.
    idle_step: Vec<WireMsg>,
}

impl Pump {
    fn send(&mut self, pdu: S1apPdu) {
        let msg = WireMsg::Deliver {
            vm: self.serving_vm,
            guti_hint: self.guti_hint.take(),
            enb_id: ENB_ID,
            pdu,
        };
        self.queue.push_back((self.serving_vm, msg));
    }

    /// Drain the queue to quiescence, shuttling S1AP through the
    /// eNodeB/UE harness and passing worker-to-worker messages on.
    fn run(&mut self) {
        let mut out = Vec::new();
        while let Some((vm, msg)) = self.queue.pop_front() {
            self.workers[shard_of(vm, N_WORKERS)].handle(msg, &mut out);
            if out
                .iter()
                .any(|m| matches!(m, WireMsg::Settled { active: false, .. }))
            {
                self.idle_step = out.clone();
            }
            for msg in out.drain(..) {
                match msg {
                    WireMsg::ToEnb { enb_id, pdu } => {
                        assert_eq!(enb_id, ENB_ID);
                        self.handle_enb(pdu);
                    }
                    WireMsg::Settled { active: true, .. } => self.active_edges += 1,
                    WireMsg::Settled { active: false, .. } => self.idle_edges += 1,
                    WireMsg::Replicate { vm, .. } | WireMsg::DropCtx { vm, .. } => {
                        self.queue.push_back((vm, msg));
                    }
                    other => panic!("a worker emitted {other:?}"),
                }
            }
        }
        for w in &self.workers {
            assert_eq!(w.errors, 0, "worker errors: {:?}", w.error_samples());
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
                                let enb_ue_id = self.enb.enb_ue_id_of(0).expect("live connection");
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
    let topo = WireTopo {
        n_enbs: 1,
        n_mmps: N_WORKERS,
        total_vms: 4,
        replication: 2,
        ring_tokens: 64,
        seed: 7,
    };
    // The routing plane as the MLB holds it.
    let plane = topo.route_plane();
    let mut reader = plane.reader();
    // A device whose two holders sit on different workers, so that its
    // Idle edge replicates over the wire.
    let (m_tmsi, master, replica) = (MTMSI_BASE..)
        .find_map(|m| {
            let (holders, n) = reader.holders(m);
            assert_eq!(n, 2, "replication degree 2 must yield two holders");
            let (master, replica) = (holders[0], holders[1]);
            (shard_of(master, N_WORKERS) != shard_of(replica, N_WORKERS))
                .then_some((m, master, replica))
        })
        .expect("some device's holders straddle the workers");

    let plmn = Plmn::test();
    let tai = Tai::new(plmn, 1);
    let mut pump = Pump {
        workers: (0..N_WORKERS).map(|w| MmpNode::new(&topo, w)).collect(),
        enb: EnodeB::new(ENB_ID, "cell-0", vec![tai]),
        ue: Ue::new("001010000000001", plmn, tai),
        serving_vm: master,
        guti_hint: Some(m_tmsi),
        queue: VecDeque::new(),
        active_edges: 0,
        idle_edges: 0,
        idle_step: Vec::new(),
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
    let held: usize = pump.workers.iter().map(MmpNode::contexts_held).sum();
    assert_eq!(held, 2, "idle context replicated to R=2 holders");
    // The master's worker put the replica's copy out ahead of the
    // `Settled` that lets the device start its next procedure.
    let step = &pump.idle_step;
    let replicated = step
        .iter()
        .position(|m| matches!(m, WireMsg::Replicate { vm, .. } if *vm == replica));
    let settled = step
        .iter()
        .position(|m| matches!(m, WireMsg::Settled { active: false, .. }));
    assert!(
        matches!((replicated, settled), (Some(r), Some(s)) if r < s),
        "the Replicate to vm {replica} must precede the Idle edge's Settled: {step:?}"
    );

    // Master goes down (epoch-bump publish, told to the replica's
    // worker as the MLB would). Idle-mode routing must fail over to the
    // surviving replica...
    plane.mark_down(master);
    let mut out = Vec::new();
    pump.workers[shard_of(replica, N_WORKERS)].handle(WireMsg::VmDown { vm: master }, &mut out);
    assert!(out.is_empty());
    let routed = reader.route_idle(m_tmsi).expect("a live holder remains");
    assert_eq!(
        routed, replica,
        "idle routing must pick the surviving replica"
    );

    // ...and a Service Request served there must complete end-to-end
    // from the replicated context alone.
    let (nas, sr_m_tmsi) = pump.ue.service_request().expect("UE can build SR");
    assert_eq!(sr_m_tmsi, m_tmsi);
    let code = pump.ue.guti.map_or(0, |g| g.mme_code);
    let pdu = pump.enb.connect(0, nas, Some((code, m_tmsi)), 3);
    pump.serving_vm = replica;
    pump.send(pdu);
    pump.run();
    assert_eq!(
        pump.active_edges, 2,
        "Service Request must reach Active on the replica"
    );
    pump.ue.radio_active();
}
