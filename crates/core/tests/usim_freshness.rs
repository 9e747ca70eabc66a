//! A device attaches at a worker, the worker restarts empty, and the
//! device attaches there again: the USIM must never accept a sequence
//! number it has already accepted (TS 33.102 §6.3.3). A restarted
//! worker whose HSS starts its SQN over would hand the device a replayed
//! challenge; the device refuses it, or better, never sees one.

use bytes::Bytes;
use scale_core::wire::{to_cell, Link, Pump, Tamper, WireMsg, WireTopo, WorkerStatus};
use scale_crypto::milenage::Milenage;
use scale_epc::{imsi_of, provision_k, DriveMode, EmulatorConfig, EnbEmulator, OP};
use scale_nas::EmmMessage;
use scale_s1ap::S1apPdu;

/// Watches the one device's AKA runs: the SQN of every challenge that
/// reaches its cell, and which of them its USIM answered with a RES.
struct AkaTap {
    usim: Milenage,
    challenged: Vec<u64>,
    accepted: Vec<u64>,
    refused: usize,
}

impl Tamper for AkaTap {
    fn at_mlb(&mut self, link: &mut Link, msg: &mut Bytes, _: &[WorkerStatus]) -> bool {
        let uplink = WireMsg::decode(msg.clone());
        if let (
            Link::EnbToMlb(_),
            Ok(WireMsg::Uplink {
                pdu: S1apPdu::UplinkNasTransport { nas_pdu, .. },
                ..
            }),
        ) = (*link, uplink)
        {
            match EmmMessage::decode(nas_pdu) {
                Ok(EmmMessage::AuthenticationResponse { .. }) => {
                    self.accepted.push(*self.challenged.last().expect("a challenge"));
                }
                Ok(EmmMessage::AuthenticationFailure { .. }) => self.refused += 1,
                _ => {}
            }
        }
        true
    }

    fn at_cell(&mut self, emu: &mut EnbEmulator, msg: WireMsg) {
        if let WireMsg::ToEnb {
            pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
            ..
        } = &msg
        {
            if let Ok(EmmMessage::AuthenticationRequest { rand, autn, .. }) =
                EmmMessage::decode(nas_pdu.clone())
            {
                let ak = self.usim.f2345(&rand).ak;
                let sqn = (0..6).fold(0u64, |sqn, i| sqn << 8 | u64::from(autn[i] ^ ak[i]));
                self.challenged.push(sqn);
            }
        }
        to_cell(emu, msg);
    }
}

#[test]
fn a_restarted_worker_never_gets_a_replayed_sqn_accepted() {
    // One cell, one worker with one VM: the device's only holder.
    let topo = WireTopo {
        n_enbs: 1,
        n_mmps: 1,
        total_vms: 1,
        replication: 1,
        ring_tokens: 4,
        seed: 42,
    };
    let cell = EnbEmulator::new(&EmulatorConfig {
        cell: 0,
        n_cells: 1,
        n_local_ues: 1,
        ops_per_ue: 2,
        seed: topo.seed,
        mode: DriveMode::Closed { window: 1 },
    });
    let mut pump = Pump::new(&topo, vec![cell]);
    let mut tap = AkaTap {
        usim: Milenage::from_op(&provision_k(&imsi_of(0)), &OP),
        challenged: Vec::new(),
        accepted: Vec::new(),
        refused: 0,
    };

    // Attach, and run to the first Idle edge.
    while !pump.cells[0].slot_views()[0].has_idled {
        let link = pump.next_fifo().expect("the device reaches Idle");
        pump.deliver(link, &mut tap);
    }
    assert_eq!(tap.accepted.len(), 1, "one AKA run for the attach");

    // The worker dies with the device's only copy and restarts empty:
    // the device's next procedure is refused with cause #9 and it
    // attaches again, at the restarted worker.
    pump.crash(0);
    pump.detect(0, &mut tap);
    pump.restart(0, &mut tap);
    while let Some(link) = pump.next_fifo() {
        pump.deliver(link, &mut tap);
    }

    let emu = &pump.cells[0];
    assert!(emu.done(), "{:?}", emu.slot_views());
    assert_eq!(emu.counts.errors, 0, "{:?}", emu.error_samples());
    assert!(pump.wire_errors.is_empty(), "{:?}", pump.wire_errors);
    assert_eq!(tap.accepted.len(), 2, "the re-attach ran AKA: {tap:?}", tap = tap.challenged);
    assert!(
        tap.accepted.windows(2).all(|w| w[0] < w[1]),
        "the USIM accepted SQNs {:?} ({} refused)",
        tap.accepted,
        tap.refused
    );
}
