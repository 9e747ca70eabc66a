//! Pins the wire image of every `WireMsg` variant and every `S1apPdu`
//! shape one scripted session run produces.
//!
//! The fixtures were captured from the codec that built each message
//! as a typed value tree and encoded it body-first through scratch
//! buffers, before `encode_into` wrote the fields in place and the MLB
//! began forwarding PDUs as the bytes they arrived as. An old-build
//! peer, a replica and a relayed message must agree on every byte, so
//! `encode` is held to the captured bytes and `decode` to the value
//! they came from — and, for the envelopes, to the bytes of the PDU
//! image nested inside them.
//!
//! Two images were recaptured since, on purpose: `Replicate`, when the
//! replica blob took its compact layout (127 bytes, not 146), and
//! `Initiating/9`, whose S1-U TEID the workers' S-GW stub mirrors from
//! the S11 TEID, which became the M-TMSI.

use bytes::Bytes;
use scale_core::wire::{WireMsg, WireRole};
use scale_crypto::{hex, unhex};
use scale_s1ap::S1apPdu;
use scale_sim::{run_shuttle_tapped, WireMode, WireRunConfig};
use std::collections::BTreeMap;

/// One cell, two workers, six devices: attach, Service Request, TAU
/// and the releases between them, replicas crossing workers.
fn script() -> WireRunConfig {
    WireRunConfig {
        n_enbs: 1,
        n_mmps: 2,
        total_vms: 4,
        replication: 2,
        ring_tokens: 32,
        seed: 24,
        n_ues: 6,
        ops_per_ue: 4,
        mode: WireMode::Closed { window: 2 },
    }
}

fn pdu_of(msg: &WireMsg) -> Option<&S1apPdu> {
    match msg {
        WireMsg::Uplink { pdu, .. } | WireMsg::Deliver { pdu, .. } | WireMsg::ToEnb { pdu, .. } => {
            Some(pdu)
        }
        _ => None,
    }
}

/// What makes two PDUs the same shape on the wire: procedure, and for
/// an Initial UE Message whether it carries an S-TMSI.
fn pdu_shape(pdu: &S1apPdu) -> String {
    let (kind, code) = pdu.kind_and_code();
    let stmsi = matches!(
        pdu,
        S1apPdu::InitialUeMessage {
            s_tmsi: Some(_),
            ..
        }
    );
    format!("{kind:?}/{code}{}", if stmsi { "/s-tmsi" } else { "" })
}

fn msg_shape(msg: &WireMsg) -> String {
    match msg {
        WireMsg::Hello { role, .. } => format!("Hello/{role:?}"),
        WireMsg::Uplink { attach_hint, .. } => format!("Uplink/hint={}", attach_hint.is_some()),
        WireMsg::Deliver { guti_hint, .. } => format!("Deliver/hint={}", guti_hint.is_some()),
        WireMsg::ToEnb { .. } => "ToEnb".into(),
        WireMsg::Settled { active, .. } => format!("Settled/active={active}"),
        WireMsg::Replicate { .. } => "Replicate".into(),
        WireMsg::DropCtx { .. } => "DropCtx".into(),
        WireMsg::ProcFailed { .. } => "ProcFailed".into(),
        WireMsg::VmDown { .. } => "VmDown".into(),
        WireMsg::VmUp { .. } => "VmUp".into(),
    }
}

/// The first message of each shape the script puts on an MLB link, and
/// the first PDU of each shape inside them.
fn first_of_each_shape() -> (BTreeMap<String, WireMsg>, BTreeMap<String, S1apPdu>) {
    let mut msgs = BTreeMap::new();
    let mut pdus = BTreeMap::new();
    let counts = run_shuttle_tapped(&script(), &mut |tap| {
        let msg = WireMsg::decode(Bytes::copy_from_slice(tap.bytes)).unwrap();
        let msg = &msg;
        msgs.entry(msg_shape(msg)).or_insert_with(|| msg.clone());
        if let Some(pdu) = pdu_of(msg) {
            pdus.entry(pdu_shape(pdu)).or_insert_with(|| pdu.clone());
        }
    });
    assert_eq!(counts.enb.sessions_done, script().n_ues as u64);
    assert_eq!(
        counts.enb.errors + counts.mmp.wire_errors + counts.mlb.errors,
        0
    );
    (msgs, pdus)
}

/// `(shape, image)` of each PDU shape, as the reference build encoded it.
const PDU_IMAGES: [(&str, &str); 11] = [
    ("Initiating/11", "000b00000004020000010008000400000001001a0023075201845c9b53e6c27930a33b195b3d62ecde4bc337ba6c7f800041c188a0694bca75"),
    ("Initiating/12", "000c0008000400000001001a0012074101010800010100000000f000f11000010043000500f11000010086000103"),
    ("Initiating/12/s-tmsi", "000c0008000400000003001a0006074d010146bd0043000500f11000010086000103006000050102000000"),
    ("Initiating/13", "000d00000004020000010008000400000001001a000a075310d7306f287e79ec0043000500f1100001"),
    ("Initiating/17", "0011003b000401000000003c000663656c6c2d30004000100300f110000100f110000200f1100003"),
    ("Initiating/18", "0012000000040200000100080004000000010002000114"),
    ("Initiating/23", "0017000000040200000100080004000000010002000114"),
    ("Initiating/9", "0009000000040200000100080004000000010018000b010509020000000a000002004200080000c350000249f000490020f3d282359644c40e0ba0f8985c59cb557350b389517a5771cd1b4f225d20b50e"),
    ("SuccessfulOutcome/17", "0111003d00097363616c652d6d6c62006900070100f11080010100570001ff"),
    ("SuccessfulOutcome/23", "011700000004020000010008000400000001"),
    ("SuccessfulOutcome/9", "010900000004020000010008000400000001001c000b01050900000001c0a80000"),
];

/// `(shape, image)` of each message shape the script puts on a link.
const MSG_IMAGES: [(&str, &str); 8] = [
    ("Deliver/hint=false", "0300000002000100000000000029000d00000004020000010008000400000001001a000a075310d7306f287e79ec0043000500f1100001"),
    ("Deliver/hint=true", "03000000020102000000010000000000002e000c0008000400000001001a0012074101010800010100000000f000f11000010043000500f11000010086000103"),
    ("Replicate", "06000000030000007ff00000000001010000f110800101020000000200f11000010100f11000010502000000020000000a0000026440000002f3d282359644c40e0ba0f8985c59cb557350b389517a5771cd1b4f225d20b50e1be974ff20ebe2ad8b95073751016dbc7424cb8036507964fb54169c5cd533cb000002000002000000000000000000"),
    ("Settled/active=false", "050200000000"),
    ("Settled/active=true", "050200000001"),
    ("ToEnb", "04010000000000001f0111003d00097363616c652d6d6c62006900070100f11080010100570001ff"),
    ("Uplink/hint=false", "020100000000000000280011003b000401000000003c000663656c6c2d30004000100300f110000100f110000200f1100003"),
    ("Uplink/hint=true", "020100000001020000000000002e000c0008000400000001001a0012074101010800010100000000f000f11000010043000500f11000010086000103"),
];

/// The variants no fault-free script produces, built by hand, with the
/// reference build's image of each.
fn off_script() -> [(WireMsg, &'static str); 6] {
    [
        (
            WireMsg::Hello {
                role: WireRole::Enb,
                id: 3,
            },
            "010000000003",
        ),
        (
            WireMsg::Hello {
                role: WireRole::Mmp,
                id: 1,
            },
            "010100000001",
        ),
        (
            WireMsg::DropCtx {
                vm: 4,
                m_tmsi: 0x0200_0007,
            },
            "070000000402000007",
        ),
        (
            WireMsg::ProcFailed {
                m_tmsi: 0x0200_0009,
            },
            "0802000009",
        ),
        (WireMsg::VmDown { vm: 2 }, "0900000002"),
        (WireMsg::VmUp { vm: 2 }, "0a00000002"),
    ]
}

fn image(hex_str: &str) -> Bytes {
    Bytes::from(unhex(hex_str).expect("fixture is hex"))
}

#[test]
fn every_pdu_shape_of_the_script_has_its_reference_image() {
    let (_, pdus) = first_of_each_shape();
    assert_eq!(
        pdus.keys().map(String::as_str).collect::<Vec<_>>(),
        PDU_IMAGES.map(|(shape, _)| shape),
        "the script's PDU shapes changed: recapture against the reference build"
    );
    for ((shape, pdu), (_, golden)) in pdus.iter().zip(PDU_IMAGES) {
        assert_eq!(hex(&pdu.encode()), golden, "{shape}: encode");
        assert_eq!(
            &S1apPdu::decode(image(golden)).unwrap(),
            pdu,
            "{shape}: decode"
        );
    }
}

#[test]
fn every_message_shape_of_the_script_has_its_reference_image() {
    let (msgs, _) = first_of_each_shape();
    assert_eq!(
        msgs.keys().map(String::as_str).collect::<Vec<_>>(),
        MSG_IMAGES.map(|(shape, _)| shape),
        "the script's message shapes changed: recapture against the reference build"
    );
    for ((shape, msg), (_, golden)) in msgs.iter().zip(MSG_IMAGES) {
        assert_eq!(hex(&msg.encode()), golden, "{shape}: encode");
        assert_eq!(
            &WireMsg::decode(image(golden)).unwrap(),
            msg,
            "{shape}: decode"
        );
        // The envelope carries its PDU as that PDU's own image, length
        // first: what lets a relay forward it without re-encoding.
        if let Some(pdu) = pdu_of(msg) {
            let inner = pdu.encode();
            let mut tail = (inner.len() as u32).to_be_bytes().to_vec();
            tail.extend_from_slice(&inner);
            assert!(image(golden).ends_with(&tail), "{shape}: nested PDU image");
        }
    }
}

#[test]
fn the_variants_off_the_script_have_their_reference_images() {
    for (msg, golden) in off_script() {
        assert_eq!(hex(&msg.encode()), golden, "{msg:?}: encode");
        assert_eq!(
            WireMsg::decode(image(golden)).unwrap(),
            msg,
            "{golden}: decode"
        );
    }
}

#[test]
#[ignore = "prints the fixture tables; run by hand against the reference build"]
fn print_fixtures() {
    let (msgs, pdus) = first_of_each_shape();
    for (shape, pdu) in &pdus {
        println!("    (\"{shape}\", \"{}\"),", hex(&pdu.encode()));
    }
    for (shape, msg) in &msgs {
        println!("    (\"{shape}\", \"{}\"),", hex(&msg.encode()));
    }
    for (msg, _) in off_script() {
        println!("    ({msg:?}, \"{}\"),", hex(&msg.encode()));
    }
}
