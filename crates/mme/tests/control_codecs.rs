//! Codec suite for the three codecs an MME speaks besides S1AP: NAS EMM
//! to the device, GTPv2-C to the S-GW (S11) and Diameter to the HSS
//! (S6a). Whatever a peer sends — a message, a damaged message, noise —
//! decodes to a value or an error, never a panic; every message of every
//! kind survives the round trip; and no count or length field makes a
//! decoder reserve memory beyond what the input can hold.
//!
//! "Re-encodes canonically": a value decoded from damaged bytes encodes
//! to an image that decodes and encodes back to itself. For Diameter it
//! is the value itself that comes back — the codec keeps every header
//! and AVP field it reads. NAS and GTP-C normalise on the way: a BCD or
//! TBCD digit nibble above 9 decodes to a character the encoder drops,
//! a flag byte the decoder ignores is re-encoded as zero.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use scale_diameter::{DiameterMsg, EutranVector, S6a};
use scale_gtpc::{Ambr, BearerContext, BearerQos, Body, Cause, Fteid, Message};
use scale_nas::{EmmMessage, Guti, MobileId, Plmn, Tai};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Every message of every kind
// ---------------------------------------------------------------------------

fn arb_tai() -> impl Strategy<Value = Tai> {
    (any::<[u8; 3]>(), any::<u16>()).prop_map(|(p, tac)| Tai::new(Plmn(p), tac))
}

fn arb_guti() -> impl Strategy<Value = Guti> {
    (any::<[u8; 3]>(), any::<u16>(), any::<u8>(), any::<u32>()).prop_map(
        |(p, mme_group_id, mme_code, m_tmsi)| Guti {
            plmn: Plmn(p),
            mme_group_id,
            mme_code,
            m_tmsi,
        },
    )
}

fn arb_mobile_id() -> impl Strategy<Value = MobileId> {
    prop_oneof![
        "[0-9]{0,15}".prop_map(MobileId::Imsi),
        arb_guti().prop_map(MobileId::Guti),
    ]
}

/// One EMM message of each of the twenty kinds, fields drawn at random.
fn every_emm() -> impl Strategy<Value = Vec<EmmMessage>> {
    (
        (arb_mobile_id(), arb_mobile_id(), arb_guti(), arb_tai()),
        (vec(arb_tai(), 0..6), proptest::option::of(arb_guti())),
        (any::<[u8; 16]>(), any::<[u8; 16]>(), any::<[u8; 8]>()),
        (any::<[u8; 4]>(), any::<u32>(), "[a-z0-9.é€-]{0,40}"),
        any::<[u8; 12]>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                (attach_id, detach_id, guti, tai),
                (tai_list, tau_guti),
                (rand, autn, res),
                (pdn_addr, t3412_s, apn),
                b,
                switch_off,
            )| {
                vec![
                    EmmMessage::AttachRequest {
                        attach_type: b[0],
                        id: attach_id,
                        tai,
                    },
                    EmmMessage::AttachAccept {
                        guti,
                        tai_list,
                        t3412_s,
                        ebi: b[1],
                        apn,
                        pdn_addr,
                    },
                    EmmMessage::AttachComplete,
                    EmmMessage::AttachReject { cause: b[2] },
                    EmmMessage::ServiceRequest {
                        ksi: b[3],
                        seq: b[4],
                        short_mac: [b[5], b[6]],
                    },
                    EmmMessage::ServiceReject { cause: b[7] },
                    EmmMessage::AuthenticationRequest {
                        ksi: b[8],
                        rand,
                        autn,
                    },
                    EmmMessage::AuthenticationResponse { res },
                    EmmMessage::AuthenticationReject,
                    EmmMessage::AuthenticationFailure { cause: b[9] },
                    EmmMessage::SecurityModeCommand {
                        ksi: b[10],
                        eea: b[11],
                        eia: b[0],
                    },
                    EmmMessage::SecurityModeComplete,
                    EmmMessage::SecurityModeReject { cause: b[1] },
                    EmmMessage::TauRequest { guti, tai },
                    EmmMessage::TauAccept {
                        t3412_s,
                        guti: tau_guti,
                    },
                    EmmMessage::TauComplete,
                    EmmMessage::TauReject { cause: b[2] },
                    EmmMessage::DetachRequest {
                        switch_off,
                        id: detach_id,
                    },
                    EmmMessage::DetachAccept,
                    EmmMessage::EmmStatus { cause: b[3] },
                ]
            },
        )
}

fn arb_fteid() -> impl Strategy<Value = Fteid> {
    (0u8..64, any::<u32>(), any::<[u8; 4]>()).prop_map(|(iface, teid, ipv4)| Fteid {
        iface,
        teid,
        ipv4,
    })
}

/// Causes as the decoder hands them out: a known code is never `Other`.
fn arb_cause() -> impl Strategy<Value = Cause> {
    any::<u8>().prop_map(Cause::from_code)
}

fn arb_bearer() -> impl Strategy<Value = BearerContext> {
    (
        0u8..16,
        proptest::option::of(arb_fteid()),
        proptest::option::of(arb_fteid()),
        proptest::option::of((any::<u8>(), any::<u8>())),
        proptest::option::of(arb_cause()),
    )
        .prop_map(|(ebi, enb, sgw, qos, cause)| BearerContext {
            ebi,
            s1u_enodeb_fteid: enb,
            s1u_sgw_fteid: sgw,
            qos: qos.map(|(qci, arp_priority)| BearerQos { qci, arp_priority }),
            cause,
        })
}

/// One GTP-C message with each of the twelve bodies.
fn every_gtpc() -> impl Strategy<Value = Vec<Message>> {
    (
        (
            "[0-9]{0,15}",
            "[a-z0-9.é-]{0,40}",
            arb_fteid(),
            any::<[u8; 8]>(),
        ),
        (
            arb_bearer(),
            arb_bearer(),
            proptest::option::of(arb_bearer()),
        ),
        (
            proptest::option::of(arb_fteid()),
            proptest::option::of(any::<[u8; 4]>()),
        ),
        (arb_cause(), arb_cause(), arb_cause()),
        (any::<[u8; 4]>(), 0u8..16, 0u8..16),
        (any::<u32>(), 0u32..1 << 24),
    )
        .prop_map(
            |(
                (imsi, apn, sender_fteid, ambr),
                (csr_bearer, mbr_bearer, csresp_bearer),
                (csresp_fteid, paa),
                (c0, c1, c2),
                (recovery, ebi0, ebi1),
                (teid, sequence),
            )| {
                let ambr = Ambr {
                    uplink_kbps: u32::from_be_bytes(ambr[..4].try_into().unwrap()),
                    downlink_kbps: u32::from_be_bytes(ambr[4..].try_into().unwrap()),
                };
                [
                    Body::EchoRequest {
                        recovery: recovery[0],
                    },
                    Body::EchoResponse {
                        recovery: recovery[1],
                    },
                    Body::CreateSessionRequest {
                        imsi,
                        apn,
                        sender_fteid,
                        ambr,
                        bearer: csr_bearer,
                    },
                    Body::CreateSessionResponse {
                        cause: c0,
                        sender_fteid: csresp_fteid,
                        paa,
                        bearer: csresp_bearer.clone(),
                    },
                    Body::ModifyBearerRequest { bearer: mbr_bearer },
                    Body::ModifyBearerResponse {
                        cause: c1,
                        bearer: csresp_bearer,
                    },
                    Body::DeleteSessionRequest { ebi: ebi0 },
                    Body::DeleteSessionResponse { cause: c2 },
                    Body::ReleaseAccessBearersRequest,
                    Body::ReleaseAccessBearersResponse { cause: c0 },
                    Body::DownlinkDataNotification { ebi: ebi1 },
                    Body::DownlinkDataNotificationAck { cause: c1 },
                ]
                .into_iter()
                .map(|body| Message {
                    teid,
                    sequence,
                    body,
                })
                .collect()
            },
        )
}

fn arb_vector() -> impl Strategy<Value = EutranVector> {
    (
        any::<[u8; 16]>(),
        any::<[u8; 8]>(),
        any::<[u8; 16]>(),
        any::<[u8; 16]>(),
        any::<[u8; 16]>(),
    )
        .prop_map(|(rand, xres, autn, k0, k1)| EutranVector {
            rand,
            xres,
            autn,
            kasme: [k0, k1].concat().try_into().unwrap(),
        })
}

/// Each of the four S6a exchanges, with the hop-by-hop and end-to-end
/// ids it travels under.
fn every_s6a() -> impl Strategy<Value = (Vec<S6a>, u32, u32)> {
    (
        ("[0-9a-zé€@.]{0,20}", any::<[u8; 3]>(), any::<u32>()),
        (any::<u32>(), vec(arb_vector(), 0..4)),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (imsi, visited_plmn, vectors),
                (air_result, avs),
                (ula_result, ul, dl),
                (hbh, e2e),
            )| {
                let every = vec![
                    S6a::AuthInfoRequest {
                        imsi: imsi.clone(),
                        visited_plmn,
                        vectors,
                    },
                    S6a::AuthInfoAnswer {
                        result: air_result,
                        vectors: avs,
                    },
                    S6a::UpdateLocationRequest { imsi, visited_plmn },
                    S6a::UpdateLocationAnswer {
                        result: ula_result,
                        ambr_ul_kbps: ul,
                        ambr_dl_kbps: dl,
                    },
                ];
                (every, hbh, e2e)
            },
        )
}

// ---------------------------------------------------------------------------
// Damage
// ---------------------------------------------------------------------------

/// One byte of `valid` flipped, or its last `cut` bytes cut off.
fn damage(valid: &[u8], flip: Option<(usize, u8)>, cut: usize) -> Bytes {
    match flip {
        Some((pos, xor)) => {
            let mut v = valid.to_vec();
            v[pos % valid.len()] ^= xor;
            Bytes::from(v)
        }
        None => Bytes::copy_from_slice(&valid[..valid.len().saturating_sub(cut)]),
    }
}

fn arb_flip() -> impl Strategy<Value = Option<(usize, u8)>> {
    proptest::option::of((any::<usize>(), 1u8..=255))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_emm_message_round_trips(msgs in every_emm()) {
        for msg in msgs {
            let bytes = msg.encode();
            let back = EmmMessage::decode(bytes.clone()).map_err(|e| format!("{msg:?}: {e}"))?;
            prop_assert_eq!(&back, &msg);
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn every_gtpc_body_round_trips(msgs in every_gtpc()) {
        for msg in msgs {
            let bytes = msg.encode();
            let back = Message::decode(bytes.clone()).map_err(|e| format!("{msg:?}: {e}"))?;
            prop_assert_eq!(&back, &msg);
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn every_s6a_exchange_round_trips((every, hbh, e2e) in every_s6a()) {
        for s6a in every {
            let bytes = s6a.clone().into_msg(hbh, e2e).encode();
            let msg = DiameterMsg::decode(bytes.clone()).map_err(|e| format!("{s6a:?}: {e}"))?;
            prop_assert_eq!((msg.hop_by_hop, msg.end_to_end), (hbh, e2e));
            prop_assert_eq!(msg.encode(), bytes);
            prop_assert_eq!(S6a::from_msg(&msg).map_err(|e| e.to_string())?, s6a);
        }
    }

    #[test]
    fn a_damaged_emm_message_is_refused_or_re_encodes_canonically(
        msgs in every_emm(), which in any::<usize>(), flip in arb_flip(), cut in 1usize..16,
    ) {
        let valid = msgs[which % msgs.len()].encode();
        if let Ok(parsed) = EmmMessage::decode(damage(&valid, flip, cut)) {
            let canonical = parsed.encode();
            let again = EmmMessage::decode(canonical.clone()).map_err(|e| format!("{parsed:?}: {e}"))?;
            prop_assert_eq!(again.encode(), canonical);
        }
    }

    #[test]
    fn a_damaged_gtpc_message_is_refused_or_re_encodes_canonically(
        msgs in every_gtpc(), which in any::<usize>(), flip in arb_flip(), cut in 1usize..16,
    ) {
        let valid = msgs[which % msgs.len()].encode();
        if let Ok(parsed) = Message::decode(damage(&valid, flip, cut)) {
            let canonical = parsed.encode();
            let again = Message::decode(canonical.clone()).map_err(|e| format!("{parsed:?}: {e}"))?;
            prop_assert_eq!(again.encode(), canonical);
        }
    }

    #[test]
    fn a_damaged_diameter_message_is_refused_or_re_encodes_canonically(
        (every, hbh, e2e) in every_s6a(), which in any::<usize>(), flip in arb_flip(), cut in 1usize..16,
    ) {
        let valid = every[which % every.len()].clone().into_msg(hbh, e2e).encode();
        if let Ok(msg) = DiameterMsg::decode(damage(&valid, flip, cut)) {
            prop_assert_eq!(DiameterMsg::decode(msg.encode()).map_err(|e| e.to_string())?, msg);
            if let Ok(s6a) = S6a::from_msg(&msg) {
                let again = DiameterMsg::decode(s6a.clone().into_msg(hbh, e2e).encode())
                    .map_err(|e| e.to_string())?;
                prop_assert_eq!(S6a::from_msg(&again).map_err(|e| e.to_string())?, s6a);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(data in vec(any::<u8>(), 0..300)) {
        let data = Bytes::from(data);
        let _ = EmmMessage::decode(data.clone());
        let _ = Message::decode(data.clone());
        if let Ok(msg) = DiameterMsg::decode(data) {
            let _ = S6a::from_msg(&msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Reservations
// ---------------------------------------------------------------------------

/// Requests and the largest single request, per thread (the harness
/// runs tests side by side).
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is passed through to `System` unchanged; the
// counter is a plain thread-local cell with no destructor, so noting a
// request neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The largest request this thread made inside `f`.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// An Attach Accept whose TAI list announces 255 entries and carries
/// none. Its decoder used to reserve the whole list from that count —
/// 1,530 bytes for a 13-byte message.
const ATTACH_ACCEPT_255_TAIS: &[u8] = &[
    0x07, 0x42, // plain EMM, Attach Accept
    0x00, 0xF1, 0x10, 0x80, 0x01, 0x03, 0x00, 0xC0, 0xFF, 0xEE, // GUTI
    0xFF, // TAI count, and nothing behind it
];

/// No decoder sizes memory from a count or a length it has read before
/// checking it against what is actually there: a short message that
/// announces a long list, string, IE, AVP or body costs no more than a
/// short message.
#[test]
fn a_count_or_length_field_never_reserves_beyond_the_input() {
    let emm: Vec<(&str, Vec<u8>)> = vec![
        ("attach accept tai count", ATTACH_ACCEPT_255_TAIS.to_vec()),
        // An Attach Request whose IMSI claims 255 BCD bytes.
        (
            "attach request imsi length",
            vec![0x07, 0x41, 1, 1, 0xFF, 0x21],
        ),
    ];
    for (what, bytes) in &emm {
        let (res, largest) = largest_request(|| EmmMessage::decode(Bytes::from(bytes.clone())));
        assert!(res.is_err(), "{what}: decoded");
        // 255 TAIs would be 1,530.
        assert!(
            largest <= 256,
            "{what}: a {largest}-byte request from {} bytes",
            bytes.len()
        );
    }

    let gtp_header = |len: u16| {
        [
            &[0x48, 32][..],
            &len.to_be_bytes(),
            &[0, 0, 0, 1, 0, 0, 7, 0],
        ]
        .concat()
    };
    let gtpc: Vec<(&str, Vec<u8>)> = vec![
        (
            "message length",
            [&gtp_header(0xFFFF)[..], &[1, 0, 1, 0, 5]].concat(),
        ),
        (
            "ie length",
            [&gtp_header(13)[..], &[1, 0xFF, 0xFF, 0, 0x21]].concat(),
        ),
    ];
    for (what, bytes) in &gtpc {
        let (res, largest) = largest_request(|| Message::decode(Bytes::from(bytes.clone())));
        assert!(res.is_err(), "{what}: decoded");
        assert!(
            largest <= 256,
            "{what}: a {largest}-byte request from {} bytes",
            bytes.len()
        );
    }

    let dia_header = |len: u32| {
        let len = len.to_be_bytes();
        [&[1, len[1], len[2], len[3], 0x80, 0, 1, 62][..], &[0; 12]].concat()
    };
    let diameter: Vec<(&str, Vec<u8>)> = vec![
        (
            "message length",
            [&dia_header(0xFF_FFFF)[..], &[0; 8]].concat(),
        ),
        (
            "avp length",
            [
                &dia_header(32)[..],
                &[0, 0, 0, 1, 0x40, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0],
            ]
            .concat(),
        ),
    ];
    for (what, bytes) in &diameter {
        let (res, largest) = largest_request(|| DiameterMsg::decode(Bytes::from(bytes.clone())));
        assert!(res.is_err(), "{what}: decoded");
        assert!(
            largest <= 256,
            "{what}: a {largest}-byte request from {} bytes",
            bytes.len()
        );
    }
}
