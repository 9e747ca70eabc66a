//! Codec suite for the three codecs an MME speaks besides S1AP: NAS EMM
//! to the device, GTPv2-C to the S-GW (S11) and Diameter to the HSS
//! (S6a); and for the two it reads under them or beside them: the NAS
//! security layer (`NasSecurityContext::unprotect`) and the replica blob
//! another MMP sends on every Idle edge (`UeContext::from_bytes`, and
//! `UeContext::peek`, which reads a blob's index keys and must accept
//! exactly what `from_bytes` accepts, failing with the same error).
//! Whatever a peer sends — a message, a damaged message, noise — decodes
//! to a value or an error, never a panic; every message of every kind
//! survives the round trip; and no count or length field makes a decoder
//! reserve memory beyond what the input can hold.
//!
//! The last two are stricter than "re-encodes canonically": a replica
//! blob or a protected message that is accepted at all is the exact
//! image of the value it decodes to. Every truncation is refused.
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
use scale_crypto::aes::Aes128;
use scale_crypto::cmac::eia2_mac;
use scale_crypto::kdf::NasSecurityKeys;
use scale_diameter::{DiameterMsg, EutranVector, S6a};
use scale_gtpc::{Ambr, BearerContext, BearerQos, Body, Cause, Fteid, Message};
use scale_mme::{BearerState, EmmState, UeContext};
use scale_nas::{
    Direction, EmmMessage, Guti, Imsi, MobileId, NasSecurityContext, Plmn, SecurityHeader, Tai,
};
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
                    EmmMessage::AuthenticationFailure {
                        cause: b[9],
                        auts: switch_off.then(|| rand[..14].try_into().unwrap()),
                    },
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
        (
            "[0-9a-zé€@.]{0,20}",
            any::<[u8; 3]>(),
            any::<u32>(),
            proptest::option::of(any::<[u8; 30]>()),
        ),
        (any::<u32>(), vec(arb_vector(), 0..4)),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (imsi, visited_plmn, vectors, resync),
                (air_result, avs),
                (ula_result, ul, dl),
                (hbh, e2e),
            )| {
                let every = vec![
                    S6a::AuthInfoRequest {
                        imsi: imsi.clone(),
                        visited_plmn,
                        vectors,
                        resync,
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

/// A context as a replica blob carries it: Idle, no procedure in flight
/// and so no connection id, every replicated field drawn at random, one
/// to six TAIs. What the blob rebuilds rather than carries is as the
/// engine keeps it: the S11 TEID is the M-TMSI once a bearer exists, the
/// NAS COUNTs are 24 bits and the KSI three.
fn arb_context() -> impl Strategy<Value = UeContext> {
    let emm = prop_oneof![
        Just(EmmState::Deregistered),
        Just(EmmState::Registering),
        Just(EmmState::Registered),
    ];
    let bearer = (
        prop_oneof![Just(0u8), any::<u8>()],
        (any::<u32>(), any::<u32>()),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
    )
        .prop_map(
            |(ebi, (s11_sgw_teid, s1u_sgw_teid), s1u_sgw_addr, pdn_addr)| BearerState {
                ebi,
                s11_mme_teid: 0,
                s11_sgw_teid,
                s1u_sgw_teid,
                s1u_sgw_addr,
                pdn_addr,
            },
        );
    let count = 0u32..=0x00ff_ffff;
    (
        ("[0-9]{1,15}", arb_guti(), emm),
        (arb_tai(), vec(arb_tai(), 0..6)),
        bearer,
        proptest::option::of((arb_keys(), (count.clone(), count, 0u8..=7))),
        (any::<u64>(), proptest::option::of(any::<u16>())),
    )
        .prop_map(
            |((imsi, guti, emm), (tai, more_tais), mut bearer, security, (freq, dc))| {
                let imsi = Imsi::from_ascii(imsi.as_bytes()).expect("1-15 digits");
                let mut ctx = UeContext::new(imsi, guti, tai);
                for t in more_tais {
                    ctx.tai_list.push(t);
                }
                ctx.emm = emm;
                if bearer.ebi != 0 {
                    bearer.s11_mme_teid = guti.m_tmsi;
                }
                ctx.bearer = bearer;
                ctx.security = security.map(|(keys, (ul_count, dl_count, ksi))| {
                    let mut sec = NasSecurityContext::new(keys, ksi);
                    (sec.ul_count, sec.dl_count) = (ul_count, dl_count);
                    sec
                });
                ctx.access_freq = f64::from_bits(freq);
                ctx.external_replica_dc = dc;
                ctx
            },
        )
}

/// A `u64` that is no packed IMSI: a count of zero, a digit above 9, or
/// a bit set above the last digit. (The count is four bits: it cannot
/// say more than fifteen.)
fn arb_non_canonical_imsi() -> impl Strategy<Value = u64> {
    // `n` digits, each a nibble of `seed` taken mod 10.
    let packed = |n: u64, seed: u64| {
        (0..n).fold(n << 60, |v, i| v | ((((seed >> (4 * i)) & 0xf) % 10) << (4 * i)))
    };
    prop_oneof![
        any::<u64>().prop_map(|low| low & ((1 << 60) - 1)),
        (1u64..=15, any::<u64>(), any::<u64>(), 0xau64..=0xf).prop_map(
            move |(n, seed, at, nibble)| {
                let at = 4 * (at % n);
                (packed(n, seed) & !(0xf << at)) | (nibble << at)
            }
        ),
        (1u64..=14, any::<u64>(), any::<u64>())
            .prop_map(move |(n, seed, bit)| packed(n, seed) | (1 << (4 * n + bit % (60 - 4 * n)))),
    ]
}

/// Where the security byte sits in `ctx`'s blob: behind the packed IMSI,
/// the GUTI, the EMM state, the TAI and its list, and the bearer.
fn security_byte_at(ctx: &UeContext) -> usize {
    8 + Guti::WIRE_LEN + 1 + Tai::WIRE_LEN * (1 + ctx.tai_list.len()) + 1 + 1 + 16
}

fn arb_keys() -> impl Strategy<Value = NasSecurityKeys> {
    (any::<[u8; 32]>(), any::<[u8; 16]>(), any::<[u8; 16]>()).prop_map(
        |(kasme, k_nas_enc, k_nas_int)| NasSecurityKeys {
            kasme,
            k_nas_enc,
            k_nas_int,
        },
    )
}

fn arb_header() -> impl Strategy<Value = SecurityHeader> {
    prop_oneof![
        Just(SecurityHeader::Integrity),
        Just(SecurityHeader::IntegrityCiphered),
        Just(SecurityHeader::IntegrityNewContext),
    ]
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Uplink), Just(Direction::Downlink)]
}

/// One security context at a random COUNT in `dir`, twice: the sender's
/// and the receiver's copy.
fn security_pair(
    keys: &NasSecurityKeys,
    dir: Direction,
    count: u32,
) -> (NasSecurityContext, NasSecurityContext) {
    let mut sec = NasSecurityContext::new(*keys, 1);
    match dir {
        Direction::Uplink => sec.ul_count = count,
        Direction::Downlink => sec.dl_count = count,
    }
    (sec.clone(), sec)
}

/// The header a protected message names in its first octet, if any.
fn header_of(wire: &[u8]) -> Option<SecurityHeader> {
    match wire.first()? >> 4 {
        1 => Some(SecurityHeader::Integrity),
        2 => Some(SecurityHeader::IntegrityCiphered),
        3 => Some(SecurityHeader::IntegrityNewContext),
        _ => None,
    }
}

fn counts(sec: &NasSecurityContext) -> (u32, u32) {
    (sec.ul_count, sec.dl_count)
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

/// `UeContext::peek` and `UeContext::from_bytes` agree on `blob`: both
/// refuse it with the same error, or both read it, to the same keys.
fn peek_agrees(blob: &Bytes) -> Result<(), String> {
    match (UeContext::peek(blob), UeContext::from_bytes(blob.clone())) {
        (Ok(keys), Ok(ctx)) => {
            let read = (keys.imsi, keys.guti, keys.access_freq.to_bits());
            let want = (ctx.imsi, ctx.guti, ctx.access_freq.to_bits());
            if read == want {
                Ok(())
            } else {
                Err(format!("peek read {read:?}, the decode {want:?}"))
            }
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
        (a, b) => Err(format!("peek {:?}, decode {:?}", a.map(|k| k.guti), b.map(|c| c.guti))),
    }
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
        if let Ok(msg) = DiameterMsg::decode(data.clone()) {
            let _ = S6a::from_msg(&msg);
        }
        if let Ok(ctx) = UeContext::from_bytes(data.clone()) {
            prop_assert_eq!(&ctx.to_bytes(), &data);
        }
        peek_agrees(&data)?;
        let keys = NasSecurityKeys { kasme: [1; 32], k_nas_enc: [2; 16], k_nas_int: [3; 16] };
        let _ = NasSecurityContext::new(keys, 1).unprotect(data, Direction::Uplink);
    }

    #[test]
    fn every_replica_blob_round_trips(ctx in arb_context()) {
        let blob = ctx.to_bytes();
        let mut back = UeContext::from_bytes(blob.clone()).map_err(|e| format!("{ctx:?}: {e}"))?;
        prop_assert_eq!(&back.to_bytes(), &blob);
        peek_agrees(&blob)?;
        // NaN payloads too, bit for bit; then every other field by value.
        prop_assert_eq!(back.access_freq.to_bits(), ctx.access_freq.to_bits());
        let mut want = ctx.clone();
        (back.access_freq, want.access_freq) = (0.0, 0.0);
        prop_assert_eq!(&back, &want);
    }

    #[test]
    fn every_truncated_replica_blob_is_refused(ctx in arb_context()) {
        let blob = ctx.to_bytes();
        for len in 0..blob.len() {
            prop_assert!(UeContext::from_bytes(blob.slice(..len)).is_err(), "{} of {} bytes", len, blob.len());
            peek_agrees(&blob.slice(..len))?;
        }
    }

    #[test]
    fn a_damaged_replica_blob_is_refused_or_is_the_image_of_what_it_decodes_to(
        ctx in arb_context(), flip in arb_flip(), cut in 1usize..16,
    ) {
        let damaged = damage(&ctx.to_bytes(), flip, cut);
        if let Ok(back) = UeContext::from_bytes(damaged.clone()) {
            prop_assert_eq!(&back.to_bytes(), &damaged);
        }
        peek_agrees(&damaged)?;
    }

    #[test]
    fn a_replica_blob_whose_packed_imsi_is_not_canonical_is_refused(
        ctx in arb_context(), bad in arb_non_canonical_imsi(),
    ) {
        let mut forged = ctx.to_bytes().to_vec();
        forged[..8].copy_from_slice(&bad.to_be_bytes());
        let forged = Bytes::from(forged);
        prop_assert!(UeContext::from_bytes(forged.clone()).is_err(), "IMSI {:#018x}", bad);
        peek_agrees(&forged)?;
    }

    #[test]
    fn a_replica_blob_whose_security_byte_is_above_8_is_refused(
        ctx in arb_context(), keys in arb_keys(), byte in 9u8..=255,
    ) {
        let mut ctx = ctx;
        ctx.security.get_or_insert_with(|| NasSecurityContext::new(keys, 7));
        let mut forged = ctx.to_bytes().to_vec();
        let at = security_byte_at(&ctx);
        prop_assert!((1..=8).contains(&forged[at]), "security byte {}", forged[at]);
        forged[at] = byte;
        let forged = Bytes::from(forged);
        prop_assert!(UeContext::from_bytes(forged.clone()).is_err(), "security byte {}", byte);
        peek_agrees(&forged)?;
    }

    #[test]
    fn a_replica_blob_with_bytes_behind_it_is_refused(
        ctx in arb_context(), tail in vec(any::<u8>(), 1..16),
    ) {
        let forged = Bytes::from([&ctx.to_bytes()[..], &tail[..]].concat());
        prop_assert!(UeContext::from_bytes(forged.clone()).is_err(), "{} bytes behind", tail.len());
        peek_agrees(&forged)?;
    }

    #[test]
    fn every_protected_message_round_trips(
        msgs in every_emm(), keys in arb_keys(), header in arb_header(), dir in arb_direction(),
        count in any::<u32>(),
    ) {
        // COUNT is 24 bits on the wire side; keep clear of the wrap.
        let count = count & 0x00ff_fff0;
        let (mut tx, mut rx) = security_pair(&keys, dir, count);
        for msg in msgs {
            let wire = tx.protect(&msg, dir, header);
            let back = rx.unprotect(wire, dir).map_err(|e| format!("{msg:?}: {e}"))?;
            prop_assert_eq!(back, msg);
            prop_assert_eq!(counts(&rx), counts(&tx));
        }
    }

    #[test]
    fn every_truncated_protected_message_is_refused_and_moves_no_count(
        msgs in every_emm(), which in any::<usize>(), keys in arb_keys(), header in arb_header(),
        dir in arb_direction(), count in 0u32..0x00ff_0000,
    ) {
        let (mut tx, mut rx) = security_pair(&keys, dir, count);
        let before = counts(&rx);
        let wire = tx.protect(&msgs[which % msgs.len()], dir, header);
        for len in 0..wire.len() {
            prop_assert!(rx.unprotect(wire.slice(..len), dir).is_err(), "{} of {} bytes", len, wire.len());
            prop_assert_eq!(counts(&rx), before);
        }
    }

    #[test]
    fn a_damaged_protected_message_is_refused_or_is_the_image_of_what_it_decodes_to(
        msgs in every_emm(), which in any::<usize>(), keys in arb_keys(), header in arb_header(),
        dir in arb_direction(), count in 0u32..0x00ff_0000, flip in arb_flip(), cut in 1usize..16,
    ) {
        let (mut tx, mut rx) = security_pair(&keys, dir, count);
        let before = counts(&rx);
        let damaged = damage(&tx.protect(&msgs[which % msgs.len()], dir, header), flip, cut);
        match rx.unprotect(damaged.clone(), dir) {
            Err(_) => prop_assert_eq!(counts(&rx), before),
            Ok(msg) => {
                // Protect the value again at the COUNT it was accepted
                // under, with the header it came with: the same bytes.
                let accepted = match dir {
                    Direction::Uplink => rx.ul_count,
                    Direction::Downlink => rx.dl_count,
                } - 1;
                let (mut again, _) = security_pair(&keys, dir, accepted);
                let header = header_of(&damaged).expect("accepted, so a known header");
                prop_assert_eq!(again.protect(&msg, dir, header), damaged);
            }
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

/// A replica blob whose TAI list announces 255 entries and carries none.
/// Its decoder used to reserve the whole list from that count — 1,530
/// bytes for a 37-byte blob.
fn replica_blob_255_tais() -> Vec<u8> {
    [
        &[15][..],
        b"001010000000001",                                // IMSI
        &[0x00, 0xF1, 0x10, 0x80, 0x01, 0x03, 0, 0, 0, 1], // GUTI
        &[2],                                              // Registered
        &[3, 0, 0, 1],                                     // MME-UE-S1AP-ID
        &[0x00, 0xF1, 0x10, 0, 7],                         // TAI
        &[0xFF],                                           // TAI count, and nothing behind it
    ]
    .concat()
}

/// `inner` as a protected downlink message at COUNT 0 under `sec`'s
/// keys, built by hand so that it can carry what `protect` never would.
fn protected_by_hand(sec: &NasSecurityContext, inner: &[u8], ciphered: bool) -> Vec<u8> {
    let mut body = inner.to_vec();
    if ciphered {
        // EEA2 counter block: COUNT || BEARER | DIR || 0…
        let mut ctr = [0u8; 16];
        ctr[4] = 1 << 2;
        Aes128::new(&sec.keys.k_nas_enc).ctr_xor(&ctr, &mut body);
    }
    let seq_and_inner = [&[0u8][..], &body].concat();
    let mac = eia2_mac(&sec.keys.k_nas_int, 0, 0, true, &seq_and_inner);
    let header = if ciphered { 0x27 } else { 0x17 };
    [&[header][..], &mac, &seq_and_inner].concat()
}

/// The replica blob and the NAS security layer size nothing from a count
/// before checking it against the input either.
#[test]
fn a_replica_blob_or_protected_message_never_reserves_beyond_the_input() {
    let blob = replica_blob_255_tais();
    let (res, largest) = largest_request(|| UeContext::from_bytes(Bytes::from(blob.clone())));
    assert!(res.is_err(), "replica blob: decoded");
    let (res, largest_peek) = largest_request(|| UeContext::peek(&blob).map(|k| k.guti));
    assert!(res.is_err(), "replica blob: peeked");
    assert_eq!(largest_peek, 0, "the peek builds nothing");
    // 255 TAIs would be 1,530.
    assert!(
        largest <= 256,
        "replica blob tai count: a {largest}-byte request from {} bytes",
        blob.len()
    );

    let keys = NasSecurityKeys {
        kasme: [1; 32],
        k_nas_enc: [2; 16],
        k_nas_int: [3; 16],
    };
    for ciphered in [false, true] {
        let mut sec = NasSecurityContext::new(keys, 1);
        let wire = protected_by_hand(&sec, ATTACH_ACCEPT_255_TAIS, ciphered);
        let (res, largest) =
            largest_request(|| sec.unprotect(Bytes::from(wire.clone()), Direction::Downlink));
        // The MAC holds, so it is the Attach Accept that is refused.
        assert!(
            matches!(res, Err(scale_nas::NasError::Truncated { .. })),
            "ciphered {ciphered}: {res:?}"
        );
        assert!(
            largest <= 256,
            "protected attach accept (ciphered {ciphered}): a {largest}-byte request from {} bytes",
            wire.len()
        );
    }
}
