//! Pins the wire image of security-protected NAS messages.
//!
//! The fixtures below were captured from the implementation that built
//! `SEQ || inner` in scratch vectors and MACed a concatenated copy,
//! before `protect`/`unprotect` were rewritten to work in one buffer on
//! table-driven kernels. A replica or a peer built from either side of
//! that change must agree on every byte, so `protect` is held to the
//! captured bytes and `unprotect` to their decoding — at COUNT 0, 1 and
//! across the 8-bit SEQ wrap (255 → 256), for each header type in use.

use bytes::Bytes;
use scale_crypto::kdf::derive_nas_keys;
use scale_crypto::unhex;
use scale_nas::{Direction, EmmMessage, Guti, NasError, NasSecurityContext, Plmn, SecurityHeader, Tai};

fn ctx_at(count: u32) -> NasSecurityContext {
    let keys = derive_nas_keys(&[0x11; 16], &[0x22; 16], &[0x00, 0xf1, 0x10], &[0x33; 6]);
    let mut ctx = NasSecurityContext::new(keys, 1);
    ctx.ul_count = count;
    ctx.dl_count = count;
    ctx
}

struct Case {
    msg: EmmMessage,
    dir: Direction,
    header: SecurityHeader,
    /// `(COUNT, wire image)` as the parent implementation produced it.
    golden: [(u32, &'static str); 4],
}

fn cases() -> [Case; 3] {
    let plmn = Plmn::test();
    [
        Case {
            msg: EmmMessage::SecurityModeCommand { ksi: 1, eea: 2, eia: 2 },
            dir: Direction::Downlink,
            header: SecurityHeader::IntegrityNewContext,
            golden: [
                (0, "3732d7664000075d010202"),
                (1, "3789f3cb4501075d010202"),
                (255, "37cda258f5ff075d010202"),
                (256, "3790d8bc7d00075d010202"),
            ],
        },
        Case {
            msg: EmmMessage::AttachAccept {
                guti: Guti {
                    plmn,
                    mme_group_id: 0x8001,
                    mme_code: 7,
                    m_tmsi: 0xdead_beef,
                },
                tai_list: vec![Tai::new(plmn, 7), Tai::new(plmn, 8)],
                t3412_s: 3240,
                ebi: 5,
                apn: "internet".into(),
                pdn_addr: [10, 0, 0, 42],
            },
            dir: Direction::Downlink,
            header: SecurityHeader::IntegrityCiphered,
            golden: [
                (0, "275d702d4000661ebfc427f3a987a558436b7cc0875b5c5c2359bebd092117c35057a30f729496d664ee9f51165642"),
                (1, "27ee67e8b5018ca0eaa6538f92cb75e01c8cce6e066f0944bccf80f88909c58e2f938b3a1fe4783d133c02891933fc"),
                (255, "27a3d131c5ff0033c287c6e1d8c10ecb56dfdd5d8aed30afa8893cda9de0a420f5b416df34c15b056776bd642d31a5"),
                (256, "2747eeacc800453d634f022c73ad7f147f5846b2fdeefd5ba1caad82b20fc81520fae709cb3f37fe3b87513d860d10"),
            ],
        },
        Case {
            msg: EmmMessage::AttachComplete,
            dir: Direction::Uplink,
            header: SecurityHeader::Integrity,
            golden: [
                (0, "179631d1a2000743"),
                (1, "170ccc299a010743"),
                (255, "170c8895e5ff0743"),
                (256, "171b284368000743"),
            ],
        },
    ]
}

fn counts(ctx: &NasSecurityContext) -> (u32, u32) {
    (ctx.ul_count, ctx.dl_count)
}

#[test]
fn protect_reproduces_the_captured_wire_image() {
    for case in cases() {
        for (count, golden) in case.golden {
            let wire = ctx_at(count).protect(&case.msg, case.dir, case.header);
            assert_eq!(scale_crypto::hex(&wire), golden, "type {:#x} at COUNT {count}", case.msg.msg_type());
        }
    }
}

#[test]
fn unprotect_decodes_the_captured_wire_image() {
    for case in cases() {
        for (count, golden) in case.golden {
            let mut receiver = ctx_at(count);
            let wire = Bytes::from(unhex(golden).unwrap());
            assert_eq!(receiver.unprotect(wire, case.dir).unwrap(), case.msg);
            let advanced = match case.dir {
                Direction::Uplink => (count + 1, count),
                Direction::Downlink => (count, count + 1),
            };
            assert_eq!(counts(&receiver), advanced);
        }
    }
}

/// The receiver of the 256th message still expects COUNT 255 when the
/// wire SEQ has already wrapped to 0 behind a lost message: the overflow
/// counter is reconstructed, and the captured MAC (computed with the
/// full COUNT 256) verifies.
#[test]
fn seq_wrap_is_reconstructed_from_the_captured_image() {
    for case in cases() {
        let (count, golden) = case.golden[3];
        assert_eq!(count, 256);
        let mut receiver = ctx_at(255);
        let wire = Bytes::from(unhex(golden).unwrap());
        assert_eq!(receiver.unprotect(wire, case.dir).unwrap(), case.msg);
    }
}

#[test]
fn every_truncation_is_an_error_and_moves_no_count() {
    for case in cases() {
        for (count, golden) in case.golden {
            let full = unhex(golden).unwrap();
            for cut in 0..full.len() {
                let mut receiver = ctx_at(count);
                let result = receiver.unprotect(Bytes::copy_from_slice(&full[..cut]), case.dir);
                assert!(result.is_err(), "type {:#x} cut to {cut} bytes decoded", case.msg.msg_type());
                if cut < 6 {
                    assert!(
                        matches!(result, Err(NasError::Truncated { .. })),
                        "type {:#x} cut to {cut}: {result:?}",
                        case.msg.msg_type()
                    );
                }
                assert_eq!(counts(&receiver), (count, count));
            }
        }
    }
}

#[test]
fn flipped_mac_byte_is_bad_mac_and_moves_no_count() {
    for case in cases() {
        for (count, golden) in case.golden {
            for byte in 1..5 {
                let mut wire = unhex(golden).unwrap();
                wire[byte] ^= 0x40;
                let mut receiver = ctx_at(count);
                assert_eq!(
                    receiver.unprotect(Bytes::from(wire), case.dir).unwrap_err(),
                    NasError::BadMac
                );
                assert_eq!(counts(&receiver), (count, count));
            }
        }
    }
}

#[test]
fn replayed_seq_is_bad_mac_and_moves_no_count() {
    for case in cases() {
        let (_, golden) = case.golden[1];
        let wire = Bytes::from(unhex(golden).unwrap());
        // Accepted once at COUNT 1 …
        let mut receiver = ctx_at(1);
        receiver.unprotect(wire.clone(), case.dir).unwrap();
        let after = counts(&receiver);
        // … then the same bytes reconstruct to COUNT 257, whose MAC they
        // do not carry: refused, counts untouched.
        assert_eq!(receiver.unprotect(wire.clone(), case.dir).unwrap_err(), NasError::BadMac);
        assert_eq!(counts(&receiver), after);
    }
}

/// The context is replicated per device (R copies of every one): no
/// expanded key schedule, CMAC subkey or HMAC state may be cached in it.
#[test]
fn context_holds_keys_and_counts_only() {
    assert!(std::mem::size_of::<NasSecurityContext>() <= 76);
}
