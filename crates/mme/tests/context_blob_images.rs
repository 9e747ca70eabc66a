//! Reference images of the replica blob, `UeContext::to_bytes`, as an
//! engine writes it at four points of a device's life. Replication
//! ships these bytes between MMP processes on every Idle edge, so two
//! builds interoperate only while both read and write exactly them:
//! each image must decode, and re-encode to itself byte for byte.
//!
//! Captured by driving `MmeCore` through the `scale-epc` harness: an
//! engine with VM id 3 that has taken an Attach Request for IMSI
//! 001010000000042 under M-TMSI 0x01000042 (no security yet), and an
//! engine with VM id 5 serving IMSI 001010123456789 after attach and
//! release, after TAUs into TACs 0x99 and 0x9a, and after an epoch close
//! (α = 0.3, one access) with an external replica in DC 0x0102.

use bytes::Bytes;
use scale_mme::{EmmState, UeContext};

/// Registering, AwaitAuthVector: no security, one TAI, no bearer yet.
const FRESH_ATTACH: &str = "0f30303130313030303030303030343200f11080010101000042010300000100f110\
00010100f11000010000000000000000000000000000000000000000000000000000\
0000000000";

/// Registered and Idle, with security and one TAI.
const REGISTERED: &str = "0f3030313031303132333435363738390\
0f11080010100000001020500000100f11000010100f1100001050500000100000001\
000000020a000002644000010111d31f4cc7a9dd4d4b7de38698c06544c04f7edb08\
07141e9e14f2043460f22ac6c56cb701e2279f8fa703a91ce9a2651e4fa1c3b4b58a\
a31b2ccfe07bb3cb93000000020000000201000000000000000000";

/// After two TAUs: three TAIs, the serving one last.
const THREE_TAIS: &str = "0f3030313031303132333435363738390\
0f11080010100000001020500000100f110009a0300f110000100f110009900f11000\
9a050500000100000001000000020a000002644000010111d31f4cc7a9dd4d4b7de3\
8698c06544c04f7edb0807141e9e14f2043460f22ac6c56cb701e2279f8fa703a91c\
e9a2651e4fa1c3b4b58aa31b2ccfe07bb3cb93000000020000000201000000000000\
000000";

/// The same, with an access frequency and an external replica DC.
const EXTERNAL_REPLICA: &str = "0f3030313031303132333435363738390\
0f11080010100000001020500000100f110009a0300f110000100f110009900f11000\
9a050500000100000001000000020a000002644000010111d31f4cc7a9dd4d4b7de3\
8698c06544c04f7edb0807141e9e14f2043460f22ac6c56cb701e2279f8fa703a91c\
e9a2651e4fa1c3b4b58aa31b2ccfe07bb3cb930000000200000002013fd333333333\
3333010102";

fn bytes(hex: &str) -> Bytes {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect::<Vec<u8>>()
        .into()
}

/// Decode `hex`, and hold the value's encoding to the image.
fn decoded(hex: &str) -> UeContext {
    let image = bytes(hex);
    let ctx = UeContext::from_bytes(image.clone()).expect("reference image decodes");
    assert_eq!(ctx.to_bytes(), image, "re-encoding differs from the image");
    ctx
}

#[test]
fn a_fresh_attach_without_security() {
    let ctx = decoded(FRESH_ATTACH);
    assert_eq!(ctx.imsi.to_string(), "001010000000042");
    assert_eq!(ctx.guti.m_tmsi, 0x0100_0042);
    assert_eq!(ctx.emm, EmmState::Registering);
    assert_eq!(ctx.mme_ue_id, 0x0300_0001);
    assert_eq!(ctx.tai_list.len(), 1);
    assert!(ctx.security.is_none());
    assert_eq!(ctx.external_replica_dc, None);
}

#[test]
fn a_registered_device_with_security_and_one_tai() {
    let ctx = decoded(REGISTERED);
    assert_eq!(ctx.imsi.to_string(), "001010123456789");
    assert_eq!(ctx.emm, EmmState::Registered);
    assert_eq!(ctx.tai_list.len(), 1);
    assert_eq!(ctx.bearer.s11_mme_teid, ctx.mme_ue_id);
    let sec = ctx.security.as_ref().expect("security context");
    assert_eq!((sec.ul_count, sec.dl_count, sec.ksi), (2, 2, 1));
}

#[test]
fn three_tais_after_two_taus() {
    let ctx = decoded(THREE_TAIS);
    let tacs: Vec<u16> = ctx.tai_list.iter().map(|t| t.tac).collect();
    assert_eq!(tacs, [1, 0x99, 0x9a]);
    assert_eq!(ctx.tai.tac, 0x9a);
}

#[test]
fn an_external_replica_and_an_access_frequency() {
    let ctx = decoded(EXTERNAL_REPLICA);
    assert_eq!(ctx.external_replica_dc, Some(0x0102));
    assert_eq!(ctx.access_freq, 0.3);
    assert_eq!(ctx.tai_list.len(), 3);
}
