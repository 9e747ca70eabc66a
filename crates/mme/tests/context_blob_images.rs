//! Reference images of the replica blob, `UeContext::to_bytes`, as an
//! engine writes it at four points of a device's life. Replication
//! ships these bytes between MMP processes on every Idle edge, so two
//! builds interoperate only while both read and write exactly them:
//! each image must decode, and re-encode to itself byte for byte.
//!
//! Captured by driving `MmeCore` through the `scale-epc` harness: an
//! engine with VM id 3 that has taken an Attach Request for IMSI
//! 001010000000042 under M-TMSI 0x01000042 (no security yet), and an
//! engine with VM id 5 serving IMSI 001010123456789 (M-TMSI 0x05000001,
//! minted there) after attach and release, after TAUs into TACs 0x99 and
//! 0x9a, and after an epoch close (α = 0.3, one access) with an external
//! replica in DC 0x0102.
//!
//! The layout, every field at its spec width: the packed IMSI (8 bytes),
//! the GUTI (10), the EMM state (1), the TAI and the TAI list (5 each,
//! behind a count), the bearer (EBI, S-GW S11 TEID, S1-U TEID and
//! address, PDN address: 17), the security byte (0 absent, else KSI + 1)
//! and, when present, K_ASME, K_NASenc, K_NASint and the two 24-bit NAS
//! COUNTs (70), the access frequency (8) and the external replica DC
//! behind a presence byte. No MME-UE-S1AP-ID (every wake mints one) and
//! no S11 TEID (it is the M-TMSI).

use bytes::Bytes;
use scale_mme::{EmmState, UeContext};

/// Registering, AwaitAuthVector: no security, one TAI, no bearer yet.
const FRESH_ATTACH: &str = "f24000000001010000f110800101010000420100f11000010100f1100001\
000000000000000000000000000000000000000000000000000000";

/// Registered and Idle, with security and one TAI.
const REGISTERED: &str = "f98765432101010000f110800101050000010200f11000010100f1100001\
0500000001000000020a0000026440000102b0fc28d2e768b9795a26ae37f5b1f75da912e0a157f82a6b2a\
14eaa073dcc2a69a687f86956f17e6cffa0bca72560dc0cf3eb26fe4701a4b265aa16f870c1a6e00000200\
0002000000000000000000";

/// After two TAUs: three TAIs, the serving one last.
const THREE_TAIS: &str = "f98765432101010000f110800101050000010200f110009a0300f1100001\
00f110009900f110009a0500000001000000020a0000026440000102b0fc28d2e768b9795a26ae37f5b1f7\
5da912e0a157f82a6b2a14eaa073dcc2a69a687f86956f17e6cffa0bca72560dc0cf3eb26fe4701a4b265a\
a16f870c1a6e000002000002000000000000000000";

/// The same, with an access frequency and an external replica DC.
const EXTERNAL_REPLICA: &str = "f98765432101010000f110800101050000010200f110009a0300f1100001\
00f110009900f110009a0500000001000000020a0000026440000102b0fc28d2e768b9795a26ae37f5b1f7\
5da912e0a157f82a6b2a14eaa073dcc2a69a687f86956f17e6cffa0bca72560dc0cf3eb26fe4701a4b265a\
a16f870c1a6e0000020000023fd3333333333333010102";

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
    assert_eq!(ctx.mme_ue_id, 0, "a decoded copy has no connection");
    assert_eq!((ctx.bearer.ebi, ctx.bearer.s11_mme_teid), (0, 0));
    assert_eq!(ctx.tai_list.len(), 1);
    assert!(ctx.security.is_none());
    assert_eq!(ctx.external_replica_dc, None);
}

#[test]
fn a_registered_device_with_security_and_one_tai() {
    let ctx = decoded(REGISTERED);
    assert_eq!(bytes(REGISTERED).len(), 127);
    assert_eq!(ctx.imsi.to_string(), "001010123456789");
    assert_eq!(ctx.emm, EmmState::Registered);
    assert_eq!(ctx.tai_list.len(), 1);
    assert_eq!(ctx.guti.m_tmsi, 0x0500_0001);
    assert_eq!(ctx.bearer.s11_mme_teid, ctx.guti.m_tmsi, "the S11 TEID is the M-TMSI");
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
