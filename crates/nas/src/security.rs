//! NAS security: integrity protection (EIA2) and ciphering (EEA2) of EMM
//! messages, plus the security-protected NAS wrapper (TS 24.301 §9.2).
//!
//! Wire layout of a protected message:
//!
//! ```text
//! (SHT << 4 | PD) || MAC(4) || SEQ(1) || inner NAS (ciphered when SHT=2/4)
//! ```
//!
//! The MAC covers `SEQ || inner` keyed by K_NASint with the full NAS
//! COUNT (24 bits, tracked here; only the low 8 bits travel on the wire,
//! exactly as in LTE).
//!
//! Every procedure passes through here several times, so neither
//! direction builds intermediate copies, and no expanded AES schedule or
//! CMAC subkey is kept in the context: it is replicated per device, and
//! re-expanding a key costs less than the bytes would.
//!
//! lint: hot-path

use crate::emm::{EmmMessage, PD_EMM};
use crate::wire::{NasError, Reader, Writer};
use bytes::Bytes;
use scale_crypto::aes::Aes128;
use scale_crypto::cmac::eia2_mac;
use scale_crypto::kdf::NasSecurityKeys;

/// Security header types (TS 24.301 §9.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityHeader {
    /// Integrity protected only.
    Integrity,
    /// Integrity protected and ciphered.
    IntegrityCiphered,
    /// Integrity protected with *new* EPS security context (SMC).
    IntegrityNewContext,
}

impl SecurityHeader {
    fn code(self) -> u8 {
        match self {
            SecurityHeader::Integrity => 1,
            SecurityHeader::IntegrityCiphered => 2,
            SecurityHeader::IntegrityNewContext => 3,
        }
    }

    fn from_code(v: u8) -> Option<Self> {
        Some(match v {
            1 => SecurityHeader::Integrity,
            2 => SecurityHeader::IntegrityCiphered,
            3 => SecurityHeader::IntegrityNewContext,
            _ => return None,
        })
    }

    fn ciphered(self) -> bool {
        matches!(self, SecurityHeader::IntegrityCiphered)
    }
}

/// Direction of a NAS message, selects the COUNT and the EIA2 direction
/// bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Uplink,
    Downlink,
}

/// One end's NAS security context: keys plus both COUNTs.
///
/// The MME and UE each hold one; the uplink COUNT counts UE→MME
/// messages and the downlink COUNT MME→UE messages. This struct is part
/// of the device state SCALE replicates between MMPs — consistency of
/// the COUNTs across replicas is exactly the concern §4.6 raises about
/// Active-mode state, which is why SCALE only rebalances devices on
/// Idle→Active boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NasSecurityContext {
    pub keys: NasSecurityKeys,
    /// Next uplink NAS COUNT: 24 bits, an 8-bit wire SEQ under a 16-bit
    /// overflow counter (TS 24.301 §4.4.3.1), wrapping at 2^24.
    pub ul_count: u32,
    /// Next downlink NAS COUNT, likewise.
    pub dl_count: u32,
    /// Key set identifier bound to this context.
    pub ksi: u8,
}

/// A NAS COUNT is 24 bits; EIA2 and EEA2 take it as 0x00 ‖ COUNT.
const COUNT_MASK: u32 = 0x00ff_ffff;

/// NAS bearer id used for EIA2/EEA2 (always 0 for NAS signalling).
const NAS_BEARER: u8 = 0;

/// Offsets into a protected message (see the module doc).
const MAC_AT: usize = 1;
const SEQ_AT: usize = 5;
const INNER_AT: usize = 6;

impl NasSecurityContext {
    pub fn new(keys: NasSecurityKeys, ksi: u8) -> Self {
        NasSecurityContext {
            keys,
            ul_count: 0,
            dl_count: 0,
            ksi,
        }
    }

    fn count_mut(&mut self, dir: Direction) -> &mut u32 {
        match dir {
            Direction::Uplink => &mut self.ul_count,
            Direction::Downlink => &mut self.dl_count,
        }
    }

    /// EEA2 counter block: COUNT(32) || BEARER(5)|DIR(1)|00 || zeros.
    fn ctr_block(count: u32, dir: Direction) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..4].copy_from_slice(&count.to_be_bytes());
        let dir_bit = match dir {
            Direction::Uplink => 0u8,
            Direction::Downlink => 1,
        };
        block[4] = (NAS_BEARER << 3) | (dir_bit << 2);
        block
    }

    fn mac(&self, count: u32, dir: Direction, seq_and_inner: &[u8]) -> [u8; 4] {
        eia2_mac(
            &self.keys.k_nas_int,
            count,
            NAS_BEARER,
            matches!(dir, Direction::Downlink),
            seq_and_inner,
        )
    }

    fn cipher(&self, count: u32, dir: Direction, inner: &mut [u8]) {
        Aes128::new(&self.keys.k_nas_enc).ctr_xor(&Self::ctr_block(count, dir), inner);
    }

    /// Integrity-protect (and optionally cipher) `msg`, consuming one
    /// COUNT in `dir`.
    ///
    /// The wire image is assembled once, in the buffer that is
    /// returned: the message is encoded behind a zeroed MAC field,
    /// ciphered where it lies, and the MAC over `SEQ || inner` (with the
    /// full COUNT) is written back into the header.
    pub fn protect(&mut self, msg: &EmmMessage, dir: Direction, header: SecurityHeader) -> Bytes {
        let count = *self.count_mut(dir);
        *self.count_mut(dir) = (count + 1) & COUNT_MASK;

        let mut w = Writer::new();
        w.u8((header.code() << 4) | PD_EMM);
        w.slice(&[0u8; 4]);
        w.u8((count & 0xff) as u8);
        msg.encode_into(&mut w);
        if header.ciphered() {
            self.cipher(count, dir, &mut w.buf[INNER_AT..]);
        }
        let mac = self.mac(count, dir, &w.buf[SEQ_AT..]);
        w.buf[MAC_AT..SEQ_AT].copy_from_slice(&mac);
        w.finish()
    }

    /// Verify and decode a protected message arriving in `dir`.
    ///
    /// Reconstructs the full COUNT from the wire SEQ and the local
    /// expectation (handling 8-bit wrap), rejects replays and bad MACs,
    /// and advances the local COUNT past the message. The MAC is
    /// checked over the received bytes where they lie; only a ciphered
    /// payload is copied, to be deciphered.
    pub fn unprotect(&mut self, buf: Bytes, dir: Direction) -> Result<EmmMessage, NasError> {
        let mut r = Reader::new(buf);
        let first = r.u8("protected first octet")?;
        if first & 0x0f != PD_EMM {
            return Err(NasError::Invalid {
                what: "protocol discriminator",
                value: (first & 0x0f) as u64,
            });
        }
        let header = SecurityHeader::from_code(first >> 4).ok_or(NasError::Invalid {
            what: "security header type",
            value: (first >> 4) as u64,
        })?;
        let mac: [u8; 4] = r.array("nas mac")?;
        r.need("nas seq", 1)?;
        let seq_and_inner = r.rest();
        let seq = seq_and_inner[0];

        // Reconstruct COUNT: local expectation with the wire SEQ spliced
        // into the low byte, bumping the overflow counter on wrap — and
        // the COUNT itself wrapping at 2^24.
        let expected = *self.count_mut(dir);
        let mut count = (expected & 0xffff_ff00) | seq as u32;
        if count < expected {
            // 8-bit SEQ wrapped relative to our expectation.
            count = (count + 0x100) & COUNT_MASK;
        }

        if self.mac(count, dir, &seq_and_inner) != mac {
            return Err(NasError::BadMac);
        }

        let inner = if header.ciphered() {
            let mut plain = seq_and_inner[1..].to_vec(); // lint: allow(alloc): deciphering needs a writable copy of the shared receive buffer; integrity-only messages (every uplink) take the slice below
            self.cipher(count, dir, &mut plain);
            Bytes::from(plain)
        } else {
            seq_and_inner.slice(1..)
        };
        *self.count_mut(dir) = (count + 1) & COUNT_MASK;
        EmmMessage::decode(inner)
    }

    /// Short MAC for the Service Request message (2 bytes, as in the
    /// TS 24.301 short format): the low half of the EIA2 MAC over the
    /// KSI and sequence.
    pub fn service_request_mac(&self, ksi: u8, seq: u8) -> [u8; 2] {
        let mac = eia2_mac(&self.keys.k_nas_int, seq as u32, NAS_BEARER, false, &[ksi, seq]);
        [mac[2], mac[3]]
    }
}

/// Peek whether a raw NAS message is security-protected (SHT != 0)
/// without consuming it — the MLB uses this to decide the decode path.
pub fn is_protected(buf: &[u8]) -> bool {
    !buf.is_empty() && buf[0] >> 4 != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MobileId, Plmn, Tai};
    use scale_crypto::kdf::derive_nas_keys;

    fn test_ctx() -> NasSecurityContext {
        let keys = derive_nas_keys(&[1; 16], &[2; 16], &[0, 0xf1, 0x10], &[3; 6]);
        NasSecurityContext::new(keys, 1)
    }

    fn sample_msg() -> EmmMessage {
        EmmMessage::AttachRequest {
            attach_type: 1,
            id: MobileId::Imsi("001010123456789".into()),
            tai: Tai::new(Plmn::test(), 7),
        }
    }

    #[test]
    fn protect_unprotect_roundtrip_integrity_only() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let wire = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert!(is_protected(&wire));
        let back = receiver.unprotect(wire, Direction::Uplink).unwrap();
        assert_eq!(back, sample_msg());
    }

    #[test]
    fn protect_unprotect_roundtrip_ciphered() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let wire = sender.protect(
            &sample_msg(),
            Direction::Downlink,
            SecurityHeader::IntegrityCiphered,
        );
        // Ciphered payload must not contain the plaintext encoding.
        let plain = sample_msg().encode();
        assert!(!wire
            .windows(plain.len().min(8))
            .any(|w| w == &plain[..plain.len().min(8)]));
        let back = receiver.unprotect(wire, Direction::Downlink).unwrap();
        assert_eq!(back, sample_msg());
    }

    #[test]
    fn tampered_mac_rejected() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let mut wire = sender
            .protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity)
            .to_vec();
        wire[1] ^= 0xff; // flip MAC byte
        assert_eq!(
            receiver
                .unprotect(Bytes::from(wire), Direction::Uplink)
                .unwrap_err(),
            NasError::BadMac
        );
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let mut wire = sender
            .protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity)
            .to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(
            receiver
                .unprotect(Bytes::from(wire), Direction::Uplink)
                .unwrap_err(),
            NasError::BadMac
        );
    }

    #[test]
    fn replay_rejected() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let wire = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        receiver.unprotect(wire.clone(), Direction::Uplink).unwrap();
        // Same wire message again: its MAC no longer matches the advanced
        // count reconstruction (count = expected), and when SEQ maps to a
        // wrapped count the MAC fails. Either way it must not decode.
        assert!(receiver.unprotect(wire, Direction::Uplink).is_err());
    }

    #[test]
    fn counts_advance_independently_per_direction() {
        let mut ctx = test_ctx();
        ctx.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        ctx.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        ctx.protect(&sample_msg(), Direction::Downlink, SecurityHeader::Integrity);
        assert_eq!(ctx.ul_count, 2);
        assert_eq!(ctx.dl_count, 1);
    }

    #[test]
    fn out_of_order_delivery_with_gap_still_verifies() {
        // Sender sends 3 messages; receiver only sees the third. The
        // count reconstruction from SEQ must still find the right COUNT.
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        let _m0 = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        let _m1 = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        let m2 = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert_eq!(
            receiver.unprotect(m2, Direction::Uplink).unwrap(),
            sample_msg()
        );
        assert_eq!(receiver.ul_count, 3);
    }

    #[test]
    fn seq_wrap_reconstruction() {
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        // Advance both ends to just below the 8-bit boundary.
        for _ in 0..255 {
            let w = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
            receiver.unprotect(w, Direction::Uplink).unwrap();
        }
        // The 256th message has SEQ 0xff+1 -> wire SEQ 0x00 with overflow.
        let w = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert_eq!(w[5], 0xff);
        receiver.unprotect(w, Direction::Uplink).unwrap();
        let w = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert_eq!(w[5], 0x00, "wire SEQ wraps to 0");
        receiver.unprotect(w, Direction::Uplink).unwrap();
        assert_eq!(receiver.ul_count, 257);
    }

    #[test]
    fn counts_wrap_at_two_to_the_twenty_four_in_both_directions() {
        for dir in [Direction::Uplink, Direction::Downlink] {
            let mut sender = test_ctx();
            let mut receiver = test_ctx();
            *sender.count_mut(dir) = 0xff_fffe;
            *receiver.count_mut(dir) = 0xff_fffe;
            let (mut counts, mut wires) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let w = sender.protect(&sample_msg(), dir, SecurityHeader::IntegrityCiphered);
                assert_eq!(receiver.unprotect(w.clone(), dir).unwrap(), sample_msg());
                counts.push((*sender.count_mut(dir), *receiver.count_mut(dir)));
                wires.push(w);
            }
            // COUNTs 0xff_fffe and 0xff_ffff are used, then 0.
            assert_eq!(counts, [(0xff_ffff, 0xff_ffff), (0, 0), (1, 1)], "{dir:?}");
            // The MAC and the keystream took 0x00 ‖ COUNT: the message
            // after the wrap is the one a fresh context sends first.
            let first = test_ctx().protect(&sample_msg(), dir, SecurityHeader::IntegrityCiphered);
            assert_eq!(wires[2], first, "{dir:?}");
        }
        // A receiver that missed the last messages before the wrap
        // still finds the COUNT past it.
        let mut sender = test_ctx();
        let mut receiver = test_ctx();
        sender.ul_count = 0xff_ffff;
        receiver.ul_count = 0xff_fff0;
        let _lost = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        let w = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert_eq!(w[SEQ_AT], 0x00);
        assert_eq!(receiver.unprotect(w, Direction::Uplink).unwrap(), sample_msg());
        assert_eq!(receiver.ul_count, 1);
    }

    #[test]
    fn different_keys_fail_mac() {
        let mut sender = test_ctx();
        let other_keys = derive_nas_keys(&[9; 16], &[2; 16], &[0, 0xf1, 0x10], &[3; 6]);
        let mut receiver = NasSecurityContext::new(other_keys, 1);
        let wire = sender.protect(&sample_msg(), Direction::Uplink, SecurityHeader::Integrity);
        assert_eq!(
            receiver.unprotect(wire, Direction::Uplink).unwrap_err(),
            NasError::BadMac
        );
    }

    #[test]
    fn service_request_mac_is_stable_and_key_bound() {
        let ctx = test_ctx();
        let a = ctx.service_request_mac(1, 5);
        assert_eq!(a, ctx.service_request_mac(1, 5));
        assert_ne!(a, ctx.service_request_mac(1, 6));
        let other = NasSecurityContext::new(
            derive_nas_keys(&[8; 16], &[2; 16], &[0, 0xf1, 0x10], &[3; 6]),
            1,
        );
        assert_ne!(a, other.service_request_mac(1, 5));
    }
}
