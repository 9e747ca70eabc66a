//! Per-UE state — the "state" of §2 of the paper: what the MME stores
//! per registered device, what SCALE partitions with consistent hashing
//! and replicates across MMP VMs.
//!
//! The context carries a compact binary serialization
//! ([`UeContext::to_bytes`] / [`UeContext::from_bytes`]) because SCALE
//! ships it between MMPs (intra-DC replication, §4.3.2), across DCs
//! (geo-replication, §4.5.2) and during ring re-partitioning.

use crate::MmeError;
use bytes::Bytes;
use scale_crypto::kdf::NasSecurityKeys;
use scale_nas::security::NasSecurityContext;
use scale_nas::wire::{NasError, Reader, Writer};
use scale_nas::{Guti, Imsi, Plmn, Tai};
use std::fmt;

/// EMM registration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmmState {
    Deregistered,
    /// Attach in progress (authentication / SMC / session setup).
    Registering,
    Registered,
}

/// ECM connection state — the Active/Idle distinction that drives both
/// MME compute load and SCALE's replication points (state is synced to
/// replicas when a device returns to Idle, §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcmState {
    Idle,
    /// Signalling connection being established.
    Connecting,
    Connected,
}

/// Progress marker for the multi-step attach / service procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Procedure {
    None,
    /// Waiting for the HSS authentication vector (S6a AIA).
    AwaitAuthVector,
    /// Waiting for the UE's Authentication Response.
    AwaitAuthResponse,
    /// Waiting for Security Mode Complete.
    AwaitSmcComplete,
    /// Waiting for the HSS Update Location Answer.
    AwaitUpdateLocation,
    /// Waiting for S11 Create Session Response.
    AwaitCreateSession,
    /// Waiting for Initial Context Setup Response.
    AwaitContextSetup,
    /// Waiting for Attach Complete.
    AwaitAttachComplete,
    /// Waiting for Modify Bearer Response.
    AwaitModifyBearer,
    /// Waiting for the S1 Release to complete.
    AwaitReleaseComplete,
    /// Waiting for Delete Session Response during detach.
    AwaitDeleteSession,
    /// Waiting for the target eNodeB's Handover Request Ack.
    AwaitHandoverAck,
    /// Waiting for Handover Notify from the target.
    AwaitHandoverNotify,
    /// Waiting for a paging response (service request).
    Paging,
}

/// Default bearer + data-path endpoints for one UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BearerState {
    pub ebi: u8,
    /// Our S11 TEID (embeds the MMP VM id under SCALE).
    pub s11_mme_teid: u32,
    /// S-GW's S11 TEID.
    pub s11_sgw_teid: u32,
    /// S-GW's S1-U endpoint handed to the eNodeB.
    pub s1u_sgw_teid: u32,
    pub s1u_sgw_addr: [u8; 4],
    /// UE's PDN IPv4 address.
    pub pdn_addr: [u8; 4],
}

/// Entries a [`TaiList`] holds without a heap allocation: the serving
/// TA plus the two a device picks up in its first tracking-area updates.
const INLINE_TAIS: usize = 3;

/// The tracking areas a device is registered in (the list paging fans
/// out over). Up to three entries live inline in the context; a longer
/// list moves to the heap.
#[derive(Clone)]
pub struct TaiList(Tais);

#[derive(Clone)]
enum Tais {
    Inline {
        len: u8,
        tais: [Tai; INLINE_TAIS],
    },
    /// A boxed slice, not a `Vec`: sixteen bytes, so the list costs the
    /// context 24 bytes either way. Growing it past three is rare enough
    /// to pay a reallocation per entry.
    Heap(Box<[Tai]>),
}

impl TaiList {
    /// A list of one.
    pub fn one(tai: Tai) -> Self {
        TaiList(Tais::Inline {
            len: 1,
            tais: [tai; INLINE_TAIS],
        })
    }

    fn empty() -> Self {
        let filler = Tai::new(Plmn([0; 3]), 0);
        TaiList(Tais::Inline {
            len: 0,
            tais: [filler; INLINE_TAIS],
        })
    }

    /// Append `tai`, moving the list to the heap past three entries.
    pub fn push(&mut self, tai: Tai) {
        match &mut self.0 {
            Tais::Inline { len, tais } if usize::from(*len) < INLINE_TAIS => {
                tais[usize::from(*len)] = tai;
                *len += 1;
            }
            Tais::Inline { tais, .. } => {
                self.0 = Tais::Heap(tais.iter().copied().chain([tai]).collect());
            }
            Tais::Heap(heap) => {
                *heap = heap.iter().copied().chain([tai]).collect();
            }
        }
    }

    /// The entries, in the order they were added.
    pub fn as_slice(&self) -> &[Tai] {
        match &self.0 {
            Tais::Inline { len, tais } => &tais[..usize::from(*len)],
            Tais::Heap(heap) => heap,
        }
    }
}

impl std::ops::Deref for TaiList {
    type Target = [Tai];

    fn deref(&self) -> &[Tai] {
        self.as_slice()
    }
}

impl PartialEq for TaiList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for TaiList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Everything the MME holds for one device between procedures: what
/// replication ships ([`UeContext::to_bytes`]) plus the connection and
/// procedure state of the live copy. What only an attach in flight needs
/// (the AKA vector, the completion flags) is kept beside the contexts by
/// `MmeCore`, not in every registered device's record.
#[derive(Debug, Clone, PartialEq)]
pub struct UeContext {
    pub imsi: Imsi,
    pub guti: Guti,
    pub emm: EmmState,
    pub ecm: EcmState,
    pub procedure: Procedure,
    /// MME-side S1AP id (embeds the MMP VM id under SCALE).
    pub mme_ue_id: u32,
    /// eNodeB-side S1AP id (valid while Connected).
    pub enb_ue_id: u32,
    /// Serving eNodeB (valid while Connected).
    pub enb_id: u32,
    pub tai: Tai,
    pub tai_list: TaiList,
    pub bearer: BearerState,
    /// Established NAS security context.
    pub security: Option<NasSecurityContext>,
    /// Access frequency w_i (EWMA of per-epoch activity, §4.5): drives
    /// access-aware replication decisions.
    pub access_freq: f64,
    /// Requests observed in the current epoch (folded into
    /// `access_freq` at the epoch boundary).
    pub epoch_accesses: u32,
    /// Remote DC holding an external replica, if any (§4.5.2).
    pub external_replica_dc: Option<u16>,
}

impl UeContext {
    pub fn new(imsi: Imsi, guti: Guti, tai: Tai) -> Self {
        UeContext {
            imsi,
            guti,
            emm: EmmState::Deregistered,
            ecm: EcmState::Idle,
            procedure: Procedure::None,
            mme_ue_id: 0,
            enb_ue_id: 0,
            enb_id: 0,
            tai,
            tai_list: TaiList::one(tai),
            bearer: BearerState::default(),
            security: None,
            access_freq: 0.0,
            epoch_accesses: 0,
            external_replica_dc: None,
        }
    }

    /// Record one request in this epoch (for access-frequency profiling).
    pub fn record_access(&mut self) {
        self.epoch_accesses = self.epoch_accesses.saturating_add(1);
    }

    /// Fold the epoch's activity into the moving-average access
    /// frequency: w ← α·[active this epoch] + (1−α)·w, the profiling
    /// described in §4.5.
    pub fn close_epoch(&mut self, alpha: f64) {
        let active = if self.epoch_accesses > 0 { 1.0 } else { 0.0 };
        self.access_freq = alpha * active + (1.0 - alpha) * self.access_freq;
        self.epoch_accesses = 0;
    }

    /// Serialize for replication / state transfer. Transient procedure
    /// state is intentionally *not* shipped: SCALE replicates on the
    /// Active→Idle edge, where no procedure is in flight (§4.6).
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        w.lv(&self.imsi.to_ascii()[..self.imsi.digit_count()]);
        self.guti.encode(&mut w);
        w.u8(match self.emm {
            EmmState::Deregistered => 0,
            EmmState::Registering => 1,
            EmmState::Registered => 2,
        });
        w.u32(self.mme_ue_id);
        self.tai.encode(&mut w);
        w.u8(self.tai_list.len() as u8);
        for t in self.tai_list.iter() {
            t.encode(&mut w);
        }
        // Bearer.
        w.u8(self.bearer.ebi);
        w.u32(self.bearer.s11_mme_teid);
        w.u32(self.bearer.s11_sgw_teid);
        w.u32(self.bearer.s1u_sgw_teid);
        w.slice(&self.bearer.s1u_sgw_addr);
        w.slice(&self.bearer.pdn_addr);
        // Security context.
        match &self.security {
            None => w.u8(0),
            Some(sec) => {
                w.u8(1);
                w.slice(&sec.keys.kasme);
                w.slice(&sec.keys.k_nas_enc);
                w.slice(&sec.keys.k_nas_int);
                w.u32(sec.ul_count);
                w.u32(sec.dl_count);
                w.u8(sec.ksi);
            }
        }
        w.u64(self.access_freq.to_bits());
        match self.external_replica_dc {
            None => w.u8(0),
            Some(dc) => {
                w.u8(1);
                w.u16(dc);
            }
        }
        w.finish()
    }

    /// Inverse of [`Self::to_bytes`]. Restored contexts come back Idle
    /// with no procedure in flight. Only the encoding `to_bytes` writes
    /// is accepted: an IMSI of 1–15 ASCII digits, presence bytes of 0 or
    /// 1 and nothing behind the last field — so a blob that decodes
    /// encodes back to itself.
    pub fn from_bytes(buf: Bytes) -> Result<UeContext, MmeError> {
        let mut r = Reader::new(buf);
        let digits = r.lv("imsi")?;
        let imsi = Imsi::from_ascii(&digits).ok_or(NasError::Invalid {
            what: "imsi",
            value: digits.len() as u64,
        })?;
        let guti = Guti::decode(&mut r)?;
        let emm = match r.u8("emm state")? {
            0 => EmmState::Deregistered,
            1 => EmmState::Registering,
            2 => EmmState::Registered,
            v => {
                return Err(MmeError::BadState(format!("emm state {v}")));
            }
        };
        let mme_ue_id = r.u32("mme ue id")?;
        let tai = Tai::decode(&mut r)?;
        // The count sizes nothing: each entry is read before it is kept.
        let n = r.u8("tai list len")?;
        let mut tai_list = TaiList::empty();
        for _ in 0..n {
            tai_list.push(Tai::decode(&mut r)?);
        }
        let bearer = BearerState {
            ebi: r.u8("ebi")?,
            s11_mme_teid: r.u32("s11 mme teid")?,
            s11_sgw_teid: r.u32("s11 sgw teid")?,
            s1u_sgw_teid: r.u32("s1u teid")?,
            s1u_sgw_addr: r.array("s1u addr")?,
            pdn_addr: r.array("pdn addr")?,
        };
        let security = if present(&mut r, "security present")? {
            let kasme: [u8; 32] = r.array("kasme")?;
            let k_nas_enc: [u8; 16] = r.array("k_nas_enc")?;
            let k_nas_int: [u8; 16] = r.array("k_nas_int")?;
            let ul_count = r.u32("ul count")?;
            let dl_count = r.u32("dl count")?;
            let ksi = r.u8("ksi")?;
            let mut ctx = NasSecurityContext::new(
                NasSecurityKeys {
                    kasme,
                    k_nas_enc,
                    k_nas_int,
                },
                ksi,
            );
            ctx.ul_count = ul_count;
            ctx.dl_count = dl_count;
            Some(ctx)
        } else {
            None
        };
        let access_freq = f64::from_bits(r.u64("access freq")?);
        let external_replica_dc = if present(&mut r, "ext replica present")? {
            Some(r.u16("ext replica dc")?)
        } else {
            None
        };
        if r.remaining() != 0 {
            return Err(NasError::Invalid {
                what: "bytes behind the context",
                value: r.remaining() as u64,
            }
            .into());
        }
        Ok(UeContext {
            imsi,
            guti,
            emm,
            ecm: EcmState::Idle,
            procedure: Procedure::None,
            mme_ue_id,
            enb_ue_id: 0,
            enb_id: 0,
            tai,
            tai_list,
            bearer,
            security,
            access_freq,
            epoch_accesses: 0,
            external_replica_dc,
        })
    }

    /// Approximate in-memory footprint in bytes, used by the provisioner
    /// when sizing MMP memory (the `S` of Eq 1).
    pub fn state_size(&self) -> usize {
        self.to_bytes().len()
    }
}

/// A presence byte as [`UeContext::to_bytes`] writes it: 0 or 1.
fn present(r: &mut Reader, what: &'static str) -> Result<bool, NasError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(NasError::Invalid {
            what,
            value: u64::from(v),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_crypto::kdf::derive_nas_keys;

    fn sample() -> UeContext {
        let guti = Guti {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 2,
            m_tmsi: 1234,
        };
        let imsi = Imsi::from_ascii(b"001010000000001").unwrap();
        let mut ctx = UeContext::new(imsi, guti, Tai::new(Plmn::test(), 5));
        ctx.emm = EmmState::Registered;
        ctx.mme_ue_id = 0x0200_0001;
        ctx.bearer = BearerState {
            ebi: 5,
            s11_mme_teid: 0x0200_0001,
            s11_sgw_teid: 99,
            s1u_sgw_teid: 100,
            s1u_sgw_addr: [10, 0, 0, 2],
            pdn_addr: [100, 64, 0, 7],
        };
        let keys = derive_nas_keys(&[1; 16], &[2; 16], &[0, 1, 2], &[3; 6]);
        let mut sec = NasSecurityContext::new(keys, 1);
        sec.ul_count = 17;
        sec.dl_count = 9;
        ctx.security = Some(sec);
        ctx.access_freq = 0.625;
        ctx.external_replica_dc = Some(3);
        ctx
    }

    #[test]
    fn serialization_roundtrip() {
        let ctx = sample();
        let back = UeContext::from_bytes(ctx.to_bytes()).unwrap();
        assert_eq!(back.imsi, ctx.imsi);
        assert_eq!(back.guti, ctx.guti);
        assert_eq!(back.emm, ctx.emm);
        assert_eq!(back.bearer, ctx.bearer);
        assert_eq!(back.security, ctx.security);
        assert_eq!(back.access_freq, ctx.access_freq);
        assert_eq!(back.external_replica_dc, Some(3));
        // Restored contexts are Idle with no procedure.
        assert_eq!(back.ecm, EcmState::Idle);
        assert_eq!(back.procedure, Procedure::None);
    }

    #[test]
    fn roundtrip_without_security() {
        let mut ctx = sample();
        ctx.security = None;
        ctx.external_replica_dc = None;
        let back = UeContext::from_bytes(ctx.to_bytes()).unwrap();
        assert!(back.security.is_none());
        assert!(back.external_replica_dc.is_none());
    }

    #[test]
    fn access_frequency_ewma() {
        let mut ctx = sample();
        ctx.access_freq = 0.0;
        // Active for 3 epochs with α = 0.5: w = 0.5, 0.75, 0.875.
        for want in [0.5, 0.75, 0.875] {
            ctx.record_access();
            ctx.close_epoch(0.5);
            assert!((ctx.access_freq - want).abs() < 1e-9);
        }
        // Then dormant: decays toward 0.
        ctx.close_epoch(0.5);
        assert!((ctx.access_freq - 0.4375).abs() < 1e-9);
        assert_eq!(ctx.epoch_accesses, 0);
    }

    #[test]
    fn state_size_is_plausible() {
        let size = sample().state_size();
        // Keys + ids + bearer: on the order of 100–200 bytes.
        assert!(size > 80 && size < 400, "unexpected state size {size}");
    }

    /// `mem_kb_per_ue` is R of these per device: crypto speed must not
    /// be bought by caching key schedules or MAC state in the context,
    /// and nothing only an attach in flight needs rides in it.
    #[test]
    fn context_caches_no_crypto_state() {
        assert!(std::mem::size_of::<UeContext>() <= 192);
    }

    #[test]
    fn a_tai_list_moves_to_the_heap_past_three_entries_and_keeps_its_order() {
        let tai = |tac| Tai::new(Plmn::test(), tac);
        let mut list = TaiList::one(tai(1));
        for tac in 2..=6 {
            list.push(tai(tac));
            let want: Vec<Tai> = (1..=tac).map(tai).collect();
            assert_eq!(list.as_slice(), &want[..]);
            assert_eq!(matches!(list.0, Tais::Heap(_)), tac > 3);
        }
    }

    #[test]
    fn corrupt_state_rejected() {
        let bytes = sample().to_bytes();
        let truncated = bytes.slice(..bytes.len() / 2);
        assert!(UeContext::from_bytes(truncated).is_err());
    }
}
