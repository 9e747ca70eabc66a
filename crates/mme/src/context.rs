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
use scale_nas::wire::NasError;
use scale_nas::{Guti, Imsi, Plmn, Tai};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

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
    /// Our S11 TEID: the device's M-TMSI once a session exists (`ebi`
    /// non-zero), 0 before. A DDN resolves through the map the copy
    /// already lives in, and the replica blob need not carry it.
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
        self.access_freq = fold_access(self.access_freq, self.epoch_accesses, alpha);
        self.epoch_accesses = 0;
    }

    /// Serialize for replication / state transfer. Transient procedure
    /// state is intentionally *not* shipped: SCALE replicates on the
    /// Active→Idle edge, where no procedure is in flight (§4.6).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.blob_len());
        self.encode(&mut out);
        Bytes::from(out)
    }

    /// How many bytes [`Self::to_bytes`] writes.
    fn blob_len(&self) -> usize {
        let security = if self.security.is_some() { 1 + 32 + 16 + 16 + 3 + 3 } else { 1 };
        let external = if self.external_replica_dc.is_some() { 3 } else { 1 };
        8 + Guti::WIRE_LEN
            + 1
            + Tai::WIRE_LEN * (1 + self.tai_list.len())
            + 1
            + 1
            + 4 * 2
            + 4 * 2
            + security
            + 8
            + external
    }

    /// What [`Self::to_bytes`] writes, appended to `out`. It runs on
    /// every Idle edge, so it writes into the `Vec` itself rather than
    /// through `Writer`, each of whose puts is a call across crates.
    ///
    /// Every field at its spec width, and nothing the record can
    /// rebuild: the IMSI packed (8 bytes), each NAS COUNT in its 24
    /// bits, the 3-bit KSI in the security presence byte (0 absent, else
    /// KSI + 1). Neither the MME-UE-S1AP-ID, which every wake mints
    /// afresh, nor the S11 TEID, which is the M-TMSI, is written.
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.imsi.packed().to_be_bytes());
        out.extend_from_slice(&self.guti.to_bytes());
        out.push(match self.emm {
            EmmState::Deregistered => 0,
            EmmState::Registering => 1,
            EmmState::Registered => 2,
        });
        let put_tai = |out: &mut Vec<u8>, t: &Tai| {
            out.extend_from_slice(&t.plmn.0);
            out.extend_from_slice(&t.tac.to_be_bytes());
        };
        put_tai(out, &self.tai);
        out.push(self.tai_list.len() as u8);
        for t in self.tai_list.iter() {
            put_tai(out, t);
        }
        // Bearer.
        let b = &self.bearer;
        out.push(b.ebi);
        for teid in [b.s11_sgw_teid, b.s1u_sgw_teid] {
            out.extend_from_slice(&teid.to_be_bytes());
        }
        out.extend_from_slice(&b.s1u_sgw_addr);
        out.extend_from_slice(&b.pdn_addr);
        // Security context.
        match &self.security {
            None => out.push(0),
            Some(sec) => {
                out.push(1 + (sec.ksi & KSI_MASK));
                out.extend_from_slice(&sec.keys.kasme);
                out.extend_from_slice(&sec.keys.k_nas_enc);
                out.extend_from_slice(&sec.keys.k_nas_int);
                out.extend_from_slice(&sec.ul_count.to_be_bytes()[1..]);
                out.extend_from_slice(&sec.dl_count.to_be_bytes()[1..]);
            }
        }
        out.extend_from_slice(&self.access_freq.to_bits().to_be_bytes());
        match self.external_replica_dc {
            None => out.push(0),
            Some(dc) => {
                out.push(1);
                out.extend_from_slice(&dc.to_be_bytes());
            }
        }
    }

    /// Inverse of [`Self::to_bytes`]. Restored contexts come back Idle
    /// with no procedure in flight and no connection, so no
    /// MME-UE-S1AP-ID; the S11 TEID is the M-TMSI when a bearer exists.
    /// Only the encoding `to_bytes` writes is accepted: a canonical
    /// packed IMSI, a security byte of 0–8, presence bytes of 0 or 1 and
    /// nothing behind the last field — so a blob that decodes encodes
    /// back to itself.
    pub fn from_bytes(blob: impl AsRef<[u8]>) -> Result<UeContext, MmeError> {
        let mut tai_list = TaiList::empty();
        let f = read_blob(blob.as_ref(), |tai| tai_list.push(tai))?;
        Ok(UeContext {
            imsi: f.keys.imsi,
            guti: f.keys.guti,
            emm: f.emm,
            ecm: EcmState::Idle,
            procedure: Procedure::None,
            mme_ue_id: 0,
            enb_ue_id: 0,
            enb_id: 0,
            tai: f.tai,
            tai_list,
            bearer: f.bearer,
            security: f.security,
            access_freq: f.keys.access_freq,
            epoch_accesses: 0,
            external_replica_dc: f.external_replica_dc,
        })
    }

    /// The ids a replica blob is indexed under, and its access
    /// frequency, read without building the record: what a holder needs
    /// to keep the blob as it came. It accepts exactly the blobs
    /// [`Self::from_bytes`] accepts, and fails on the others with the
    /// same error: both run the one decoder.
    pub fn peek(blob: &[u8]) -> Result<BlobKeys, MmeError> {
        read_blob(blob, |_| {}).map(|f| f.keys)
    }

    /// Approximate in-memory footprint in bytes, used by the provisioner
    /// when sizing MMP memory (the `S` of Eq 1).
    pub fn state_size(&self) -> usize {
        self.to_bytes().len()
    }
}

/// What [`UeContext::peek`] reads from a replica blob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobKeys {
    pub imsi: Imsi,
    pub guti: Guti,
    /// The access frequency w_i (§4.5) the epoch's replica allocation
    /// weighs.
    pub access_freq: f64,
    /// Where its eight bytes sit in the blob.
    pub(crate) access_freq_at: usize,
}

/// Every field of a blob but the TAI list.
struct BlobFields {
    keys: BlobKeys,
    emm: EmmState,
    tai: Tai,
    bearer: BearerState,
    security: Option<NasSecurityContext>,
    external_replica_dc: Option<u16>,
}

/// The replica blob decoder, for [`UeContext::from_bytes`] and
/// [`UeContext::peek`] alike: the TAI list's entries go to `tai_entry`
/// one by one, so a caller after the keys builds nothing.
fn read_blob(blob: &[u8], mut tai_entry: impl FnMut(Tai)) -> Result<BlobFields, MmeError> {
    let mut r = Cursor(blob);
    let packed = u64::from_be_bytes(r.array("imsi")?);
    let imsi = Imsi::from_packed(packed).ok_or(NasError::Invalid {
        what: "imsi",
        value: packed,
    })?;
    let guti = Guti::from_bytes(&r.array("guti")?);
    let emm = match r.u8("emm state")? {
        0 => EmmState::Deregistered,
        1 => EmmState::Registering,
        2 => EmmState::Registered,
        v => {
            return Err(MmeError::BadState(format!("emm state {v}")));
        }
    };
    let tai = read_tai(&mut r)?;
    // The count sizes nothing: each entry is read before it is kept.
    for _ in 0..r.u8("tai list len")? {
        tai_entry(read_tai(&mut r)?);
    }
    let ebi = r.u8("ebi")?;
    let bearer = BearerState {
        ebi,
        s11_mme_teid: if ebi == 0 { 0 } else { guti.m_tmsi },
        s11_sgw_teid: r.u32("s11 sgw teid")?,
        s1u_sgw_teid: r.u32("s1u teid")?,
        s1u_sgw_addr: r.array("s1u addr")?,
        pdn_addr: r.array("pdn addr")?,
    };
    let security = match r.u8("security")? {
        0 => None,
        ksi_1 @ 1..=KSI_PRESENT_MAX => {
            let kasme: [u8; 32] = r.array("kasme")?;
            let k_nas_enc: [u8; 16] = r.array("k_nas_enc")?;
            let k_nas_int: [u8; 16] = r.array("k_nas_int")?;
            let ul_count = r.u24("ul count")?;
            let dl_count = r.u24("dl count")?;
            let mut ctx = NasSecurityContext::new(
                NasSecurityKeys {
                    kasme,
                    k_nas_enc,
                    k_nas_int,
                },
                ksi_1 - 1,
            );
            ctx.ul_count = ul_count;
            ctx.dl_count = dl_count;
            Some(ctx)
        }
        v => {
            return Err(NasError::Invalid {
                what: "security",
                value: u64::from(v),
            }
            .into())
        }
    };
    let access_freq_at = blob.len() - r.remaining();
    let access_freq = f64::from_bits(u64::from_be_bytes(r.array("access freq")?));
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
    Ok(BlobFields {
        keys: BlobKeys {
            imsi,
            guti,
            access_freq,
            access_freq_at,
        },
        emm,
        tai,
        bearer,
        security,
        external_replica_dc,
    })
}

/// [`scale_nas::wire::View`]'s checked big-endian reads, with its
/// errors: the same reads, here so that the blob decoder, which runs on
/// every wake, inlines them instead of calling across crates per field.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], NasError> {
        if self.0.len() < n {
            return Err(NasError::Truncated {
                what,
                needed: n - self.0.len(),
            });
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], NasError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(what, N)?);
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, NasError> {
        Ok(self.array::<1>(what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, NasError> {
        self.array(what).map(u16::from_be_bytes)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, NasError> {
        self.array(what).map(u32::from_be_bytes)
    }

    /// A NAS COUNT: three bytes, read as one array.
    fn u24(&mut self, what: &'static str) -> Result<u32, NasError> {
        let [a, b, c] = self.array(what)?;
        Ok(u32::from_be_bytes([0, a, b, c]))
    }
}

/// A [`Tai`] as [`Tai::encode`] writes it.
fn read_tai(r: &mut Cursor<'_>) -> Result<Tai, NasError> {
    let plmn: [u8; 3] = r.array("tai plmn")?;
    Ok(Tai::new(Plmn(plmn), r.u16("tac")?))
}

/// The KSI is three bits (TS 24.301 §9.9.3.21); the blob's security
/// byte is 0 for no context, else KSI + 1.
const KSI_MASK: u8 = 0x7;
const KSI_PRESENT_MAX: u8 = KSI_MASK + 1;

/// A presence byte as [`UeContext::to_bytes`] writes it: 0 or 1.
fn present(r: &mut Cursor<'_>, what: &'static str) -> Result<bool, NasError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(NasError::Invalid {
            what,
            value: u64::from(v),
        }),
    }
}

/// Where a blob keeps the GUTI's M-TMSI (its last four bytes, behind the
/// packed IMSI), and its TAI list's count: behind the GUTI, the EMM
/// state and the serving TAI.
const M_TMSI_AT: usize = 8 + Guti::WIRE_LEN - 4;
const TAI_COUNT_AT: usize = 8 + Guti::WIRE_LEN + 1 + Tai::WIRE_LEN;

/// An Idle copy at rest: the replica blob [`UeContext::to_bytes`]
/// wrote, followed in the same allocation by the two fields of the Idle
/// record that the blob omits and that still count — the serving
/// eNodeB, which the engine's fingerprint tells states apart by, and
/// the accesses of the current epoch, which `close_epoch` folds. A copy
/// with both zero, as every imported replica is, keeps a one-byte tail
/// (`0`); any other keeps both, big-endian, and then a `1`.
///
/// A copy is its own key: it hashes and compares as the four M-TMSI
/// bytes its blob carries ([`AtRest::key`]), and lends them out through
/// `Borrow<[u8; 4]>`, so a set of copies is looked up by
/// `m_tmsi.to_be_bytes()` and keeps no key beside each 16-byte box.
pub(crate) struct AtRest(Box<[u8]>);

const _: () = assert!(std::mem::size_of::<AtRest>() == 16);

impl AtRest {
    /// The two tail fields and the byte that says they are there.
    const TAIL: usize = 9;

    /// `ctx` at its Idle edge: Idle, nothing in flight, no eNodeB-side
    /// id — everything else it holds is in the blob or the tail.
    pub(crate) fn of(ctx: &UeContext) -> AtRest {
        debug_assert!(ctx.ecm == EcmState::Idle && ctx.procedure == Procedure::None);
        debug_assert_eq!(ctx.enb_ue_id, 0);
        let tail = (ctx.enb_id, ctx.epoch_accesses);
        let mut buf = Vec::with_capacity(ctx.blob_len() + Self::tail_len_of(tail));
        ctx.encode(&mut buf);
        debug_assert_eq!(buf.len(), ctx.blob_len());
        Self::with_tail(buf, tail)
    }

    /// A received replica blob, copied: the holder keeps its own bytes,
    /// never a slice of the buffer the blob arrived in.
    pub(crate) fn import(blob: &[u8]) -> AtRest {
        let mut buf = Vec::with_capacity(blob.len() + 1);
        buf.extend_from_slice(blob);
        Self::with_tail(buf, (0, 0))
    }

    fn tail_len_of(tail: (u32, u32)) -> usize {
        if tail == (0, 0) {
            1
        } else {
            Self::TAIL
        }
    }

    /// `buf` has room for the tail, so the box takes it as it is.
    fn with_tail(mut buf: Vec<u8>, (enb_id, epoch_accesses): (u32, u32)) -> AtRest {
        if (enb_id, epoch_accesses) == (0, 0) {
            buf.push(0);
        } else {
            buf.extend_from_slice(&enb_id.to_be_bytes());
            buf.extend_from_slice(&epoch_accesses.to_be_bytes());
            buf.push(1);
        }
        debug_assert_eq!(buf.len(), buf.capacity());
        AtRest(buf.into_boxed_slice())
    }

    /// The GUTI's M-TMSI, big-endian, where the blob keeps it. Every
    /// copy holds one (`of` encodes a whole record, `import` takes only
    /// bytes that [`UeContext::peek`] read); bytes too short for it
    /// would key as zero.
    fn key(&self) -> &[u8; 4] {
        const NONE: &[u8; 4] = &[0; 4];
        self.0
            .get(M_TMSI_AT..M_TMSI_AT + 4)
            .and_then(|b| b.try_into().ok())
            .unwrap_or(NONE)
    }

    /// The M-TMSI this copy is held under: its GUTI's.
    pub(crate) fn m_tmsi(&self) -> u32 {
        u32::from_be_bytes(*self.key())
    }

    /// The replica blob, as [`UeContext::to_bytes`] would write it.
    pub(crate) fn blob(&self) -> &[u8] {
        &self.0[..self.0.len() - self.tail_len()]
    }

    fn tail_len(&self) -> usize {
        match self.0.last() {
            Some(1) => Self::TAIL,
            _ => 1,
        }
    }

    /// The serving eNodeB and the epoch's accesses.
    pub(crate) fn tail(&self) -> (u32, u32) {
        if self.tail_len() == 1 {
            return (0, 0);
        }
        let at = self.0.len() - Self::TAIL;
        let word = |k: usize| {
            let mut b = [0; 4];
            b.copy_from_slice(&self.0[at + k..at + k + 4]);
            u32::from_be_bytes(b)
        };
        (word(0), word(4))
    }

    /// The packed IMSI, the M-TMSI and the S11 TEID of the record this
    /// copy stands for, read where [`UeContext::to_bytes`] puts them —
    /// the first two at fixed offsets, the EBI that decides the TEID
    /// right behind the TAI list — without a decode: a DDN asks it of
    /// one copy, the index audit of every copy. `None` only for bytes
    /// the encoder did not write.
    pub(crate) fn ids(&self) -> Option<(u64, u32, u32)> {
        let b = self.blob();
        let packed = u64::from_be_bytes(b.get(..8)?.try_into().ok()?);
        let m_tmsi = self.m_tmsi();
        let tais = usize::from(*b.get(TAI_COUNT_AT)?);
        let ebi = *b.get(TAI_COUNT_AT + 1 + Tai::WIRE_LEN * tais)?;
        let teid = if ebi == 0 { 0 } else { m_tmsi };
        Some((packed, m_tmsi, teid))
    }

    /// The Idle record this copy stands for.
    pub(crate) fn decode(&self) -> Result<UeContext, MmeError> {
        let mut ctx = UeContext::from_bytes(self.blob())?;
        (ctx.enb_id, ctx.epoch_accesses) = self.tail();
        Ok(ctx)
    }

    /// [`UeContext::close_epoch`], on the bytes.
    pub(crate) fn close_epoch(&mut self, alpha: f64) {
        let (_, accesses) = self.tail();
        let Ok(keys) = UeContext::peek(self.blob()) else {
            return;
        };
        let w = fold_access(keys.access_freq, accesses, alpha);
        let at = keys.access_freq_at;
        self.0[at..at + 8].copy_from_slice(&w.to_bits().to_be_bytes());
        if self.tail_len() == Self::TAIL {
            // The epoch's accesses start again from zero.
            let at = self.0.len() - Self::TAIL + 4;
            self.0[at..at + 4].fill(0);
        }
    }
}

impl Borrow<[u8; 4]> for AtRest {
    fn borrow(&self) -> &[u8; 4] {
        self.key()
    }
}

impl PartialEq for AtRest {
    fn eq(&self, other: &AtRest) -> bool {
        self.key() == other.key()
    }
}

impl Eq for AtRest {}

impl Hash for AtRest {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.key().hash(h);
    }
}

/// The §4.5 profiling step: w ← α·[active this epoch] + (1−α)·w.
fn fold_access(w: f64, accesses: u32, alpha: f64) -> f64 {
    let active = if accesses > 0 { 1.0 } else { 0.0 };
    alpha * active + (1.0 - alpha) * w
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
        ctx.bearer = BearerState {
            ebi: 5,
            s11_mme_teid: 1234,
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
        assert_eq!(ctx.to_bytes().len(), 127 + 2);
        let back = UeContext::from_bytes(ctx.to_bytes()).unwrap();
        assert_eq!(back, ctx);
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
    fn a_copy_at_rest_reads_its_ids_where_the_decoder_does() {
        let mut ctx = sample();
        for n in 1..=6 {
            for ebi in [0, 5] {
                ctx.bearer.ebi = ebi;
                ctx.bearer.s11_mme_teid = if ebi == 0 { 0 } else { ctx.guti.m_tmsi };
                let rest = AtRest::import(&ctx.to_bytes());
                assert_eq!(rest.decode().unwrap(), ctx, "{n} TAIs");
                let want = (ctx.imsi.packed(), ctx.guti.m_tmsi, ctx.bearer.s11_mme_teid);
                assert_eq!(rest.ids(), Some(want), "{n} TAIs, EBI {ebi}");
            }
            ctx.tai_list.push(Tai::new(Plmn::test(), 0x100 + n));
        }
    }

    #[test]
    fn corrupt_state_rejected() {
        let bytes = sample().to_bytes();
        let truncated = bytes.slice(..bytes.len() / 2);
        assert!(UeContext::from_bytes(truncated).is_err());
    }
}
