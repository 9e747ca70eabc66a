//! The MME procedure engine: a sans-IO state machine that consumes
//! S1AP / S11 / S6a messages and emits the responses and follow-up
//! requests of each 3GPP procedure (§2 of the paper: attach, service
//! request, TA update, paging, handover, detach).
//!
//! The same engine backs every deployment in this reproduction: the
//! legacy-pool baseline MME, SCALE's MMP VMs (which set `vm_id` so their
//! identity is embedded in every MME-UE-S1AP-ID they mint — the routing
//! trick of §5 "Load Balancing"), the discrete-event simulator and the
//! tokio prototype. The S11 TEID is the device's M-TMSI: an engine that
//! mints M-TMSIs itself embeds its `vm_id` in them, and under SCALE the
//! MLB assigns them and routes a Downlink Data Notification by the ring.

use crate::context::{AtRest, EcmState, EmmState, Procedure, UeContext};
use bytes::Bytes;
use scale_crypto::kdf::{NasSecurityKeys, ALG_ID_AES};
use scale_diameter::{result_code, DiameterMsg, EutranVector, S6a};
use scale_gtpc as gtpc;
use scale_gtpc::{iface_type, Ambr, BearerContext, Cause, Fteid};
use scale_nas::security::{Direction, SecurityHeader};
use scale_nas::{
    is_protected, EmmMessage, Guti, Imsi, MobileId, NasError, NasSecurityContext, Plmn, Tai,
};
use scale_s1ap::{cause as s1_cause, ErabSetup, Gummei, S1apPdu};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum MmeError {
    Nas(NasError),
    Gtp(gtpc::DecodeError),
    Diameter(scale_diameter::DiameterError),
    UnknownUe(&'static str),
    BadState(String),
}

impl fmt::Display for MmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmeError::Nas(e) => write!(f, "nas: {e}"),
            MmeError::Gtp(e) => write!(f, "gtp: {e}"),
            MmeError::Diameter(e) => write!(f, "diameter: {e}"),
            MmeError::UnknownUe(w) => write!(f, "unknown UE ({w})"),
            MmeError::BadState(s) => write!(f, "bad state: {s}"),
        }
    }
}

impl std::error::Error for MmeError {}

impl From<NasError> for MmeError {
    fn from(e: NasError) -> Self {
        MmeError::Nas(e)
    }
}

impl From<gtpc::DecodeError> for MmeError {
    fn from(e: gtpc::DecodeError) -> Self {
        MmeError::Gtp(e)
    }
}

impl From<scale_diameter::DiameterError> for MmeError {
    fn from(e: scale_diameter::DiameterError) -> Self {
        MmeError::Diameter(e)
    }
}

/// Compose a 32-bit id carrying the minting VM in the top byte — the
/// paper's mechanism for routing Active-mode requests back to the right
/// MMP ("each MMP embeds its unique ID in both the S1AP-id &
/// S11-tunnel-id", §5).
pub fn compose_id(vm_id: u8, local: u32) -> u32 {
    ((vm_id as u32) << 24) | (local & 0x00ff_ffff)
}

/// Extract the VM id from a composed id.
pub fn vm_of_id(id: u32) -> u8 {
    (id >> 24) as u8
}

/// Slots an engine that mints its own M-TMSIs probes per IMSI attach
/// ([`MmeCore::minted_m_tmsi`]).
const MINT_WINDOW: u32 = 8;

/// A fixed, well-mixed function of 64 bits (the SplitMix64 finaliser):
/// where a minted window starts, of a packed IMSI under the engine's
/// key ([`MmeCore::minted_m_tmsi`]), the same in every process.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Static configuration of one MME / MMP instance.
#[derive(Debug, Clone)]
pub struct MmeConfig {
    pub plmn: Plmn,
    pub mme_group_id: u16,
    /// MME code — embedded in allocated GUTIs; the eNodeB's routing key
    /// in the legacy pool.
    pub mme_code: u8,
    pub mme_name: String,
    /// VM id embedded in minted S1AP/S11 ids (0 for a standalone MME).
    pub vm_id: u8,
    pub apn: String,
    /// Periodic TAU timer handed to UEs, seconds.
    pub t3412_s: u32,
    /// S1 Setup Response weight (new legacy MMEs announce a low value).
    pub relative_capacity: u8,
    pub mme_addr: [u8; 4],
    pub ambr_ul_kbps: u32,
    pub ambr_dl_kbps: u32,
}

impl Default for MmeConfig {
    fn default() -> Self {
        MmeConfig {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 1,
            mme_name: "mme-1".into(),
            vm_id: 0,
            apn: "internet".into(),
            t3412_s: 3240,
            relative_capacity: 255,
            mme_addr: [10, 0, 0, 1],
            ambr_ul_kbps: 50_000,
            ambr_dl_kbps: 150_000,
        }
    }
}

/// Inbound events.
#[derive(Debug, Clone)]
pub enum Incoming {
    S1ap { enb_id: u32, pdu: S1apPdu },
    S11(gtpc::Message),
    S6a(DiameterMsg),
}

/// Outbound actions plus lifecycle notifications (the hooks SCALE's
/// replication manager attaches to).
#[derive(Debug, Clone)]
pub enum Outgoing {
    S1ap { enb_id: u32, pdu: S1apPdu },
    S11(gtpc::Message),
    S6a(DiameterMsg),
    /// Device finished attach (now Registered + Connected).
    UeAttached { guti: Guti },
    /// Device returned to Idle — SCALE replicates its state here (§4.6).
    UeIdle { guti: Guti },
    /// Device became Active again.
    UeActive { guti: Guti },
    /// The device's procedure ended and it is registered nowhere: a
    /// detach, or the release that ends a failed attach (the record is
    /// removed), or the release that ends a refused attach, whose
    /// `guti` names another device's copy, which the engine keeps. A
    /// holder's copy under `guti` is stale only if the emitting engine
    /// no longer holds one.
    UeDetached { guti: Guti },
}

/// Per-procedure counters (reported by the experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmeStats {
    pub attaches_started: u64,
    pub attaches_completed: u64,
    pub service_requests: u64,
    pub taus: u64,
    pub handovers: u64,
    pub pagings: u64,
    pub detaches: u64,
    pub auth_failures: u64,
    /// USIM synch failures (#21) answered with a resynchronising AIR.
    pub resyncs: u64,
    pub rejects: u64,
    pub messages_processed: u64,
    /// Connected-mode uplinks answered with an Error Indication: their
    /// ids named no connection here (TS 36.413 §10.6). Not errors — a
    /// restarted engine meets the uplinks its predecessor left behind.
    pub error_indications: u64,
}

/// What an attach or detach in flight needs beyond the device's context,
/// kept beside the contexts so that a registered device's record does
/// not carry it: the AKA vector until the Authentication Response is
/// checked (with its RAND, for a resynchronisation, and whether one was
/// already asked for), and which of the two events that complete an
/// attach — Modify Bearer Response and Attach Complete, in either order
/// — have arrived (a detach keeps its switch-off flag in the first).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct InFlight {
    xres: Option<[u8; 8]>,
    kasme: Option<[u8; 32]>,
    rand: Option<[u8; 16]>,
    resynced: bool,
    done: Option<(bool, bool)>,
}

impl InFlight {
    /// The vector is spent: nothing of the AKA run is left.
    fn end_aka(&mut self) {
        (self.xres, self.kasme, self.rand, self.resynced) = (None, None, None, false);
    }
}

/// The engine. Keyed internally by M-TMSI (unique per MME code).
///
/// A device's copy is held in one of two forms. Connected, or with a
/// procedure in flight, it is a decoded record in `contexts`. Idle, it
/// is at rest in `at_rest`: the replica blob it would be exported as,
/// which is all any holder of an Idle copy needs until the device next
/// wakes there (`MmeCore::wake`).
///
/// Every index entry holds only what it must: an at-rest bucket is the
/// copy's 16-byte box, keyed by the M-TMSI bytes inside its blob. No
/// table is keyed by IMSI: an IMSI attach is handed the M-TMSI its
/// record lives under, or derives it ([`MmeCore::set_guti_hint`]).
pub struct MmeCore {
    pub config: MmeConfig,
    /// Each record boxed, so the table holds 16-byte entries and a
    /// growing population moves pointers, not records. The other id
    /// maps name M-TMSIs and resolve through this one or `at_rest`.
    contexts: HashMap<u32, Box<UeContext>>,
    /// Idle copies: imported replicas, and the serving copy from its
    /// Idle edge on. Each is its own key ([`AtRest`]): looked up by
    /// `m_tmsi.to_be_bytes()`, and stored with `replace`, which, unlike
    /// `insert`, puts a fresher copy in the place of a held one.
    at_rest: HashSet<AtRest>,
    /// The at-rest copies decoded, for the read-only views
    /// ([`MmeCore::contexts`], [`MmeCore::context`]) only: built on the
    /// first call and dropped by every `&mut self` entry point.
    snapshot: OnceLock<HashMap<u32, UeContext>>,
    /// Decoded records only: an Active-mode message names the
    /// connection's id, and only a Connected copy has a connection.
    /// (The S11 TEID needs no map: it is the M-TMSI.)
    by_mme_ue_id: HashMap<u32, u32>,
    /// Where the next IMSI attach minted here starts looking for a free
    /// slot, and the counter of legacy re-homes.
    next_m_tmsi: u32,
    /// What salts the mix an IMSI attach's minted M-TMSI derives from,
    /// so that the IMSI alone does not tell the M-TMSI: fixed by the
    /// engine's configuration, its S11 address among it, which no device
    /// sees.
    mint_key: u64,
    next_local_id: u32,
    s11_seq: u32,
    s6a_hbh: u32,
    pending_s11: HashMap<u32, u32>,
    pending_s6a: HashMap<u32, u32>,
    /// Handover bookkeeping: m_tmsi → (source eNB, source eNB-UE id).
    pending_ho: HashMap<u32, (u32, u32)>,
    /// Externally assigned M-TMSI for the next GUTI allocation — SCALE's
    /// MLB assigns GUTIs before routing (§4.3.1: "In case of a request
    /// from an unregistered device, the MLB first assigns it a GUTI").
    guti_hint: Option<u32>,
    /// Per M-TMSI, while an attach or detach is in flight; an entry that
    /// has nothing left in it is removed ([`MmeCore::settle`]).
    in_flight: HashMap<u32, InFlight>,
    /// Refused attaches whose release is not yet complete: (MME-UE-S1AP-
    /// ID, hinted M-TMSI), so that the Release Complete ends the
    /// procedure the MLB opened under that M-TMSI. Empty but for the
    /// moment between a refusal and its Release Complete.
    refused: Vec<(u32, u32)>,
    pub stats: MmeStats,
}

impl MmeCore {
    pub fn new(config: MmeConfig) -> Self {
        // Per-VM id spaces so MMPs in one pool never collide: the S11
        // sequence is 24-bit on the wire (vm in the top 8 of those), the
        // Diameter hop-by-hop id is 32-bit (vm in the top 8).
        let s11_seq = ((config.vm_id as u32) << 16) | 1;
        let s6a_hbh = ((config.vm_id as u32) << 24) | 1;
        let [a, b, c, d] = config.mme_addr;
        let [g, h] = config.mme_group_id.to_be_bytes();
        let mint_key = mix64(u64::from_be_bytes([a, b, c, d, g, h, config.mme_code, config.vm_id]));
        MmeCore {
            config,
            contexts: HashMap::new(),
            at_rest: HashSet::new(),
            snapshot: OnceLock::new(),
            by_mme_ue_id: HashMap::new(),
            next_m_tmsi: 1,
            mint_key,
            next_local_id: 1,
            s11_seq,
            s6a_hbh,
            pending_s11: HashMap::new(),
            pending_s6a: HashMap::new(),
            pending_ho: HashMap::new(),
            in_flight: HashMap::new(),
            guti_hint: None,
            refused: Vec::new(),
            stats: MmeStats::default(),
        }
    }

    /// Number of UE contexts held (registered devices, the `K` of Eq 1).
    pub fn context_count(&self) -> usize {
        self.contexts.len() + self.at_rest.len()
    }

    /// Whether a copy of `guti`'s context is held here, in either form.
    /// Decodes nothing: the presence check for the event path.
    pub fn holds(&self, guti: &Guti) -> bool {
        self.contexts.contains_key(&guti.m_tmsi)
            || self.at_rest.contains(&guti.m_tmsi.to_be_bytes())
    }

    /// The ECM state of the copy of `guti`'s context held here, if any.
    /// A copy at rest is Idle.
    pub fn ecm(&self, guti: &Guti) -> Option<EcmState> {
        match self.contexts.get(&guti.m_tmsi) {
            Some(ctx) => Some(ctx.ecm),
            None => self
                .at_rest
                .contains(&guti.m_tmsi.to_be_bytes())
                .then_some(EcmState::Idle),
        }
    }

    /// M-TMSI and access frequency w_i of every copy held — what an
    /// epoch's replica allocation weighs — read without a decode.
    pub fn access_freqs(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let decoded = self.contexts.iter().map(|(&m, c)| (m, c.access_freq));
        let at_rest = self.at_rest.iter().filter_map(|rest| {
            UeContext::peek(rest.blob()).ok().map(|k| (rest.m_tmsi(), k.access_freq))
        });
        decoded.chain(at_rest)
    }

    /// Iterate contexts (read-only). Copies at rest are decoded into a
    /// snapshot the next `&mut self` call drops: for audits and tests,
    /// not the event path.
    pub fn contexts(&self) -> impl Iterator<Item = &UeContext> {
        self.contexts
            .values()
            .map(|c| &**c)
            .chain(self.snapshot().values())
    }

    /// Look up a context by GUTI. Like [`Self::contexts`], for audits
    /// and tests: a copy at rest is read from the decoded snapshot.
    pub fn context(&self, guti: &Guti) -> Option<&UeContext> {
        match self.contexts.get(&guti.m_tmsi) {
            Some(ctx) => Some(&**ctx),
            None if self.at_rest.contains(&guti.m_tmsi.to_be_bytes()) => {
                self.snapshot().get(&guti.m_tmsi)
            }
            None => None,
        }
    }

    fn snapshot(&self) -> &HashMap<u32, UeContext> {
        self.snapshot.get_or_init(|| {
            self.at_rest
                .iter()
                .filter_map(|rest| rest.decode().ok().map(|ctx| (rest.m_tmsi(), ctx)))
                .collect()
        })
    }

    /// Called first by every `&mut self` entry point: the snapshot of
    /// [`Self::contexts`] is only good until the engine changes.
    fn drop_snapshot(&mut self) {
        if self.snapshot.get().is_some() {
            self.snapshot.take();
        }
    }

    /// Fold every copy's epoch activity into its access frequency
    /// ([`UeContext::close_epoch`]), at rest on the bytes. A set lends
    /// its copies out only shared, so they leave it and come back into
    /// the same table, whose capacity stays; the fold never touches the
    /// M-TMSI they are keyed by.
    pub fn close_epoch(&mut self, alpha: f64) {
        self.drop_snapshot();
        for ctx in self.contexts.values_mut() {
            ctx.close_epoch(alpha);
        }
        let rested: Vec<AtRest> = self.at_rest.drain().collect();
        self.at_rest.extend(rested.into_iter().map(|mut rest| {
            rest.close_epoch(alpha);
            rest
        }));
    }

    /// Hash the engine's behavior-relevant state into `h` — every
    /// context (including the transient procedure fields that
    /// `UeContext::to_bytes` deliberately omits), the pending-response
    /// tables and the id allocators. `stats` and the per-epoch access
    /// counters are excluded: they never steer future message handling,
    /// and folding monotone counters in would defeat the protocol model
    /// checker's visited-set dedup. A copy hashes the same at rest as
    /// decoded: at rest it has no connection, so no MME-UE-S1AP-ID.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut keys: Vec<u32> = self
            .contexts
            .keys()
            .copied()
            .chain(self.at_rest.iter().map(AtRest::m_tmsi))
            .collect();
        keys.sort_unstable();
        for m_tmsi in keys {
            m_tmsi.hash(h);
            if let Some(ctx) = self.contexts.get(&m_tmsi) {
                ctx.to_bytes().as_ref().hash(h);
                // Transient fields absent from the replication
                // serialization still steer the live engine.
                (ctx.ecm as u8, ctx.procedure as u8).hash(h);
                (ctx.mme_ue_id, ctx.enb_ue_id, ctx.enb_id).hash(h);
            } else if let Some(rest) = self.at_rest.get(&m_tmsi.to_be_bytes()) {
                rest.blob().hash(h);
                (EcmState::Idle as u8, Procedure::None as u8).hash(h);
                (0u32, 0u32, rest.tail().0).hash(h);
            }
            let aka = self.in_flight.get(&m_tmsi).copied().unwrap_or_default();
            aka.xres.hash(h);
            aka.kasme.hash(h);
            (aka.rand, aka.resynced).hash(h);
        }
        (self.next_m_tmsi, self.next_local_id, self.s11_seq, self.s6a_hbh).hash(h);
        let mut s11: Vec<(u32, u32)> = self.pending_s11.iter().map(|(&k, &v)| (k, v)).collect();
        s11.sort_unstable();
        s11.hash(h);
        let mut s6a: Vec<(u32, u32)> = self.pending_s6a.iter().map(|(&k, &v)| (k, v)).collect();
        s6a.sort_unstable();
        s6a.hash(h);
        let mut ho: Vec<(u32, (u32, u32))> =
            self.pending_ho.iter().map(|(&k, &v)| (k, v)).collect();
        ho.sort_unstable();
        ho.hash(h);
        let mut flags: Vec<(u32, (bool, bool))> = self
            .in_flight
            .iter()
            .filter_map(|(&k, f)| f.done.map(|d| (k, d)))
            .collect();
        flags.sort_unstable();
        flags.hash(h);
        self.guti_hint.hash(h);
        let mut refused = self.refused.clone();
        refused.sort_unstable();
        refused.hash(h);
    }

    /// Audit the id indices against the copies, panicking on the first
    /// incoherence: no M-TMSI is held both decoded and at rest;
    /// `by_mme_ue_id` names decoded records only, each under the id it
    /// carries; and every copy with a session resolves by its S11 TEID,
    /// its M-TMSI.
    ///
    /// A worker runs it as often as once per event, so it makes no
    /// lookup per copy at rest (most of an engine).
    #[cfg(feature = "verify")]
    pub fn check_invariants(&self) {
        let resolves = |m_tmsi: u32, teid: u32| {
            // `m_tmsi_by_s11_teid` looks a TEID up as an M-TMSI and asks
            // that copy's TEID back: a copy resolves by its TEID exactly
            // when the TEID is its own key.
            assert!(
                teid == 0 || teid == m_tmsi,
                "M-TMSI {m_tmsi:#x} does not resolve by its S11 TEID {teid:#x}"
            );
        };
        for (&m_tmsi, ctx) in &self.contexts {
            assert!(
                !self.at_rest.contains(&m_tmsi.to_be_bytes()),
                "M-TMSI {m_tmsi:#x} held both decoded and at rest"
            );
            assert_eq!(ctx.guti.m_tmsi, m_tmsi, "a record held under another M-TMSI");
            resolves(m_tmsi, ctx.bearer.s11_mme_teid);
        }
        for rest in &self.at_rest {
            let Some((_, m_tmsi, teid)) = rest.ids() else {
                panic!("M-TMSI {:#x}: a copy at rest that is no blob", rest.m_tmsi());
            };
            resolves(m_tmsi, teid);
        }
        for (&id, m_tmsi) in &self.by_mme_ue_id {
            let carried = self.contexts.get(m_tmsi).map(|ctx| ctx.mme_ue_id);
            assert_eq!(
                carried,
                Some(id),
                "MME-UE-S1AP-ID {id:#x} names M-TMSI {m_tmsi:#x}, which is not decoded under it"
            );
        }
    }

    /// S11 and S6a requests sent and not yet answered. A worker answers
    /// both inline, so this is zero between the events it handles.
    pub fn open_transactions(&self) -> usize {
        self.pending_s11.len() + self.pending_s6a.len()
    }

    /// M-TMSI of the device this engine indexes under a composed
    /// MME-UE-S1AP-ID: a decoded copy's, as a copy at rest has no
    /// connection. Used by the MLB to find a replica to promote when
    /// the serving MMP embedded in an Active-mode id has crashed.
    pub fn m_tmsi_by_mme_ue_id(&self, id: u32) -> Option<u32> {
        self.by_mme_ue_id.get(&id).copied()
    }

    /// Same, by S11 TEID (Downlink Data Notification failover): the
    /// TEID is the M-TMSI of a copy with a session, at rest or decoded,
    /// so every copy resolves by it through the map it lives in.
    pub fn m_tmsi_by_s11_teid(&self, teid: u32) -> Option<u32> {
        let held = match self.contexts.get(&teid) {
            Some(ctx) => ctx.bearer.s11_mme_teid,
            None => self.at_rest.get(&teid.to_be_bytes())?.ids()?.2,
        };
        (teid != 0 && held == teid).then_some(teid)
    }

    /// Export a device's state for replication/transfer.
    pub fn export_state(&self, guti: &Guti) -> Option<Bytes> {
        match self.contexts.get(&guti.m_tmsi) {
            Some(ctx) => Some(ctx.to_bytes()),
            None => self
                .at_rest
                .get(&guti.m_tmsi.to_be_bytes())
                .map(|rest| Bytes::copy_from_slice(rest.blob())),
        }
    }

    /// Import a replicated/transferred device state, at rest: the bytes
    /// are copied as they came, and only their index keys are read
    /// ([`UeContext::peek`]). Overwrites any existing copy of the same
    /// M-TMSI (replica refresh), and with it the connection id only a
    /// replaced decoded copy was indexed under: the serving engine
    /// mints a fresh MME-UE-S1AP-ID per signalling connection, so a
    /// holder that kept the old entries would grow by one per Service
    /// Request its devices ever make.
    pub fn import_state(&mut self, blob: impl AsRef<[u8]>) -> Result<Guti, MmeError> {
        self.drop_snapshot();
        let blob = blob.as_ref();
        let keys = UeContext::peek(blob)?;
        let m_tmsi = keys.guti.m_tmsi;
        if let Some(old) = self.contexts.remove(&m_tmsi) {
            unindex(&mut self.by_mme_ue_id, old.mme_ue_id, m_tmsi);
        }
        // A copy arrives with no procedure in flight.
        if let Some(f) = self.in_flight.get_mut(&m_tmsi) {
            f.end_aka();
            self.settle(m_tmsi);
        }
        self.at_rest.replace(AtRest::import(blob));
        Ok(keys.guti)
    }

    /// Remove a device entirely (legacy reassignment / rebalancing);
    /// false if no copy was held.
    pub fn remove_context(&mut self, guti: &Guti) -> bool {
        self.drop_snapshot();
        let m_tmsi = guti.m_tmsi;
        if self.take(m_tmsi).is_some() {
            return true;
        }
        if self.at_rest.take(&m_tmsi.to_be_bytes()).is_none() {
            return false;
        }
        self.pending_ho.remove(&m_tmsi);
        self.in_flight.remove(&m_tmsi);
        true
    }

    /// Remove `m_tmsi`'s decoded record, with what is indexed and kept
    /// beside it.
    fn take(&mut self, m_tmsi: u32) -> Option<Box<UeContext>> {
        let ctx = self.contexts.remove(&m_tmsi)?;
        unindex(&mut self.by_mme_ue_id, ctx.mme_ue_id, m_tmsi);
        self.pending_ho.remove(&m_tmsi);
        self.in_flight.remove(&m_tmsi);
        Some(ctx)
    }

    /// The device wakes here: its copy at rest, if it has one, becomes
    /// a decoded record, which the procedure then indexes under the S1AP
    /// id of its connection. Every handler that may meet an Idle copy —
    /// Service Request, TAU, paging, detach from Idle, re-attach —
    /// calls this first; it is the only decode on the event path, made
    /// once, on the holder that serves. An S11 or S6a answer never
    /// does: it answers a procedure in flight, whose record is decoded.
    fn wake(&mut self, m_tmsi: u32) -> Result<(), MmeError> {
        let Some(rest) = self.at_rest.take(&m_tmsi.to_be_bytes()) else {
            return Ok(());
        };
        match rest.decode() {
            Ok(ctx) => {
                self.contexts.insert(m_tmsi, Box::new(ctx));
                Ok(())
            }
            Err(e) => {
                self.at_rest.replace(rest);
                Err(e)
            }
        }
    }

    /// The Idle edge: `m_tmsi`'s record goes to rest as the blob it is
    /// about to be exported as, and leaves the MME-UE-S1AP-ID index.
    fn rest(&mut self, m_tmsi: u32) {
        let Some(ctx) = self.contexts.remove(&m_tmsi) else {
            return;
        };
        unindex(&mut self.by_mme_ue_id, ctx.mme_ue_id, m_tmsi);
        self.at_rest.replace(AtRest::of(&ctx));
    }

    /// Forget `m_tmsi`'s in-flight entry once nothing is left in it.
    fn settle(&mut self, m_tmsi: u32) {
        if self.in_flight.get(&m_tmsi) == Some(&InFlight::default()) {
            self.in_flight.remove(&m_tmsi);
        }
    }

    /// Refuse a procedure on a connection that has no MME-UE-S1AP-ID
    /// (the device is unknown here, or is no device at all): `reject`,
    /// in the clear, counted in [`MmeStats::rejects`].
    fn reject(&mut self, enb_id: u32, enb_ue_id: u32, reject: &EmmMessage) -> Vec<Outgoing> {
        self.stats.rejects += 1;
        vec![Outgoing::S1ap {
            enb_id,
            pdu: S1apPdu::DownlinkNasTransport {
                mme_ue_id: 0,
                enb_ue_id,
                nas_pdu: reject.encode(),
            },
        }]
    }

    /// Refuse an IMSI attach that has no record to run in: its hinted
    /// M-TMSI names another device's copy (`hinted`), or its minted
    /// window is full. Attach Reject #17 and then the release of its
    /// connection, as the other failed attaches end
    /// ([`Self::end_attach`]), under an MME-UE-S1AP-ID that names this VM
    /// and no record. A hinted refusal is remembered until its Release
    /// Complete, which ends the procedure under the hinted M-TMSI
    /// ([`Outgoing::UeDetached`]) and leaves the other copy as it is.
    fn refuse_attach(&mut self, enb_id: u32, enb_ue_id: u32, hinted: Option<u32>) -> Vec<Outgoing> {
        self.stats.rejects += 1;
        let mme_ue_id = self.alloc_ue_id();
        if let Some(m_tmsi) = hinted {
            self.refused.push((mme_ue_id, m_tmsi));
        }
        let reject = EmmMessage::AttachReject {
            cause: scale_nas::emm_cause::NETWORK_FAILURE,
        };
        Self::reject_and_release(
            (enb_id, mme_ue_id, enb_ue_id),
            &reject,
            s1_cause::NAS_NORMAL_RELEASE,
        )
    }

    /// `reject` to the device on connection `(enb_id, mme_ue_id,
    /// enb_ue_id)`, then the connection's release with `release_cause`:
    /// how a failed or refused attach ends.
    fn reject_and_release(
        (enb_id, mme_ue_id, enb_ue_id): (u32, u32, u32),
        reject: &EmmMessage,
        release_cause: u8,
    ) -> Vec<Outgoing> {
        vec![
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: reject.encode(),
                },
            },
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause: release_cause,
                },
            },
        ]
    }

    /// The S1 Setup Response this MME answers eNodeBs with.
    pub fn s1_setup_response(&self) -> S1apPdu {
        S1apPdu::S1SetupResponse {
            mme_name: self.config.mme_name.clone(),
            served_gummeis: vec![Gummei {
                plmn: self.config.plmn,
                mme_group_id: self.config.mme_group_id,
                mme_code: self.config.mme_code,
            }],
            relative_mme_capacity: self.config.relative_capacity,
        }
    }

    /// Pre-assign the M-TMSI the next IMSI attach runs under, so that
    /// the device hashes where it was routed. `ScaleDc`'s router
    /// allocates that M-TMSI itself (`MlbRouter::assign_guti`). On the
    /// machines (the shuttle, `scale_out`, the protocol checker,
    /// `scale_wired`) the cell picks it, `MTMSI_BASE` plus the device's
    /// index (`EnbEmulator`), and the MLB routes the attach by it and
    /// passes it on as its `Deliver`'s `guti_hint`. That attach
    /// consumes the hint, and its record is the copy held here under
    /// the hinted M-TMSI, if it is a copy of the same IMSI; a copy of
    /// another IMSI there refuses the attach. A hint is the only way an
    /// IMSI attach meets a copy it did not mint: an engine given none
    /// mints the M-TMSI from the IMSI and a key of its own.
    pub fn set_guti_hint(&mut self, m_tmsi: u32) {
        self.drop_snapshot();
        self.guti_hint = Some(m_tmsi);
    }

    /// Allocate a fresh, unused M-TMSI from this MME's space (used when
    /// the legacy pool re-homes a device and must re-key it), with its
    /// VM id in the top byte: the M-TMSI is the S11 TEID, and a pool
    /// that routes a DDN by the TEID's top byte finds the engine that
    /// minted it.
    pub fn allocate_m_tmsi(&mut self) -> u32 {
        self.drop_snapshot();
        loop {
            let m = compose_id(self.config.vm_id, self.next_m_tmsi);
            self.next_m_tmsi += 1;
            if !self.holds(&self.guti_of(m)) {
                return m;
            }
        }
    }

    /// The M-TMSI an engine that is handed none gives an IMSI attach,
    /// found with no table keyed by IMSI, in a window of [`MINT_WINDOW`]
    /// successive slots that the IMSI and the engine's key fix: the slot
    /// that holds a copy of this IMSI, if one does; failing that, the
    /// first free one from a start that moves on with every slot taken,
    /// so that a device that detaches and attaches again is given a new
    /// GUTI; `None` when every slot holds another device's copy. So a
    /// registered device that attaches again finds the record it left,
    /// as long as it was minted here. Slots carry the VM id in the top
    /// byte, like every minted M-TMSI, and M-TMSI 0 is never one.
    fn minted_m_tmsi(&mut self, imsi: Imsi) -> Option<u32> {
        let packed = imsi.packed();
        let first = mix64(packed ^ self.mint_key) as u32;
        let start = self.next_m_tmsi % MINT_WINDOW;
        let mut free = None;
        for k in 0..MINT_WINDOW {
            let slot = (start + k) % MINT_WINDOW;
            let m_tmsi = compose_id(self.config.vm_id, first.wrapping_add(slot));
            match self.imsi_under(m_tmsi) {
                Some(held) if held == packed => return Some(m_tmsi),
                Some(_) => {}
                None if m_tmsi != 0 => free = free.or(Some(m_tmsi)),
                None => {}
            }
        }
        if free.is_some() {
            self.next_m_tmsi += 1;
        }
        free
    }

    /// The packed IMSI of the copy held under `m_tmsi`, in either form,
    /// read without a decode. A copy whose bytes do not read reports 0,
    /// which packs no IMSI: it is held, and it is nobody's.
    fn imsi_under(&self, m_tmsi: u32) -> Option<u64> {
        match self.contexts.get(&m_tmsi) {
            Some(ctx) => Some(ctx.imsi.packed()),
            None => self
                .at_rest
                .get(&m_tmsi.to_be_bytes())
                .map(|rest| rest.ids().map_or(0, |(packed, ..)| packed)),
        }
    }

    fn guti_of(&self, m_tmsi: u32) -> Guti {
        Guti {
            plmn: self.config.plmn,
            mme_group_id: self.config.mme_group_id,
            mme_code: self.config.mme_code,
            m_tmsi,
        }
    }

    fn alloc_ue_id(&mut self) -> u32 {
        let local = self.next_local_id;
        self.next_local_id += 1;
        compose_id(self.config.vm_id, local)
    }

    /// The next S11 sequence number: the VM id in bits 16–23, a counter
    /// that wraps within them below — responses route by the VM byte.
    /// It opens `m_tmsi`'s transaction in `pending_s11`, so a caller
    /// takes it only once its request is sure to leave; the response
    /// retires it (`handle_s11`).
    fn next_s11_seq(&mut self, m_tmsi: u32) -> u32 {
        let seq = self.s11_seq;
        self.s11_seq = (seq & 0x00ff_0000) | (seq.wrapping_add(1) & 0xffff);
        self.pending_s11.insert(seq, m_tmsi);
        seq
    }

    /// Main entry point: apply one inbound event, produce the actions.
    pub fn handle(&mut self, event: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.drop_snapshot();
        self.stats.messages_processed += 1;
        match event {
            Incoming::S1ap { enb_id, pdu } => self.handle_s1ap(enb_id, pdu),
            Incoming::S11(msg) => self.handle_s11(msg),
            Incoming::S6a(msg) => self.handle_s6a(&msg),
        }
    }

    // ----- S1AP ---------------------------------------------------------

    fn handle_s1ap(&mut self, enb_id: u32, pdu: S1apPdu) -> Result<Vec<Outgoing>, MmeError> {
        match pdu {
            S1apPdu::S1SetupRequest { .. } => Ok(vec![Outgoing::S1ap {
                enb_id,
                pdu: self.s1_setup_response(),
            }]),
            S1apPdu::InitialUeMessage {
                enb_ue_id,
                nas_pdu,
                tai,
                s_tmsi,
                ..
            } => self.initial_ue_message(enb_id, enb_ue_id, nas_pdu, tai, s_tmsi),
            S1apPdu::UplinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
                ..
            } => {
                let Ok(m_tmsi) = self.connected(enb_id, mme_ue_id, enb_ue_id) else {
                    return Ok(self.unknown_pair(enb_id, mme_ue_id, enb_ue_id));
                };
                self.uplink_nas(m_tmsi, nas_pdu)
            }
            S1apPdu::InitialContextSetupResponse {
                mme_ue_id,
                enb_ue_id,
                erabs,
            } => {
                let Ok(m_tmsi) = self.connected(enb_id, mme_ue_id, enb_ue_id) else {
                    return Ok(self.unknown_pair(enb_id, mme_ue_id, enb_ue_id));
                };
                self.context_setup_response(m_tmsi, &erabs)
            }
            S1apPdu::InitialContextSetupFailure {
                mme_ue_id,
                enb_ue_id,
                ..
            } => {
                let Ok(m_tmsi) = self.connected(enb_id, mme_ue_id, enb_ue_id) else {
                    return Ok(self.unknown_pair(enb_id, mme_ue_id, enb_ue_id));
                };
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                ctx.procedure = Procedure::None;
                ctx.ecm = EcmState::Idle;
                self.stats.rejects += 1;
                Ok(vec![])
            }
            S1apPdu::UeContextReleaseRequest {
                mme_ue_id,
                enb_ue_id,
                ..
            } => {
                let Ok(m_tmsi) = self.connected(enb_id, mme_ue_id, enb_ue_id) else {
                    return Ok(self.unknown_pair(enb_id, mme_ue_id, enb_ue_id));
                };
                self.release_request(m_tmsi)
            }
            S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id,
            } => self.release_complete(enb_id, mme_ue_id, enb_ue_id),
            S1apPdu::HandoverRequired {
                mme_ue_id,
                enb_ue_id,
                target_enb_id,
                ..
            } => self.handover_required(mme_ue_id, enb_ue_id, enb_id, target_enb_id),
            S1apPdu::HandoverRequestAck {
                mme_ue_id,
                enb_ue_id,
                erabs,
            } => self.handover_ack(mme_ue_id, enb_ue_id, enb_id, erabs),
            S1apPdu::HandoverNotify {
                mme_ue_id,
                enb_ue_id,
                tai,
            } => self.handover_notify(mme_ue_id, enb_ue_id, enb_id, tai),
            S1apPdu::ErrorIndication { .. } => Ok(vec![]),
            other => Err(MmeError::BadState(format!(
                "unexpected S1AP PDU at MME: {other:?}"
            ))),
        }
    }

    fn tmsi_of(&self, mme_ue_id: u32) -> Result<u32, MmeError> {
        self.by_mme_ue_id
            .get(&mme_ue_id)
            .copied()
            .ok_or(MmeError::UnknownUe("mme_ue_id"))
    }

    /// The device on the connection a Connected-mode uplink names: its
    /// MME-UE-S1AP-ID, checked against the (eNB, eNB-UE-S1AP-ID) pair
    /// recorded when the connection opened. A pair that does not match
    /// is an unknown connection (TS 36.413 §10.6). A restarted engine
    /// counts its ids from 1 again, so an uplink from before the
    /// restart may carry the id of a newer connection here; the eNodeB
    /// never reuses an eNB-UE-S1AP-ID, so the pair tells them apart.
    fn connected(&self, enb_id: u32, mme_ue_id: u32, enb_ue_id: u32) -> Result<u32, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = self.ctx(m_tmsi)?;
        if (ctx.enb_id, ctx.enb_ue_id) == (enb_id, enb_ue_id) {
            Ok(m_tmsi)
        } else {
            Err(MmeError::UnknownUe("S1AP id pair"))
        }
    }

    /// A Connected-mode uplink whose (eNB, eNB-UE-S1AP-ID,
    /// MME-UE-S1AP-ID) names no connection here is answered as TS 36.413
    /// §10.6 says: an Error Indication with cause "unknown or
    /// inconsistent pair of UE S1AP ID", counted apart from errors.
    fn unknown_pair(&mut self, enb_id: u32, mme_ue_id: u32, enb_ue_id: u32) -> Vec<Outgoing> {
        self.stats.error_indications += 1;
        vec![Outgoing::S1ap {
            enb_id,
            pdu: S1apPdu::ErrorIndication {
                mme_ue_id: Some(mme_ue_id),
                enb_ue_id: Some(enb_ue_id),
                cause: s1_cause::UNKNOWN_PAIR_UE_S1AP_ID,
            },
        }]
    }

    /// `m_tmsi`'s procedure opens an S1 connection here, as every
    /// procedure an Initial UE Message starts does: record the eNB's
    /// end of it, and mint the MME-UE-S1AP-ID that names this VM (§5:
    /// "each MMP embeds its unique ID in both the S1AP-id & S11-tunnel-id"),
    /// which the MLB routes the connection's later uplinks by. The
    /// caller has made sure the record exists.
    fn open_connection(
        &mut self,
        m_tmsi: u32,
        enb_id: u32,
        enb_ue_id: u32,
    ) -> Result<&mut UeContext, MmeError> {
        let mme_ue_id = self.alloc_ue_id();
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        unindex(&mut self.by_mme_ue_id, ctx.mme_ue_id, m_tmsi);
        self.by_mme_ue_id.insert(mme_ue_id, m_tmsi);
        ctx.mme_ue_id = mme_ue_id;
        ctx.enb_id = enb_id;
        ctx.enb_ue_id = enb_ue_id;
        Ok(ctx)
    }

    /// Decoded record by M-TMSI. `by_mme_ue_id` is kept in sync with the
    /// copies, so a resolved id normally has one — but a purge racing a
    /// resolved id must surface as a protocol error, not a panic.
    fn ctx(&self, m_tmsi: u32) -> Result<&UeContext, MmeError> {
        self.contexts
            .get(&m_tmsi)
            .map(|c| &**c)
            .ok_or(MmeError::UnknownUe("m_tmsi without context"))
    }

    /// As [`Self::ctx_mut`], borrowing only the context map — for call
    /// sites that update the sibling id maps while the context borrow
    /// is live.
    fn ctx_mut_in(
        contexts: &mut HashMap<u32, Box<UeContext>>,
        m_tmsi: u32,
    ) -> Result<&mut UeContext, MmeError> {
        contexts
            .get_mut(&m_tmsi)
            .map(|c| &mut **c)
            .ok_or(MmeError::UnknownUe("m_tmsi without context"))
    }

    fn initial_ue_message(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        nas_pdu: Bytes,
        _tai: Tai,
        s_tmsi: Option<(u8, u32)>,
    ) -> Result<Vec<Outgoing>, MmeError> {
        // A protected initial message (TAU / Detach from Idle) carries
        // the S-TMSI so the context — and its security keys — can be
        // found before decoding.
        let msg = if is_protected(&nas_pdu) {
            let (_, m_tmsi) =
                s_tmsi.ok_or(MmeError::UnknownUe("protected initial NAS without S-TMSI"))?;
            self.wake(m_tmsi)?;
            let ctx = self
                .contexts
                .get_mut(&m_tmsi)
                .ok_or(MmeError::UnknownUe("protected initial NAS"))?;
            let sec = ctx
                .security
                .as_mut()
                .ok_or(MmeError::Nas(NasError::NoSecurityContext))?;
            sec.unprotect(nas_pdu, Direction::Uplink)?
        } else {
            EmmMessage::decode(nas_pdu)?
        };
        match msg {
            EmmMessage::AttachRequest { id, tai, .. } => self.start_attach(enb_id, enb_ue_id, id, tai),
            EmmMessage::ServiceRequest { ksi, seq, short_mac } => {
                let (_, m_tmsi) = s_tmsi.ok_or(MmeError::UnknownUe("service request without S-TMSI"))?;
                self.service_request(enb_id, enb_ue_id, m_tmsi, ksi, seq, short_mac)
            }
            EmmMessage::TauRequest { guti, tai } => {
                self.tau(Some((enb_id, enb_ue_id)), guti.m_tmsi, tai)
            }
            EmmMessage::DetachRequest { switch_off, id } => {
                // No table is keyed by IMSI, and neither the MLB nor the
                // legacy pool routes a detach by one.
                let MobileId::Guti(guti) = id else {
                    return Err(MmeError::UnknownUe("detach by IMSI"));
                };
                self.detach(Some((enb_id, enb_ue_id)), guti.m_tmsi, switch_off)
            }
            // Downlink-only and mid-procedure messages can never open a
            // signalling connection; each is named so a new EMM message
            // fails to compile here instead of being silently rejected.
            other @ (EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachComplete
            | EmmMessage::AttachReject { .. }
            | EmmMessage::ServiceReject { .. }
            | EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationResponse { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::AuthenticationFailure { .. }
            | EmmMessage::SecurityModeCommand { .. }
            | EmmMessage::SecurityModeComplete
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. }
            | EmmMessage::DetachAccept
            | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(format!(
                "unexpected initial NAS: {other:?}"
            ))),
        }
    }

    fn start_attach(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        id: MobileId,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.attaches_started += 1;
        match id {
            MobileId::Imsi(digits) => {
                let Some(imsi) = Imsi::from_ascii(digits.as_bytes()) else {
                    // Not 1–15 digits: no HSS can know it.
                    return Ok(self.reject(
                        enb_id,
                        enb_ue_id,
                        &EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::ILLEGAL_UE,
                        },
                    ));
                };
                // The record is the copy held under the M-TMSI the MLB
                // handed over, or under the one minted from the IMSI; a
                // copy of another device there is left as it is.
                let other = |held: u64| held != imsi.packed();
                let m_tmsi = match self.guti_hint.take() {
                    Some(hinted) if self.imsi_under(hinted).is_some_and(other) => {
                        return Ok(self.refuse_attach(enb_id, enb_ue_id, Some(hinted)));
                    }
                    Some(hinted) => hinted,
                    None => match self.minted_m_tmsi(imsi) {
                        Some(minted) => minted,
                        None => return Ok(self.refuse_attach(enb_id, enb_ue_id, None)),
                    },
                };
                self.wake(m_tmsi)?;
                let guti = self.guti_of(m_tmsi);
                self.contexts
                    .entry(m_tmsi)
                    .or_insert_with(|| Box::new(UeContext::new(imsi, guti, tai)));
                let ctx = self.open_connection(m_tmsi, enb_id, enb_ue_id)?;
                ctx.emm = EmmState::Registering;
                ctx.ecm = EcmState::Connecting;
                ctx.procedure = Procedure::AwaitAuthVector;
                ctx.tai = tai;
                ctx.record_access();

                let hbh = self.s6a_hbh;
                self.s6a_hbh += 1;
                self.pending_s6a.insert(hbh, m_tmsi);
                let air = S6a::AuthInfoRequest {
                    imsi: digits,
                    visited_plmn: self.config.plmn.0,
                    vectors: 1,
                    resync: None,
                }
                .into_msg(hbh, hbh);
                Ok(vec![Outgoing::S6a(air)])
            }
            MobileId::Guti(guti) => {
                // Re-attach with GUTI: if we know the device and have a
                // security context, skip AKA and go straight to session
                // setup; otherwise reject so the UE retries with IMSI.
                self.wake(guti.m_tmsi)?;
                let known_with_security = self
                    .contexts
                    .get(&guti.m_tmsi)
                    .is_some_and(|c| c.security.is_some());
                if !known_with_security {
                    return Ok(self.reject(
                        enb_id,
                        enb_ue_id,
                        &EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
                        },
                    ));
                }
                let ctx = self.open_connection(guti.m_tmsi, enb_id, enb_ue_id)?;
                ctx.emm = EmmState::Registering;
                ctx.ecm = EcmState::Connecting;
                ctx.procedure = Procedure::AwaitCreateSession;
                ctx.tai = tai;
                ctx.record_access();
                let imsi = ctx.imsi;
                Ok(vec![self.create_session(guti.m_tmsi, imsi)?])
            }
        }
    }

    fn create_session(&mut self, m_tmsi: u32, imsi: Imsi) -> Result<Outgoing, MmeError> {
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        // The TEID is the M-TMSI, so it resolves through `contexts` and
        // `at_rest` like the device's other ids.
        let teid = m_tmsi;
        ctx.bearer.s11_mme_teid = teid;
        ctx.bearer.ebi = 5;
        let msg = gtpc::Message {
            teid: 0,
            sequence: self.next_s11_seq(m_tmsi),
            body: gtpc::Body::CreateSessionRequest {
                imsi: imsi.to_string(),
                apn: self.config.apn.clone(),
                sender_fteid: Fteid {
                    iface: iface_type::S11_MME,
                    teid,
                    ipv4: self.config.mme_addr,
                },
                ambr: Ambr {
                    uplink_kbps: self.config.ambr_ul_kbps,
                    downlink_kbps: self.config.ambr_dl_kbps,
                },
                bearer: BearerContext::new(5),
            },
        };
        Ok(Outgoing::S11(msg))
    }

    fn service_request(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        m_tmsi: u32,
        ksi: u8,
        seq: u8,
        short_mac: [u8; 2],
    ) -> Result<Vec<Outgoing>, MmeError> {
        self.wake(m_tmsi)?;
        let Some(ctx) = self.contexts.get_mut(&m_tmsi) else {
            // No context anywhere for this S-TMSI: the device's state
            // died with an engine before it was ever replicated (§4.6).
            // Answer with Service Reject #9 ("UE identity cannot be
            // derived by the network") so the device drops its GUTI and
            // falls back to a fresh IMSI attach, instead of erroring a
            // procedure the eNodeB would wait on forever.
            return Ok(self.reject(
                enb_id,
                enb_ue_id,
                &EmmMessage::ServiceReject {
                    cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
                },
            ));
        };
        let Some(sec) = &ctx.security else {
            return Err(MmeError::Nas(NasError::NoSecurityContext));
        };
        if sec.service_request_mac(ksi, seq) != short_mac {
            self.stats.auth_failures += 1;
            return Err(MmeError::Nas(NasError::BadMac));
        }
        if ctx.emm != EmmState::Registered {
            return Err(MmeError::BadState("service request while unregistered".into()));
        }
        self.stats.service_requests += 1;
        ctx.ecm = EcmState::Connecting;
        ctx.procedure = Procedure::AwaitContextSetup;
        ctx.record_access();
        let kasme = match ctx.security.as_ref() {
            Some(sec) => sec.keys.kasme,
            // Unreachable after the integrity check above accepted the
            // message, but a missing context is a protocol error, not a
            // crash.
            None => return Err(MmeError::BadState("service request without security context".into())),
        };
        let (ue_ambr_ul_kbps, ue_ambr_dl_kbps) =
            (self.config.ambr_ul_kbps, self.config.ambr_dl_kbps);
        let ctx = self.open_connection(m_tmsi, enb_id, enb_ue_id)?;
        let pdu = S1apPdu::InitialContextSetupRequest {
            mme_ue_id: ctx.mme_ue_id,
            enb_ue_id,
            erabs: vec![ErabSetup {
                erab_id: ctx.bearer.ebi,
                qci: 9,
                gtp_teid: ctx.bearer.s1u_sgw_teid,
                transport_addr: ctx.bearer.s1u_sgw_addr,
            }],
            ue_ambr_ul_kbps,
            ue_ambr_dl_kbps,
            security_key: kasme,
        };
        Ok(vec![Outgoing::S1ap { enb_id, pdu }])
    }

    /// A Tracking Area Update for `m_tmsi`. `opens` is the (eNB,
    /// eNB-UE-S1AP-ID) of the connection its Initial UE Message opens,
    /// or `None` for a TAU over the device's existing connection, which
    /// keeps that connection's id.
    fn tau(
        &mut self,
        opens: Option<(u32, u32)>,
        m_tmsi: u32,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let t3412 = self.config.t3412_s;
        self.wake(m_tmsi)?;
        if !self.contexts.contains_key(&m_tmsi) {
            // Same recovery contract as the Service Request path: an
            // unknown S-TMSI gets TAU Reject #9, sending the device
            // back to a fresh IMSI attach.
            let (enb_id, enb_ue_id) = opens.ok_or(MmeError::UnknownUe("tau"))?;
            return Ok(self.reject(
                enb_id,
                enb_ue_id,
                &EmmMessage::TauReject {
                    cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
                },
            ));
        }
        self.stats.taus += 1;
        let ctx = match opens {
            Some((enb_id, enb_ue_id)) => self.open_connection(m_tmsi, enb_id, enb_ue_id)?,
            None => Self::ctx_mut_in(&mut self.contexts, m_tmsi)?,
        };
        ctx.tai = tai;
        if !ctx.tai_list.contains(&tai) {
            ctx.tai_list.push(tai);
        }
        ctx.record_access();
        // The TAU rides a temporary signalling connection; its release
        // returns the device to Idle (and re-syncs replicas in SCALE,
        // picking up the new TA list).
        ctx.procedure = Procedure::AwaitReleaseComplete;
        let (enb_id, mme_ue_id, enb_ue_id) = (ctx.enb_id, ctx.mme_ue_id, ctx.enb_ue_id);
        let accept = EmmMessage::TauAccept {
            t3412_s: t3412,
            guti: None,
        };
        // Accept, then tear the signalling connection back down.
        Ok(vec![
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: accept.encode(),
                },
            },
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            },
        ])
    }

    /// A Detach Request from `m_tmsi`; `opens` as for [`Self::tau`].
    fn detach(
        &mut self,
        opens: Option<(u32, u32)>,
        m_tmsi: u32,
        switch_off: bool,
    ) -> Result<Vec<Outgoing>, MmeError> {
        self.wake(m_tmsi)?;
        if !self.contexts.contains_key(&m_tmsi) {
            return Err(MmeError::UnknownUe("detach"));
        }
        let ctx = match opens {
            Some((enb_id, enb_ue_id)) => self.open_connection(m_tmsi, enb_id, enb_ue_id)?,
            None => Self::ctx_mut_in(&mut self.contexts, m_tmsi)?,
        };
        ctx.procedure = Procedure::AwaitDeleteSession;
        let ebi = ctx.bearer.ebi;
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        // Remember whether to answer with Detach Accept.
        self.in_flight.entry(m_tmsi).or_default().done = Some((switch_off, false));
        let seq = self.next_s11_seq(m_tmsi);
        Ok(vec![Outgoing::S11(gtpc::Message {
            teid: sgw_teid,
            sequence: seq,
            body: gtpc::Body::DeleteSessionRequest { ebi },
        })])
    }

    fn uplink_nas(&mut self, m_tmsi: u32, nas_pdu: Bytes) -> Result<Vec<Outgoing>, MmeError> {
        let msg = {
            let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
            if is_protected(&nas_pdu) {
                let sec = ctx
                    .security
                    .as_mut()
                    .ok_or(MmeError::Nas(NasError::NoSecurityContext))?;
                sec.unprotect(nas_pdu, Direction::Uplink)?
            } else {
                EmmMessage::decode(nas_pdu)?
            }
        };
        match msg {
            EmmMessage::AuthenticationResponse { res } => self.auth_response(m_tmsi, res),
            EmmMessage::SecurityModeComplete => self.smc_complete(m_tmsi),
            EmmMessage::AttachComplete => self.attach_complete(m_tmsi),
            EmmMessage::TauRequest { tai, .. } => self.tau(None, m_tmsi, tai),
            EmmMessage::DetachRequest { switch_off, .. } => self.detach(None, m_tmsi, switch_off),
            EmmMessage::AuthenticationFailure { cause, auts } => {
                self.auth_failure(m_tmsi, cause, auts)
            }
            // Initial-only and downlink-only messages are protocol
            // errors on an established connection; named exhaustively
            // so a new EMM message fails to compile here.
            other @ (EmmMessage::AttachRequest { .. }
            | EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachReject { .. }
            | EmmMessage::ServiceRequest { .. }
            | EmmMessage::ServiceReject { .. }
            | EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::SecurityModeCommand { .. }
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. }
            | EmmMessage::DetachAccept
            | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(format!(
                "unexpected uplink NAS: {other:?}"
            ))),
        }
    }

    /// The USIM refused the challenge. A synch failure (#21) with its
    /// AUTS, on the first vector of this attach, asks the HSS for a
    /// fresh vector with RAND ‖ AUTS as Re-Synchronization-Info (TS
    /// 33.102 §6.3.5); anything else — a MAC failure (#20), a second
    /// synch failure — ends the attach with Authentication Reject
    /// ([`Self::reject_authentication`]).
    fn auth_failure(
        &mut self,
        m_tmsi: u32,
        cause: u8,
        auts: Option<[u8; 14]>,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let aka = self.in_flight.entry(m_tmsi).or_default();
        let (rand, resynced) = (aka.rand, aka.resynced);
        aka.end_aka();
        self.settle(m_tmsi);
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        let resync = cause == scale_nas::emm_cause::SYNCH_FAILURE
            && ctx.procedure == Procedure::AwaitAuthResponse
            && !resynced;
        let (Some(auts), Some(rand), true) = (auts, rand, resync) else {
            return self.reject_authentication(m_tmsi);
        };
        ctx.procedure = Procedure::AwaitAuthVector;
        let imsi = ctx.imsi.to_string();
        self.stats.resyncs += 1;
        self.in_flight.entry(m_tmsi).or_default().resynced = true;
        let mut info = [0u8; 30];
        info[..16].copy_from_slice(&rand);
        info[16..].copy_from_slice(&auts);
        let hbh = self.s6a_hbh;
        self.s6a_hbh += 1;
        self.pending_s6a.insert(hbh, m_tmsi);
        let air = S6a::AuthInfoRequest {
            imsi,
            visited_plmn: self.config.plmn.0,
            vectors: 1,
            resync: Some(info),
        };
        Ok(vec![Outgoing::S6a(air.into_msg(hbh, hbh))])
    }

    fn auth_response(&mut self, m_tmsi: u32, res: [u8; 8]) -> Result<Vec<Outgoing>, MmeError> {
        if self.ctx(m_tmsi)?.procedure != Procedure::AwaitAuthResponse {
            return Err(MmeError::BadState("auth response out of sequence".into()));
        }
        // A vector answers one response: XRES is spent by it, K_ASME
        // only by one that matches.
        let aka = self.in_flight.entry(m_tmsi).or_default();
        let xres = aka.xres.take();
        let kasme = if xres == Some(res) {
            aka.kasme.take()
        } else {
            None
        };
        aka.end_aka();
        self.settle(m_tmsi);
        let xres = xres.ok_or(MmeError::BadState("no XRES".into()))?;
        if res != xres {
            return self.reject_authentication(m_tmsi);
        }
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        // Derive the NAS security context from the vector's K_ASME.
        let kasme = kasme.ok_or(MmeError::BadState("no K_ASME".into()))?;
        let keys = NasSecurityKeys::from_kasme(kasme);
        let mut sec = NasSecurityContext::new(keys, 1);
        let smc = EmmMessage::SecurityModeCommand {
            ksi: 1,
            eea: ALG_ID_AES,
            eia: ALG_ID_AES,
        };
        let wire = sec.protect(&smc, Direction::Downlink, SecurityHeader::IntegrityNewContext);
        ctx.security = Some(sec);
        ctx.procedure = Procedure::AwaitSmcComplete;
        let enb_id = ctx.enb_id;
        let pdu = S1apPdu::DownlinkNasTransport {
            mme_ue_id: ctx.mme_ue_id,
            enb_ue_id: ctx.enb_ue_id,
            nas_pdu: wire,
        };
        Ok(vec![Outgoing::S1ap { enb_id, pdu }])
    }

    /// Authentication failed (TS 24.301 §5.4.2.5–5.4.2.7): Authentication
    /// Reject, then a UE Context Release Command ([`Self::end_attach`]).
    fn reject_authentication(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.auth_failures += 1;
        self.end_attach(
            m_tmsi,
            &EmmMessage::AuthenticationReject,
            s1_cause::NAS_AUTHENTICATION_FAILURE,
        )
    }

    /// The HSS or the S-GW refused the attach (TS 24.301 §5.5.1.2.5):
    /// Attach Reject with `cause`, then a UE Context Release Command
    /// ([`Self::end_attach`]).
    fn reject_attach(&mut self, m_tmsi: u32, cause: u8) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.rejects += 1;
        self.end_attach(
            m_tmsi,
            &EmmMessage::AttachReject { cause },
            s1_cause::NAS_NORMAL_RELEASE,
        )
    }

    /// End a failed attach on its connection: `reject` to the device,
    /// then the connection's release with `release_cause`. The device is
    /// deregistered and nothing of the attach stays in flight; its
    /// Release Complete removes the record, and with it the connection's
    /// S1AP id ([`Self::release_complete`]).
    fn end_attach(
        &mut self,
        m_tmsi: u32,
        reject: &EmmMessage,
        release_cause: u8,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.emm = EmmState::Deregistered;
        ctx.procedure = Procedure::AwaitReleaseComplete;
        let connection = (ctx.enb_id, ctx.mme_ue_id, ctx.enb_ue_id);
        if let Some(f) = self.in_flight.get_mut(&m_tmsi) {
            f.end_aka();
            self.settle(m_tmsi);
        }
        Ok(Self::reject_and_release(connection, reject, release_cause))
    }

    fn smc_complete(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        let imsi = {
            let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
            if ctx.procedure != Procedure::AwaitSmcComplete {
                return Err(MmeError::BadState("SMC complete out of sequence".into()));
            }
            ctx.procedure = Procedure::AwaitUpdateLocation;
            ctx.imsi
        };
        let hbh = self.s6a_hbh;
        self.s6a_hbh += 1;
        self.pending_s6a.insert(hbh, m_tmsi);
        let ulr = S6a::UpdateLocationRequest {
            imsi: imsi.to_string(),
            visited_plmn: self.config.plmn.0,
        }
        .into_msg(hbh, hbh);
        Ok(vec![Outgoing::S6a(ulr)])
    }

    fn attach_complete(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        if self.attach_done(m_tmsi, |d| d.0 = true) {
            self.finish_attach(m_tmsi)
        } else {
            Ok(vec![])
        }
    }

    /// Note one of the two events that complete an attach (`.0` Attach
    /// Complete, `.1` Modify Bearer Response); true once both are in,
    /// which ends the attach's in-flight entry.
    fn attach_done(&mut self, m_tmsi: u32, note: impl FnOnce(&mut (bool, bool))) -> bool {
        let entry = self.in_flight.entry(m_tmsi).or_default();
        let done = entry.done.get_or_insert((false, false));
        note(done);
        let both = done.0 && done.1;
        if both {
            entry.done = None;
            self.settle(m_tmsi);
        }
        both
    }

    fn finish_attach(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.attaches_completed += 1;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.emm = EmmState::Registered;
        ctx.ecm = EcmState::Connected;
        ctx.procedure = Procedure::None;
        Ok(vec![
            Outgoing::UeAttached { guti: ctx.guti },
            Outgoing::UeActive { guti: ctx.guti },
        ])
    }

    fn context_setup_response(
        &mut self,
        m_tmsi: u32,
        erabs: &[ErabSetup],
    ) -> Result<Vec<Outgoing>, MmeError> {
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitContextSetup {
            return Err(MmeError::BadState("ICS response out of sequence".into()));
        }
        // Install the eNodeB's S1-U endpoint at the S-GW.
        let enb_fteid = erabs.first().map(|e| Fteid {
            iface: iface_type::S1U_ENODEB,
            teid: e.gtp_teid,
            ipv4: e.transport_addr,
        });
        ctx.procedure = Procedure::AwaitModifyBearer;
        let mut bearer = BearerContext::new(ctx.bearer.ebi);
        bearer.s1u_enodeb_fteid = enb_fteid;
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        Ok(vec![Outgoing::S11(gtpc::Message {
            teid: sgw_teid,
            sequence: self.next_s11_seq(m_tmsi),
            body: gtpc::Body::ModifyBearerRequest { bearer },
        })])
    }

    fn release_request(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.procedure = Procedure::AwaitReleaseComplete;
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        let (enb_id, mme_ue_id, enb_ue_id) = (ctx.enb_id, ctx.mme_ue_id, ctx.enb_ue_id);
        Ok(vec![
            Outgoing::S11(gtpc::Message {
                teid: sgw_teid,
                sequence: self.next_s11_seq(m_tmsi),
                body: gtpc::Body::ReleaseAccessBearersRequest,
            }),
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            },
        ])
    }

    fn release_complete(
        &mut self,
        enb_id: u32,
        mme_ue_id: u32,
        enb_ue_id: u32,
    ) -> Result<Vec<Outgoing>, MmeError> {
        if let Some(k) = self.refused.iter().position(|&(id, _)| id == mme_ue_id) {
            // The release that ends a refused attach: the procedure
            // opened under the hinted M-TMSI is over, and the copy held
            // under it is another device's.
            let (_, m_tmsi) = self.refused.swap_remove(k);
            let guti = self.guti_of(m_tmsi);
            return Ok(vec![Outgoing::UeDetached { guti }]);
        }
        let Ok(m_tmsi) = self.connected(enb_id, mme_ue_id, enb_ue_id) else {
            // Release for a context we already removed (e.g. detach),
            // or of a connection the device no longer has (the source
            // leg of a handover).
            return Ok(vec![]);
        };
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitReleaseComplete {
            // A stray complete: the device's procedure is not waiting
            // for one.
            return Ok(vec![]);
        }
        if ctx.emm == EmmState::Deregistered {
            // The release that ends a failed attach: a device that is
            // not registered keeps no record here or on any holder.
            let guti = ctx.guti;
            self.take(m_tmsi);
            return Ok(vec![Outgoing::UeDetached { guti }]);
        }
        ctx.ecm = EcmState::Idle;
        ctx.procedure = Procedure::None;
        ctx.enb_ue_id = 0;
        let guti = ctx.guti;
        self.rest(m_tmsi);
        Ok(vec![Outgoing::UeIdle { guti }])
    }

    fn handover_required(
        &mut self,
        mme_ue_id: u32,
        enb_ue_id: u32,
        source_enb: u32,
        target_enb: u32,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.ecm != EcmState::Connected {
            return Err(MmeError::BadState("handover while not connected".into()));
        }
        ctx.procedure = Procedure::AwaitHandoverAck;
        ctx.record_access();
        self.pending_ho.insert(m_tmsi, (source_enb, enb_ue_id));
        let kasme = ctx.security.as_ref().map(|s| s.keys.kasme).unwrap_or([0; 32]);
        let pdu = S1apPdu::HandoverRequest {
            mme_ue_id,
            erabs: vec![ErabSetup {
                erab_id: ctx.bearer.ebi,
                qci: 9,
                gtp_teid: ctx.bearer.s1u_sgw_teid,
                transport_addr: ctx.bearer.s1u_sgw_addr,
            }],
            security_key: kasme,
        };
        Ok(vec![Outgoing::S1ap {
            enb_id: target_enb,
            pdu,
        }])
    }

    fn handover_ack(
        &mut self,
        mme_ue_id: u32,
        new_enb_ue_id: u32,
        target_enb: u32,
        _erabs: Vec<ErabSetup>,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitHandoverAck {
            return Err(MmeError::BadState("handover ack out of sequence".into()));
        }
        ctx.procedure = Procedure::AwaitHandoverNotify;
        let (source_enb, old_enb_ue_id) = *self
            .pending_ho
            .get(&m_tmsi)
            .ok_or(MmeError::BadState("no pending handover".into()))?;
        // Pre-record the target's ids; Notify confirms them.
        ctx.enb_id = target_enb;
        ctx.enb_ue_id = new_enb_ue_id;
        Ok(vec![Outgoing::S1ap {
            enb_id: source_enb,
            pdu: S1apPdu::HandoverCommand {
                mme_ue_id,
                enb_ue_id: old_enb_ue_id,
            },
        }])
    }

    fn handover_notify(
        &mut self,
        mme_ue_id: u32,
        enb_ue_id: u32,
        target_enb: u32,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitHandoverNotify {
            return Err(MmeError::BadState("handover notify out of sequence".into()));
        }
        self.stats.handovers += 1;
        ctx.enb_id = target_enb;
        ctx.enb_ue_id = enb_ue_id;
        ctx.tai = tai;
        if !ctx.tai_list.contains(&tai) {
            ctx.tai_list.push(tai);
        }
        ctx.procedure = Procedure::AwaitModifyBearer;
        let (source_enb, old_enb_ue_id) = self.pending_ho.remove(&m_tmsi).unwrap_or((0, 0));
        let mut bearer = BearerContext::new(ctx.bearer.ebi);
        // The target eNodeB's S1-U endpoint travelled in the HO Request
        // Ack E-RAB list in real S1AP; our eNodeB model re-announces it
        // in Notify-adjacent Modify. Keep the S-GW-facing update simple:
        bearer.s1u_enodeb_fteid = Some(Fteid {
            iface: iface_type::S1U_ENODEB,
            teid: enb_ue_id,
            ipv4: [0, 0, 0, 0],
        });
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        Ok(vec![
            Outgoing::S11(gtpc::Message {
                teid: sgw_teid,
                sequence: self.next_s11_seq(m_tmsi),
                body: gtpc::Body::ModifyBearerRequest { bearer },
            }),
            Outgoing::S1ap {
                enb_id: source_enb,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id: old_enb_ue_id,
                    cause: s1_cause::SUCCESSFUL_HANDOVER,
                },
            },
        ])
    }

    // ----- S11 ----------------------------------------------------------

    fn handle_s11(&mut self, msg: gtpc::Message) -> Result<Vec<Outgoing>, MmeError> {
        // A response closes the transaction its request opened, whatever
        // its body says: retired here, before the dispatch, so that no
        // response kind can leave its entry behind.
        let opened_by = match msg.body {
            gtpc::Body::CreateSessionResponse { .. }
            | gtpc::Body::ModifyBearerResponse { .. }
            | gtpc::Body::DeleteSessionResponse { .. }
            | gtpc::Body::ReleaseAccessBearersResponse { .. } => {
                self.pending_s11.remove(&msg.sequence)
            }
            _ => None,
        };
        let opener = |what| opened_by.ok_or(MmeError::UnknownUe(what));
        match msg.body {
            gtpc::Body::CreateSessionResponse {
                cause,
                sender_fteid,
                paa,
                bearer,
            } => {
                let m_tmsi = opener("unmatched CS response")?;
                if !cause.is_accepted() {
                    return self.reject_attach(m_tmsi, scale_nas::emm_cause::NETWORK_FAILURE);
                }
                let t3412 = self.config.t3412_s;
                let apn = self.config.apn.clone();
                let ambr = (self.config.ambr_ul_kbps, self.config.ambr_dl_kbps);
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                if let Some(f) = sender_fteid {
                    ctx.bearer.s11_sgw_teid = f.teid;
                }
                if let Some(b) = &bearer {
                    if let Some(f) = b.s1u_sgw_fteid {
                        ctx.bearer.s1u_sgw_teid = f.teid;
                        ctx.bearer.s1u_sgw_addr = f.ipv4;
                    }
                }
                if let Some(p) = paa {
                    ctx.bearer.pdn_addr = p;
                }
                ctx.procedure = Procedure::AwaitContextSetup;
                self.in_flight.entry(m_tmsi).or_default().done = Some((false, false));

                // Attach Accept (protected now that a context exists)
                // plus the Initial Context Setup carrying the bearers.
                let accept = EmmMessage::AttachAccept {
                    guti: ctx.guti,
                    tai_list: ctx.tai_list.to_vec(),
                    t3412_s: t3412,
                    ebi: ctx.bearer.ebi,
                    apn,
                    pdn_addr: ctx.bearer.pdn_addr,
                };
                let nas = match ctx.security.as_mut() {
                    Some(sec) => sec.protect(
                        &accept,
                        Direction::Downlink,
                        SecurityHeader::IntegrityCiphered,
                    ),
                    None => accept.encode(),
                };
                let kasme = ctx.security.as_ref().map(|s| s.keys.kasme).unwrap_or([0; 32]);
                let enb_id = ctx.enb_id;
                Ok(vec![
                    Outgoing::S1ap {
                        enb_id,
                        pdu: S1apPdu::DownlinkNasTransport {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            nas_pdu: nas,
                        },
                    },
                    Outgoing::S1ap {
                        enb_id,
                        pdu: S1apPdu::InitialContextSetupRequest {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            erabs: vec![ErabSetup {
                                erab_id: ctx.bearer.ebi,
                                qci: 9,
                                gtp_teid: ctx.bearer.s1u_sgw_teid,
                                transport_addr: ctx.bearer.s1u_sgw_addr,
                            }],
                            ue_ambr_ul_kbps: ambr.0,
                            ue_ambr_dl_kbps: ambr.1,
                            security_key: kasme,
                        },
                    },
                ])
            }
            gtpc::Body::ModifyBearerResponse { cause, .. } => {
                let m_tmsi = opener("unmatched MB response")?;
                if !cause.is_accepted() {
                    self.stats.rejects += 1;
                    return Ok(vec![]);
                }
                let is_registering = {
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    if ctx.procedure != Procedure::AwaitModifyBearer {
                        return Err(MmeError::BadState("MB response out of sequence".into()));
                    }
                    ctx.emm == EmmState::Registering
                };
                if is_registering {
                    // Attach flow: needs Attach Complete too.
                    Self::ctx_mut_in(&mut self.contexts, m_tmsi)?.procedure =
                        Procedure::AwaitAttachComplete;
                    if self.attach_done(m_tmsi, |d| d.1 = true) {
                        return self.finish_attach(m_tmsi);
                    }
                    Ok(vec![])
                } else {
                    // Service request / handover flow completes here.
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    ctx.ecm = EcmState::Connected;
                    ctx.procedure = Procedure::None;
                    Ok(vec![Outgoing::UeActive { guti: ctx.guti }])
                }
            }
            gtpc::Body::DeleteSessionResponse { .. } => {
                let m_tmsi = opener("unmatched DS response")?;
                let switch_off = self
                    .in_flight
                    .get_mut(&m_tmsi)
                    .and_then(|f| f.done.take())
                    .is_some_and(|(switch_off, _)| switch_off);
                self.settle(m_tmsi);
                self.stats.detaches += 1;
                let ctx = self
                    .take(m_tmsi)
                    .ok_or(MmeError::UnknownUe("detach context vanished"))?;
                let mut out = Vec::new();
                if !switch_off {
                    out.push(Outgoing::S1ap {
                        enb_id: ctx.enb_id,
                        pdu: S1apPdu::DownlinkNasTransport {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            nas_pdu: EmmMessage::DetachAccept.encode(),
                        },
                    });
                }
                out.push(Outgoing::S1ap {
                    enb_id: ctx.enb_id,
                    pdu: S1apPdu::UeContextReleaseCommand {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        cause: s1_cause::NAS_DETACH,
                    },
                });
                out.push(Outgoing::UeDetached { guti: ctx.guti });
                Ok(out)
            }
            // Retired above; the bearers were released with the request.
            gtpc::Body::ReleaseAccessBearersResponse { .. } => Ok(vec![]),
            gtpc::Body::DownlinkDataNotification { .. } => {
                // TEID addresses the UE's MME-side S11 endpoint.
                let m_tmsi = self
                    .m_tmsi_by_s11_teid(msg.teid)
                    .ok_or(MmeError::UnknownUe("s11 teid"))?;
                self.wake(m_tmsi)?;
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                let mut out = vec![Outgoing::S11(gtpc::Message {
                    teid: ctx.bearer.s11_sgw_teid,
                    sequence: msg.sequence,
                    body: gtpc::Body::DownlinkDataNotificationAck {
                        cause: Cause::RequestAccepted,
                    },
                })];
                if ctx.ecm == EcmState::Idle && ctx.procedure == Procedure::None {
                    self.stats.pagings += 1;
                    ctx.procedure = Procedure::Paging;
                    out.push(Outgoing::S1ap {
                        // eNB id 0 = broadcast to all eNodeBs serving the
                        // TA list (the routing layer fans out).
                        enb_id: 0,
                        pdu: S1apPdu::Paging {
                            ue_paging_id: (self.config.mme_code, m_tmsi),
                            tai_list: ctx.tai_list.to_vec(),
                        },
                    });
                }
                Ok(out)
            }
            gtpc::Body::EchoRequest { recovery } => Ok(vec![Outgoing::S11(gtpc::Message {
                teid: 0,
                sequence: msg.sequence,
                body: gtpc::Body::EchoResponse { recovery },
            })]),
            other => Err(MmeError::BadState(format!(
                "unexpected S11 message at MME: {other:?}"
            ))),
        }
    }

    // ----- S6a ----------------------------------------------------------

    fn handle_s6a(&mut self, msg: &DiameterMsg) -> Result<Vec<Outgoing>, MmeError> {
        let s6a = S6a::from_msg(msg)?;
        let m_tmsi = self
            .pending_s6a
            .remove(&msg.hop_by_hop)
            .ok_or(MmeError::UnknownUe("unmatched S6a answer"))?;
        match s6a {
            S6a::AuthInfoAnswer { result, vectors } => {
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                if ctx.procedure != Procedure::AwaitAuthVector {
                    return Err(MmeError::BadState("AIA out of sequence".into()));
                }
                if result != result_code::SUCCESS || vectors.is_empty() {
                    return self.reject_attach(m_tmsi, scale_nas::emm_cause::IMSI_UNKNOWN_IN_HSS);
                }
                let EutranVector {
                    rand,
                    xres,
                    autn,
                    kasme,
                } = vectors[0];
                let aka = self.in_flight.entry(m_tmsi).or_default();
                (aka.xres, aka.kasme, aka.rand) = (Some(xres), Some(kasme), Some(rand));
                ctx.procedure = Procedure::AwaitAuthResponse;
                let auth_req = EmmMessage::AuthenticationRequest {
                    ksi: 1,
                    rand,
                    autn,
                };
                let enb_id = ctx.enb_id;
                let pdu = S1apPdu::DownlinkNasTransport {
                    mme_ue_id: ctx.mme_ue_id,
                    enb_ue_id: ctx.enb_ue_id,
                    nas_pdu: auth_req.encode(),
                };
                Ok(vec![Outgoing::S1ap { enb_id, pdu }])
            }
            S6a::UpdateLocationAnswer { result, .. } => {
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                if ctx.procedure != Procedure::AwaitUpdateLocation {
                    return Err(MmeError::BadState("ULA out of sequence".into()));
                }
                if result != result_code::SUCCESS {
                    return self.reject_attach(m_tmsi, scale_nas::emm_cause::EPS_NOT_ALLOWED);
                }
                ctx.procedure = Procedure::AwaitCreateSession;
                let imsi = ctx.imsi;
                Ok(vec![self.create_session(m_tmsi, imsi)?])
            }
            other => Err(MmeError::BadState(format!(
                "unexpected S6a at MME: {other:?}"
            ))),
        }
    }
}

/// Drop `id` from `index` if it still names `m_tmsi`: ids are minted by
/// the serving engines, so on a holder an id may since have been taken
/// by another device's copy.
fn unindex(index: &mut HashMap<u32, u32>, id: u32, m_tmsi: u32) {
    if let Some(other) = index.remove(&id) {
        if other != m_tmsi {
            index.insert(id, other);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_nas::{Plmn, Tai};

    fn replica(m_tmsi: u32, mme_ue_id: u32, ebi: u8) -> Bytes {
        let guti = Guti {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 1,
            m_tmsi,
        };
        let imsi = Imsi::from_ascii(format!("00101{m_tmsi:010}").as_bytes()).unwrap();
        let mut ctx = UeContext::new(imsi, guti, Tai::new(Plmn::test(), 7));
        ctx.emm = EmmState::Registered;
        ctx.mme_ue_id = mme_ue_id;
        ctx.bearer.ebi = ebi;
        ctx.bearer.s11_mme_teid = if ebi == 0 { 0 } else { m_tmsi };
        ctx.to_bytes()
    }

    #[test]
    fn a_refreshed_replica_is_indexed_under_its_newest_ids_only() {
        // One device, refreshed a thousand times, each copy minted under
        // a fresh MME-UE-S1AP-ID by its serving engine (one per Service
        // Request). A copy at rest is found by its S11 TEID, its
        // M-TMSI, never by the S1AP id of a connection it does not
        // have. The refreshes alternate between a copy with a session
        // and one without, and the newest (with) is what stays.
        let mut holder = MmeCore::new(MmeConfig::default());
        let m_tmsi = 0x0100_0007;
        let id_of = |k: u32| 0x0200_0000 + k;
        let ebi_of = |k: u32| if k.is_multiple_of(2) { 0 } else { 5 };
        let mut guti = None;
        for k in 0..1000 {
            guti = Some(holder.import_state(replica(m_tmsi, id_of(k), ebi_of(k))).unwrap());
        }
        let guti = guti.unwrap();
        assert_eq!(holder.context_count(), 1);
        assert_eq!(holder.at_rest.len(), 1);
        assert_eq!(holder.export_state(&guti).unwrap(), replica(m_tmsi, 0, 5));
        for k in 0..1000 {
            assert_eq!(holder.m_tmsi_by_mme_ue_id(id_of(k)), None, "id of refresh {k} indexed");
        }
        assert_eq!(holder.m_tmsi_by_s11_teid(m_tmsi), Some(m_tmsi));
        assert!(holder.by_mme_ue_id.is_empty());

        // A second device, and the first woken, refreshed while decoded
        // and put back to rest: one copy per M-TMSI throughout.
        let other = holder.import_state(replica(m_tmsi + 1, 0, 5)).unwrap();
        let copies = |h: &MmeCore| (h.contexts.len(), h.at_rest.len());
        assert_eq!(copies(&holder), (0, 2));
        holder.wake(m_tmsi).unwrap();
        assert_eq!(copies(&holder), (1, 1));
        holder.import_state(replica(m_tmsi, 0, 0)).unwrap();
        assert_eq!(copies(&holder), (0, 2));
        assert_eq!(holder.m_tmsi_by_s11_teid(m_tmsi), None, "the newest copy has no session");
        holder.wake(m_tmsi).unwrap();
        holder.rest(m_tmsi);
        assert_eq!(copies(&holder), (0, 2));
        assert_eq!(holder.export_state(&guti).unwrap(), replica(m_tmsi, 0, 0));

        assert!(holder.remove_context(&guti));
        assert!(!holder.remove_context(&guti), "removed once");
        assert_eq!(copies(&holder), (0, 1));
        assert!(holder.holds(&other) && !holder.holds(&guti));
        assert!(holder.by_mme_ue_id.is_empty());
        assert_eq!(holder.m_tmsi_by_s11_teid(m_tmsi), None);
        assert_eq!(holder.m_tmsi_by_s11_teid(m_tmsi + 1), Some(m_tmsi + 1));
    }

    #[test]
    fn the_s11_teid_resolves_only_for_a_copy_with_a_session() {
        let mut holder = MmeCore::new(MmeConfig::default());
        holder.import_state(replica(1, 0x55, 5)).unwrap();
        holder.import_state(replica(2, 0x55, 0)).unwrap();
        assert_eq!(holder.m_tmsi_by_s11_teid(1), Some(1));
        assert_eq!(holder.m_tmsi_by_s11_teid(2), None, "no bearer, no TEID");
        assert_eq!(holder.m_tmsi_by_s11_teid(0), None);
        assert_eq!(holder.m_tmsi_by_s11_teid(3), None);
        assert!(holder.by_mme_ue_id.is_empty());
    }

    fn fingerprint_of(engine: &MmeCore) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        engine.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn an_idle_device_hashes_the_same_at_rest_and_decoded() {
        // The serving copy after its Idle edge keeps its eNodeB and the
        // epoch's accesses in the tail; an imported copy has neither.
        let mut serving = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _) = crate::flow_tests::run_attach(&mut serving, "001010000000001", 1);
        crate::flow_tests::run_idle(&mut serving, mme_ue_id, 1);
        let mut holder = MmeCore::new(MmeConfig::default());
        holder.import_state(serving.export_state(&guti).unwrap()).unwrap();
        for engine in [&mut serving, &mut holder] {
            assert!(engine.contexts.is_empty() && engine.at_rest.len() == 1);
            let at_rest = fingerprint_of(engine);
            let ctx = engine.context(&guti).unwrap().clone();
            let blob = engine.export_state(&guti).unwrap();
            engine.wake(guti.m_tmsi).unwrap();
            assert_eq!(**engine.contexts.get(&guti.m_tmsi).unwrap(), ctx);
            assert_eq!(fingerprint_of(engine), at_rest);
            assert_eq!(engine.export_state(&guti).unwrap(), blob);
        }
        assert_ne!(serving.context(&guti).unwrap().enb_id, 0);
        assert_eq!(serving.context(&guti).unwrap().epoch_accesses, 1);
        assert_eq!(holder.context(&guti).unwrap().enb_id, 0);
    }

    #[test]
    fn closing_an_epoch_at_rest_matches_the_decoded_record() {
        let mut at_rest = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _) = crate::flow_tests::run_attach(&mut at_rest, "001010000000001", 1);
        crate::flow_tests::run_idle(&mut at_rest, mme_ue_id, 1);
        let mut decoded = MmeCore::new(MmeConfig::default());
        decoded.import_state(at_rest.export_state(&guti).unwrap()).unwrap();
        decoded.wake(guti.m_tmsi).unwrap();
        decoded.contexts.get_mut(&guti.m_tmsi).unwrap().epoch_accesses = 1;
        for alpha in [0.5, 0.25] {
            at_rest.close_epoch(alpha);
            decoded.close_epoch(alpha);
            let (a, d) = (at_rest.context(&guti).unwrap(), decoded.context(&guti).unwrap());
            assert_eq!((a.access_freq, a.epoch_accesses), (d.access_freq, d.epoch_accesses));
            assert_eq!(at_rest.export_state(&guti), decoded.export_state(&guti));
        }
        assert_eq!(at_rest.context(&guti).unwrap().access_freq, 0.5 * 0.75);
        assert_eq!(at_rest.access_freqs().collect::<Vec<_>>(), vec![(guti.m_tmsi, 0.375)]);
    }

    #[test]
    fn a_device_rests_at_its_idle_edge_and_wakes_where_it_is_served() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, ue_sec) = crate::flow_tests::run_attach(&mut engine, "001010000000001", 1);
        assert_eq!((engine.contexts.len(), engine.at_rest.len()), (1, 0));
        crate::flow_tests::run_idle(&mut engine, mme_ue_id, 1);
        assert_eq!((engine.contexts.len(), engine.at_rest.len()), (0, 1));
        assert_eq!(engine.m_tmsi_by_mme_ue_id(mme_ue_id), None);
        assert_eq!(engine.ecm(&guti), Some(EcmState::Idle));
        // A Service Request decodes it and re-mints its S1AP id.
        let sr = EmmMessage::ServiceRequest {
            ksi: 1,
            seq: 3,
            short_mac: ue_sec.service_request_mac(1, 3),
        };
        engine
            .handle(Incoming::S1ap {
                enb_id: 1,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 2,
                    nas_pdu: sr.encode(),
                    tai: Tai::new(Plmn::test(), 7),
                    establishment_cause: 3,
                    s_tmsi: Some((1, guti.m_tmsi)),
                },
            })
            .unwrap();
        assert_eq!((engine.contexts.len(), engine.at_rest.len()), (1, 0));
        let id = engine.contexts[&guti.m_tmsi].mme_ue_id;
        assert_ne!(id, mme_ue_id);
        assert_eq!(engine.m_tmsi_by_mme_ue_id(id), Some(guti.m_tmsi));
        assert_eq!(engine.by_mme_ue_id.len(), 1);
    }

    #[test]
    fn a_completed_attach_leaves_nothing_in_flight() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (guti, ..) = crate::flow_tests::run_attach(&mut engine, "001010000000001", 1);
        assert!(engine.in_flight.is_empty(), "{:?}", engine.in_flight);
        assert_eq!(
            engine.context(&guti).map(|c| c.imsi),
            Imsi::from_ascii(b"001010000000001")
        );
    }

    #[test]
    fn every_s11_response_retires_its_transaction() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, mut ue_sec) =
            crate::flow_tests::run_attach(&mut engine, "001010000000001", 1);
        // Create Session and Modify Bearer answered.
        assert_eq!(engine.open_transactions(), 0);
        let respond = |engine: &mut MmeCore, out: &[Outgoing]| {
            let Some(Outgoing::S11(req)) = out.first() else {
                panic!("expected an S11 request first: {out:?}");
            };
            let body = match req.body {
                gtpc::Body::ReleaseAccessBearersRequest => {
                    gtpc::Body::ReleaseAccessBearersResponse {
                        cause: Cause::RequestAccepted,
                    }
                }
                gtpc::Body::DeleteSessionRequest { .. } => gtpc::Body::DeleteSessionResponse {
                    cause: Cause::RequestAccepted,
                },
                ref other => panic!("unexpected request {other:?}"),
            };
            let response = gtpc::Message {
                teid: 0,
                sequence: req.sequence,
                body,
            };
            engine.handle(Incoming::S11(response.clone())).unwrap();
            response
        };
        for _ in 0..3 {
            let out = engine
                .handle(Incoming::S1ap {
                    enb_id: crate::flow_tests::ENB,
                    pdu: S1apPdu::UeContextReleaseRequest {
                        mme_ue_id,
                        enb_ue_id: 1,
                        cause: s1_cause::USER_INACTIVITY,
                    },
                })
                .unwrap();
            assert_eq!(engine.open_transactions(), 1);
            let response = respond(&mut engine, &out);
            assert_eq!(
                engine.open_transactions(),
                0,
                "release left its transaction open"
            );
            // A response nothing waits for is still ignored.
            assert!(engine.handle(Incoming::S11(response)).unwrap().is_empty());
        }
        let detach = EmmMessage::DetachRequest {
            switch_off: true,
            id: MobileId::Guti(guti),
        };
        let out = engine
            .handle(Incoming::S1ap {
                enb_id: crate::flow_tests::ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id: 1,
                    nas_pdu: ue_sec.protect(&detach, Direction::Uplink, SecurityHeader::Integrity),
                    tai: Tai::new(Plmn::test(), 7),
                },
            })
            .unwrap();
        let response = respond(&mut engine, &out);
        assert_eq!((engine.open_transactions(), engine.context_count()), (0, 0));
        // An unmatched Create Session, Modify Bearer or Delete Session
        // response is still an error.
        assert!(matches!(
            engine.handle(Incoming::S11(response)),
            Err(MmeError::UnknownUe("unmatched DS response"))
        ));
    }

    #[test]
    fn the_s11_teid_is_the_m_tmsi_across_re_attaches() {
        let mut engine = MmeCore::new(MmeConfig {
            vm_id: 4,
            ..MmeConfig::default()
        });
        let mut guti = None;
        for k in 0..10 {
            guti = Some(crate::flow_tests::run_attach(&mut engine, "001010000000001", k + 1).0);
        }
        let guti = guti.unwrap();
        // Minted here, so the M-TMSI (and with it the TEID) names VM 4.
        assert_eq!(vm_of_id(guti.m_tmsi), 4);
        assert_eq!(engine.context(&guti).unwrap().bearer.s11_mme_teid, guti.m_tmsi);
        assert_eq!(engine.m_tmsi_by_s11_teid(guti.m_tmsi), Some(guti.m_tmsi));
        assert_eq!(engine.context_count(), 1, "ten attaches of one device");
    }

    /// An IMSI attach on `engine` up to the Authentication Request:
    /// the M-TMSI and MME-UE-S1AP-ID it runs under.
    fn challenged(engine: &mut MmeCore, enb_ue_id: u32) -> (u32, u32) {
        let air = attach(engine, enb_ue_id);
        answer_air(engine, &air)
    }

    /// The IMSI the attaches of these tests are made by.
    const IMSI: &str = "001010000000031";

    /// An attach by IMSI on connection `enb_ue_id`: the AIR it sends.
    fn attach(engine: &mut MmeCore, enb_ue_id: u32) -> DiameterMsg {
        let out = attach_request(engine, enb_ue_id);
        let [Outgoing::S6a(air)] = &out[..] else {
            panic!("expected AIR, got {out:?}");
        };
        air.clone()
    }

    /// An Attach Request by [`IMSI`] on connection `enb_ue_id`: what
    /// the engine answers.
    fn attach_request(engine: &mut MmeCore, enb_ue_id: u32) -> Vec<Outgoing> {
        let attach = EmmMessage::AttachRequest {
            attach_type: 1,
            id: MobileId::Imsi(IMSI.into()),
            tai: Tai::new(Plmn::test(), 7),
        };
        engine
            .handle(Incoming::S1ap {
                enb_id: crate::flow_tests::ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id,
                    nas_pdu: attach.encode(),
                    tai: Tai::new(Plmn::test(), 7),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            })
            .unwrap()
    }

    /// A registered device's replica blob: `imsi`, held under `m_tmsi`.
    fn copy_of(imsi: &str, m_tmsi: u32) -> Bytes {
        let imsi = Imsi::from_ascii(imsi.as_bytes()).unwrap();
        let mut ctx = UeContext::new(imsi, guti_of(m_tmsi), Tai::new(Plmn::test(), 7));
        ctx.emm = EmmState::Registered;
        ctx.to_bytes()
    }

    /// `out` refuses an attach that has no record to run in: Attach
    /// Reject #17 and the release of the same connection, whose Release
    /// Complete ends the procedure under the hinted M-TMSI, if it had
    /// one (`hinted`), and leaves nothing of the attach here — no id
    /// indexed, nothing in flight, no refusal remembered.
    fn assert_refused(engine: &mut MmeCore, out: &[Outgoing], hinted: Option<u32>) {
        let [Outgoing::S1ap {
            enb_id,
            pdu: S1apPdu::DownlinkNasTransport { nas_pdu, mme_ue_id, enb_ue_id },
        }, Outgoing::S1ap {
            pdu: S1apPdu::UeContextReleaseCommand {
                mme_ue_id: release_id,
                enb_ue_id: release_enb_ue_id,
                cause: s1_cause::NAS_NORMAL_RELEASE,
            },
            ..
        }] = out
        else {
            panic!("expected Attach Reject + UE Context Release Command, got {out:?}");
        };
        assert_eq!(
            EmmMessage::decode(nas_pdu.clone()).unwrap(),
            EmmMessage::AttachReject {
                cause: scale_nas::emm_cause::NETWORK_FAILURE
            }
        );
        assert_eq!((release_id, release_enb_ue_id), (mme_ue_id, enb_ue_id));
        let vm_id = engine.config.vm_id;
        assert_eq!(vm_of_id(*mme_ue_id), vm_id, "routed back here");
        let done = engine
            .handle(Incoming::S1ap {
                enb_id: *enb_id,
                pdu: S1apPdu::UeContextReleaseComplete {
                    mme_ue_id: *mme_ue_id,
                    enb_ue_id: *enb_ue_id,
                },
            })
            .unwrap();
        match hinted {
            Some(m_tmsi) => {
                let ended = guti_of(m_tmsi);
                let ended = matches!(&done[..], [Outgoing::UeDetached { guti }] if *guti == ended);
                assert!(ended, "{done:?}");
            }
            None => assert!(done.is_empty(), "{done:?}"),
        }
        assert!(engine.by_mme_ue_id.is_empty() && engine.in_flight.is_empty());
        assert_eq!((engine.open_transactions(), engine.guti_hint), (0, None));
        assert!(engine.refused.is_empty(), "{:?}", engine.refused);
    }

    #[test]
    fn ten_hinted_attaches_of_one_device_leave_one_copy_and_consume_the_hint() {
        let mut engine = MmeCore::new(MmeConfig {
            vm_id: 3,
            ..MmeConfig::default()
        });
        let hint = 0x0300_1234;
        for k in 0..10 {
            engine.set_guti_hint(hint);
            let (guti, mme_ue_id, _) = crate::flow_tests::run_attach(&mut engine, IMSI, k + 1);
            assert_eq!(guti.m_tmsi, hint);
            assert_eq!(engine.guti_hint, None, "attach {k} left its hint set");
            assert_eq!(engine.context_count(), 1, "attach {k}");
            if k % 2 == 0 {
                // Half of them find the copy at rest.
                crate::flow_tests::run_idle(&mut engine, mme_ue_id, k + 1);
            }
        }
        assert_eq!(engine.stats.attaches_completed, 10);
    }

    #[test]
    fn a_hint_naming_another_devices_copy_is_refused() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let held = 0x0100_0042;
        let other = copy_of("001019999999990", held);
        engine.import_state(other.clone()).unwrap();
        engine.set_guti_hint(held);
        let out = attach_request(&mut engine, 4);
        assert_refused(&mut engine, &out, Some(held));
        assert_eq!(engine.stats.rejects, 1);
        // The other device's copy is as it was, still at rest.
        assert_eq!((engine.contexts.len(), engine.at_rest.len()), (0, 1));
        assert_eq!(engine.export_state(&guti_of(held)).unwrap(), other);
    }

    /// The window `engine` mints [`IMSI`]'s M-TMSI in, slot by slot.
    fn window_of(engine: &MmeCore) -> Vec<u32> {
        let packed = Imsi::from_ascii(IMSI.as_bytes()).unwrap().packed();
        let first = mix64(packed ^ engine.mint_key) as u32;
        (0..MINT_WINDOW)
            .map(|k| compose_id(engine.config.vm_id, first.wrapping_add(k)))
            .collect()
    }

    #[test]
    fn the_minted_window_adopts_takes_a_free_slot_and_refuses_when_full() {
        let packed = Imsi::from_ascii(IMSI.as_bytes()).unwrap().packed();
        let window = window_of(&MmeCore::new(MmeConfig::default()));
        assert!(!window.contains(&0));
        let other = |k: u32| copy_of(&format!("0010199999999{k:02}"), window[k as usize]);
        let attached_under = |engine: &MmeCore| {
            let decoded: Vec<u32> = engine.contexts.keys().copied().collect();
            assert_eq!(engine.contexts[&decoded[0]].imsi.packed(), packed);
            decoded
        };

        // The first free slot from the start, which is slot 1 on a new
        // engine: slot 1 is another device's.
        let mut engine = MmeCore::new(MmeConfig::default());
        engine.import_state(other(1)).unwrap();
        attach(&mut engine, 1);
        assert_eq!(attached_under(&engine), [window[2]]);

        // A copy of this IMSI anywhere in the window is adopted, past
        // free slots: slot 0 is probed last.
        let mut engine = MmeCore::new(MmeConfig::default());
        engine.import_state(other(1)).unwrap();
        engine.import_state(copy_of(IMSI, window[0])).unwrap();
        attach(&mut engine, 2);
        assert_eq!(attached_under(&engine), [window[0]]);
        assert_eq!(engine.context_count(), 2);

        // Every slot is another device's: refused, and nothing woken.
        let mut engine = MmeCore::new(MmeConfig::default());
        for k in 0..MINT_WINDOW {
            engine.import_state(other(k)).unwrap();
        }
        let out = attach_request(&mut engine, 3);
        assert_refused(&mut engine, &out, None);
        assert_eq!((engine.contexts.len(), engine.at_rest.len()), (0, 8));
    }

    #[test]
    fn a_device_that_attaches_again_after_its_record_is_gone_gets_a_new_m_tmsi() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let window = window_of(&engine);
        let mut given = Vec::new();
        for k in 0..3 {
            attach(&mut engine, k + 1);
            let m_tmsi = *engine.contexts.keys().next().unwrap();
            given.push(m_tmsi);
            assert!(engine.remove_context(&guti_of(m_tmsi)));
        }
        assert_eq!(given, [window[1], window[2], window[3]]);
    }

    #[test]
    fn a_minted_m_tmsi_is_keyed_by_the_engine() {
        // Two engines that differ only in their S11 address mint one
        // IMSI different M-TMSIs, and neither where the IMSI alone
        // would put it.
        let packed = Imsi::from_ascii(IMSI.as_bytes()).unwrap().packed();
        let unkeyed = compose_id(0, mix64(packed) as u32);
        let minted = |config: MmeConfig| {
            let mut engine = MmeCore::new(config);
            attach(&mut engine, 1);
            *engine.contexts.keys().next().unwrap()
        };
        let a = minted(MmeConfig::default());
        let b = minted(MmeConfig {
            mme_addr: [10, 0, 0, 9],
            ..MmeConfig::default()
        });
        assert!(a.abs_diff(b) >= MINT_WINDOW, "{a:#x} {b:#x}");
        for m_tmsi in [a, b] {
            assert!(m_tmsi.abs_diff(unkeyed) >= MINT_WINDOW, "{m_tmsi:#x} {unkeyed:#x}");
        }
    }

    /// Answer the challenge `challenged` sent, and the Security Mode
    /// Command that follows: the Update Location Request the attach
    /// sends next.
    fn secured(engine: &mut MmeCore, mme_ue_id: u32, enb_ue_id: u32) -> DiameterMsg {
        let response = EmmMessage::AuthenticationResponse { res: [7; 8] };
        let out = uplink(engine, mme_ue_id, enb_ue_id, &response);
        let [Outgoing::S1ap {
            pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
            ..
        }] = &out[..]
        else {
            panic!("expected a Security Mode Command, got {out:?}");
        };
        let mut ue_sec = NasSecurityContext::new(NasSecurityKeys::from_kasme([9; 32]), 1);
        ue_sec.unprotect(nas_pdu.clone(), Direction::Downlink).unwrap();
        let done = ue_sec.protect(
            &EmmMessage::SecurityModeComplete,
            Direction::Uplink,
            SecurityHeader::Integrity,
        );
        let out = engine
            .handle(Incoming::S1ap {
                enb_id: crate::flow_tests::ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: done,
                    tai: Tai::new(Plmn::test(), 7),
                },
            })
            .unwrap();
        let [Outgoing::S6a(ulr)] = &out[..] else {
            panic!("expected ULR, got {out:?}");
        };
        ulr.clone()
    }

    /// An Update Location Answer to `ulr` with `result`.
    fn answer_ulr(engine: &mut MmeCore, ulr: &DiameterMsg, result: u32) -> Vec<Outgoing> {
        let ula = S6a::UpdateLocationAnswer {
            result,
            ambr_ul_kbps: 50_000,
            ambr_dl_kbps: 150_000,
        }
        .into_msg(ulr.hop_by_hop, ulr.end_to_end);
        engine.handle(Incoming::S6a(ula)).unwrap()
    }

    /// Answer `air` with one vector: the Authentication Request's ids.
    fn answer_air(engine: &mut MmeCore, air: &DiameterMsg) -> (u32, u32) {
        let aia = S6a::AuthInfoAnswer {
            result: result_code::SUCCESS,
            vectors: vec![EutranVector {
                rand: [1; 16],
                xres: [7; 8],
                autn: [2; 16],
                kasme: [9; 32],
            }],
        }
        .into_msg(air.hop_by_hop, air.end_to_end);
        let out = engine.handle(Incoming::S6a(aia)).unwrap();
        let [Outgoing::S1ap {
            pdu: S1apPdu::DownlinkNasTransport { mme_ue_id, .. },
            ..
        }] = &out[..]
        else {
            panic!("expected an Authentication Request, got {out:?}");
        };
        (engine.tmsi_of(*mme_ue_id).unwrap(), *mme_ue_id)
    }

    fn uplink(engine: &mut MmeCore, mme_ue_id: u32, enb_ue_id: u32, msg: &EmmMessage) -> Vec<Outgoing> {
        engine
            .handle(Incoming::S1ap {
                enb_id: crate::flow_tests::ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: msg.encode(),
                    tai: Tai::new(Plmn::test(), 7),
                },
            })
            .unwrap()
    }

    /// `out` is Authentication Reject and then the release of the same
    /// connection (TS 24.301 §5.4.2.5–5.4.2.7), as
    /// [`assert_ended_and_released`] checks.
    fn assert_rejected_and_released(engine: &mut MmeCore, m_tmsi: u32, out: &[Outgoing]) {
        assert_ended_and_released(
            engine,
            m_tmsi,
            out,
            &EmmMessage::AuthenticationReject,
            s1_cause::NAS_AUTHENTICATION_FAILURE,
        );
        assert_eq!(engine.stats.auth_failures, 1);
    }

    /// `out` is `reject` and then the release of the same connection
    /// with `cause`; the Release Complete that answers it ends the
    /// device's registration here ([`Outgoing::UeDetached`], which a
    /// worker turns into a `DropCtx` per other holder) and leaves no
    /// copy, no S1AP id indexed, nothing in flight and no transaction
    /// open.
    fn assert_ended_and_released(
        engine: &mut MmeCore,
        m_tmsi: u32,
        out: &[Outgoing],
        reject: &EmmMessage,
        release_cause: u8,
    ) {
        let [Outgoing::S1ap {
            enb_id,
            pdu: S1apPdu::DownlinkNasTransport { nas_pdu, mme_ue_id, enb_ue_id },
        }, Outgoing::S1ap {
            enb_id: release_enb,
            pdu: S1apPdu::UeContextReleaseCommand {
                mme_ue_id: release_id,
                enb_ue_id: release_enb_ue_id,
                cause,
            },
        }] = out
        else {
            panic!("expected {reject:?} + UE Context Release Command, got {out:?}");
        };
        assert_eq!(&EmmMessage::decode(nas_pdu.clone()).unwrap(), reject);
        assert_eq!((release_enb, release_id, release_enb_ue_id), (enb_id, mme_ue_id, enb_ue_id));
        assert_eq!(*cause, release_cause);
        let done = engine
            .handle(Incoming::S1ap {
                enb_id: *enb_id,
                pdu: S1apPdu::UeContextReleaseComplete {
                    mme_ue_id: *mme_ue_id,
                    enb_ue_id: *enb_ue_id,
                },
            })
            .unwrap();
        let detached =
            matches!(&done[..], [Outgoing::UeDetached { guti }] if guti.m_tmsi == m_tmsi);
        assert!(detached, "{done:?}");
        assert!(!engine.holds(&guti_of(m_tmsi)), "a rejected device is kept");
        assert_eq!(engine.context_count(), 0);
        assert!(engine.by_mme_ue_id.is_empty(), "{:?}", engine.by_mme_ue_id);
        assert!(engine.in_flight.is_empty(), "{:?}", engine.in_flight);
        assert_eq!(engine.open_transactions(), 0);
    }

    /// The GUTI a default-configured engine allocates with `m_tmsi`.
    fn guti_of(m_tmsi: u32) -> Guti {
        let config = MmeConfig::default();
        Guti {
            plmn: config.plmn,
            mme_group_id: config.mme_group_id,
            mme_code: config.mme_code,
            m_tmsi,
        }
    }

    #[test]
    fn a_wrong_res_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (m_tmsi, mme_ue_id) = challenged(&mut engine, 4);
        let out = uplink(&mut engine, mme_ue_id, 4, &EmmMessage::AuthenticationResponse { res: [0; 8] });
        assert_rejected_and_released(&mut engine, m_tmsi, &out);
    }

    #[test]
    fn a_mac_failure_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (m_tmsi, mme_ue_id) = challenged(&mut engine, 5);
        let failure = EmmMessage::AuthenticationFailure {
            cause: scale_nas::emm_cause::MAC_FAILURE,
            auts: None,
        };
        let out = uplink(&mut engine, mme_ue_id, 5, &failure);
        assert_rejected_and_released(&mut engine, m_tmsi, &out);
    }

    #[test]
    fn a_second_synch_failure_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (m_tmsi, mme_ue_id) = challenged(&mut engine, 6);
        let failure = EmmMessage::AuthenticationFailure {
            cause: scale_nas::emm_cause::SYNCH_FAILURE,
            auts: Some([3; 14]),
        };
        // The first asks the HSS to resynchronise …
        let out = uplink(&mut engine, mme_ue_id, 6, &failure);
        let [Outgoing::S6a(air)] = &out[..] else {
            panic!("expected a resynchronising AIR, got {out:?}");
        };
        assert_eq!(answer_air(&mut engine, air), (m_tmsi, mme_ue_id));
        // … the second ends the attach.
        let out = uplink(&mut engine, mme_ue_id, 6, &failure);
        assert_rejected_and_released(&mut engine, m_tmsi, &out);
        assert_eq!(engine.stats.resyncs, 1);
    }

    #[test]
    fn a_failed_auth_info_answer_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let air = attach(&mut engine, 7);
        let aia = S6a::AuthInfoAnswer {
            result: result_code::USER_UNKNOWN,
            vectors: vec![],
        }
        .into_msg(air.hop_by_hop, air.end_to_end);
        let out = engine.handle(Incoming::S6a(aia)).unwrap();
        let Some(Outgoing::S1ap {
            pdu: S1apPdu::DownlinkNasTransport { mme_ue_id, .. },
            ..
        }) = out.first()
        else {
            panic!("expected an Attach Reject first, got {out:?}");
        };
        let m_tmsi = engine.tmsi_of(*mme_ue_id).unwrap();
        let reject = EmmMessage::AttachReject {
            cause: scale_nas::emm_cause::IMSI_UNKNOWN_IN_HSS,
        };
        assert_ended_and_released(&mut engine, m_tmsi, &out, &reject, s1_cause::NAS_NORMAL_RELEASE);
        assert_eq!(engine.stats.rejects, 1);
    }

    #[test]
    fn a_refused_update_location_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (m_tmsi, mme_ue_id) = challenged(&mut engine, 8);
        let ulr = secured(&mut engine, mme_ue_id, 8);
        let out = answer_ulr(&mut engine, &ulr, result_code::UNABLE_TO_COMPLY);
        let reject = EmmMessage::AttachReject {
            cause: scale_nas::emm_cause::EPS_NOT_ALLOWED,
        };
        assert_ended_and_released(&mut engine, m_tmsi, &out, &reject, s1_cause::NAS_NORMAL_RELEASE);
        assert_eq!(engine.stats.rejects, 1);
    }

    #[test]
    fn a_rejected_create_session_is_rejected_and_its_connection_released() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (m_tmsi, mme_ue_id) = challenged(&mut engine, 9);
        let ulr = secured(&mut engine, mme_ue_id, 9);
        let out = answer_ulr(&mut engine, &ulr, result_code::SUCCESS);
        let [Outgoing::S11(cs)] = &out[..] else {
            panic!("expected a Create Session Request, got {out:?}");
        };
        let refused = gtpc::Message {
            teid: m_tmsi,
            sequence: cs.sequence,
            body: gtpc::Body::CreateSessionResponse {
                cause: Cause::NoResourcesAvailable,
                sender_fteid: None,
                paa: None,
                bearer: None,
            },
        };
        let out = engine.handle(Incoming::S11(refused)).unwrap();
        let reject = EmmMessage::AttachReject {
            cause: scale_nas::emm_cause::NETWORK_FAILURE,
        };
        assert_ended_and_released(&mut engine, m_tmsi, &out, &reject, s1_cause::NAS_NORMAL_RELEASE);
        assert_eq!(engine.stats.rejects, 1);
    }

    #[test]
    fn an_attach_by_what_is_not_an_imsi_is_rejected_without_a_context() {
        let request = |digits: &str| {
            EmmMessage::AttachRequest {
                attach_type: 1,
                id: MobileId::Imsi(digits.into()),
                tai: Tai::new(Plmn::test(), 7),
            }
            .encode()
            .to_vec()
        };
        // BCD digits 0, 1, 2 and a nibble above 9, which decodes to ':'.
        let mut nibble = request("0123");
        let at = nibble.windows(2).position(|w| w == [0x10, 0x32]).unwrap();
        nibble[at + 1] = 0xA2;
        let mut engine = MmeCore::new(MmeConfig::default());
        for nas in [request(""), request("0010100000000012"), nibble] {
            let out = engine
                .handle(Incoming::S1ap {
                    enb_id: 1,
                    pdu: S1apPdu::InitialUeMessage {
                        enb_ue_id: 9,
                        nas_pdu: Bytes::from(nas.clone()),
                        tai: Tai::new(Plmn::test(), 7),
                        establishment_cause: 3,
                        s_tmsi: None,
                    },
                })
                .unwrap();
            let [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            }] = &out[..]
            else {
                panic!("{nas:02x?}: {out:?}");
            };
            assert_eq!(
                EmmMessage::decode(nas_pdu.clone()).unwrap(),
                EmmMessage::AttachReject {
                    cause: scale_nas::emm_cause::ILLEGAL_UE
                }
            );
        }
        assert_eq!((engine.context_count(), engine.stats.rejects), (0, 3));
    }

    /// An engine with a device at rest, one Connected, and a replica.
    #[cfg(feature = "verify")]
    fn audited() -> MmeCore {
        let mut engine = MmeCore::new(MmeConfig::default());
        let (_, mme_ue_id, _) = crate::flow_tests::run_attach(&mut engine, "001010000000001", 1);
        crate::flow_tests::run_idle(&mut engine, mme_ue_id, 1);
        crate::flow_tests::run_attach(&mut engine, "001010000000002", 2);
        engine.import_state(replica(0x0100_0007, 0x55, 5)).unwrap();
        engine.check_invariants();
        engine
    }

    #[cfg(feature = "verify")]
    #[test]
    #[should_panic(expected = "both decoded and at rest")]
    fn the_audit_catches_a_copy_in_both_forms() {
        let mut engine = audited();
        let ctx = engine.contexts.values().next().unwrap();
        let rest = AtRest::import(&ctx.to_bytes());
        engine.at_rest.replace(rest);
        engine.check_invariants();
    }

    #[cfg(feature = "verify")]
    #[test]
    #[should_panic(expected = "not decoded under it")]
    fn the_audit_catches_a_connection_id_naming_a_copy_at_rest() {
        let mut engine = audited();
        engine.by_mme_ue_id.insert(0x0100_0099, 0x0100_0007);
        engine.check_invariants();
    }

    #[cfg(feature = "verify")]
    #[test]
    #[should_panic(expected = "does not resolve by its S11 TEID")]
    fn the_audit_catches_a_teid_that_is_not_the_m_tmsi() {
        let mut engine = audited();
        engine.contexts.values_mut().next().unwrap().bearer.s11_mme_teid = 0x0100_0001;
        engine.check_invariants();
    }

    #[test]
    fn s11_sequences_keep_their_vm_byte_past_the_16_bit_counter() {
        // Responses route back by bits 16–23 of the sequence: the
        // counter below them must wrap, not carry into the VM byte.
        for vm_id in [7u8, 255] {
            let mut engine = MmeCore::new(MmeConfig {
                vm_id,
                ..MmeConfig::default()
            });
            for n in 0..70_000u32 {
                let seq = engine.next_s11_seq(n);
                assert_eq!(
                    seq >> 16,
                    u32::from(vm_id),
                    "vm {vm_id}, sequence {n}: {seq:#08x}"
                );
            }
        }
    }
}
