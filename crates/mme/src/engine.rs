//! The MME procedure engine: a sans-IO state machine that consumes
//! S1AP / S11 / S6a messages and emits the responses and follow-up
//! requests of each 3GPP procedure (§2 of the paper: attach, service
//! request, TA update, paging, handover, detach).
//!
//! The same engine backs every deployment in this reproduction: the
//! legacy-pool baseline MME, SCALE's MMP VMs (which set `vm_id` so their
//! identity is embedded in every MME-UE-S1AP-ID and S11 TEID they mint —
//! the routing trick of §5 "Load Balancing"), the discrete-event
//! simulator and the tokio prototype.

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
use std::collections::HashMap;
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
    /// Device detached; state removed.
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
/// checked, and which of the two events that complete an attach — Modify
/// Bearer Response and Attach Complete, in either order — have arrived
/// (a detach keeps its switch-off flag in the first).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct InFlight {
    xres: Option<[u8; 8]>,
    kasme: Option<[u8; 32]>,
    done: Option<(bool, bool)>,
}

/// The engine. Keyed internally by M-TMSI (unique per MME code).
///
/// A device's copy is held in one of two forms. Connected, or with a
/// procedure in flight, it is a decoded record in `contexts`. Idle, it
/// is at rest in `at_rest`: the replica blob it would be exported as,
/// which is all any holder of an Idle copy needs until the device next
/// wakes there (`MmeCore::wake`).
pub struct MmeCore {
    pub config: MmeConfig,
    /// Each record boxed, so the table holds 16-byte entries and a
    /// growing population moves pointers, not records. The other id
    /// maps name M-TMSIs and resolve through this one or `at_rest`.
    contexts: HashMap<u32, Box<UeContext>>,
    /// Idle copies: imported replicas, and the serving copy from its
    /// Idle edge on.
    at_rest: HashMap<u32, AtRest>,
    /// The at-rest copies decoded, for the read-only views
    /// ([`MmeCore::contexts`], [`MmeCore::context`]) only: built on the
    /// first call and dropped by every `&mut self` entry point.
    snapshot: OnceLock<HashMap<u32, UeContext>>,
    /// Every copy, in either form, by IMSI.
    by_imsi: HashMap<Imsi, u32>,
    /// Decoded records only: an Active-mode message names the
    /// connection's id, and only a Connected copy has a connection.
    by_mme_ue_id: HashMap<u32, u32>,
    /// S11 MME-TEID → M-TMSI: the TEID is minted once at session
    /// creation and survives re-mints of the S1AP id, so DDNs always
    /// resolve (§4.6: the S-GW keeps addressing the master MMP).
    by_s11_teid: HashMap<u32, u32>,
    next_m_tmsi: u32,
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
    pub stats: MmeStats,
}

impl MmeCore {
    pub fn new(config: MmeConfig) -> Self {
        // Per-VM id spaces so MMPs in one pool never collide: the S11
        // sequence is 24-bit on the wire (vm in the top 8 of those), the
        // Diameter hop-by-hop id is 32-bit (vm in the top 8).
        let s11_seq = ((config.vm_id as u32) << 16) | 1;
        let s6a_hbh = ((config.vm_id as u32) << 24) | 1;
        MmeCore {
            config,
            contexts: HashMap::new(),
            at_rest: HashMap::new(),
            snapshot: OnceLock::new(),
            by_imsi: HashMap::new(),
            by_mme_ue_id: HashMap::new(),
            by_s11_teid: HashMap::new(),
            next_m_tmsi: 1,
            next_local_id: 1,
            s11_seq,
            s6a_hbh,
            pending_s11: HashMap::new(),
            pending_s6a: HashMap::new(),
            pending_ho: HashMap::new(),
            in_flight: HashMap::new(),
            guti_hint: None,
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
        self.contexts.contains_key(&guti.m_tmsi) || self.at_rest.contains_key(&guti.m_tmsi)
    }

    /// The ECM state of the copy of `guti`'s context held here, if any.
    /// A copy at rest is Idle.
    pub fn ecm(&self, guti: &Guti) -> Option<EcmState> {
        match self.contexts.get(&guti.m_tmsi) {
            Some(ctx) => Some(ctx.ecm),
            None => self.at_rest.contains_key(&guti.m_tmsi).then_some(EcmState::Idle),
        }
    }

    /// M-TMSI and access frequency w_i of every copy held — what an
    /// epoch's replica allocation weighs — read without a decode.
    pub fn access_freqs(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let decoded = self.contexts.iter().map(|(&m, c)| (m, c.access_freq));
        let at_rest = self.at_rest.iter().filter_map(|(&m, rest)| {
            UeContext::peek(rest.blob()).ok().map(|k| (m, k.access_freq))
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
            None if self.at_rest.contains_key(&guti.m_tmsi) => self.snapshot().get(&guti.m_tmsi),
            None => None,
        }
    }

    fn snapshot(&self) -> &HashMap<u32, UeContext> {
        self.snapshot.get_or_init(|| {
            self.at_rest
                .iter()
                .filter_map(|(&m, rest)| rest.decode().ok().map(|ctx| (m, ctx)))
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
    /// ([`UeContext::close_epoch`]), at rest in place.
    pub fn close_epoch(&mut self, alpha: f64) {
        self.drop_snapshot();
        for ctx in self.contexts.values_mut() {
            ctx.close_epoch(alpha);
        }
        for rest in self.at_rest.values_mut() {
            rest.close_epoch(alpha);
        }
    }

    /// Hash the engine's behavior-relevant state into `h` — every
    /// context (including the transient procedure fields that
    /// `UeContext::to_bytes` deliberately omits), the pending-response
    /// tables and the id allocators. `stats` and the per-epoch access
    /// counters are excluded: they never steer future message handling,
    /// and folding monotone counters in would defeat the protocol model
    /// checker's visited-set dedup. A copy hashes the same at rest as
    /// decoded.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut keys: Vec<u32> = self.contexts.keys().chain(self.at_rest.keys()).copied().collect();
        keys.sort_unstable();
        for m_tmsi in keys {
            m_tmsi.hash(h);
            if let Some(ctx) = self.contexts.get(&m_tmsi) {
                ctx.to_bytes().as_ref().hash(h);
                // Transient fields absent from the replication
                // serialization still steer the live engine.
                (ctx.ecm as u8, ctx.procedure as u8).hash(h);
                (ctx.enb_ue_id, ctx.enb_id).hash(h);
            } else if let Some(rest) = self.at_rest.get(&m_tmsi) {
                rest.blob().hash(h);
                (EcmState::Idle as u8, Procedure::None as u8).hash(h);
                (0u32, rest.tail().0).hash(h);
            }
            let aka = self.in_flight.get(&m_tmsi).copied().unwrap_or_default();
            aka.xres.hash(h);
            aka.kasme.hash(h);
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

    /// Same, by S11 TEID (Downlink Data Notification failover: the
    /// TEID is minted once at session creation, so replica copies keep
    /// it indexed across Idle/Active cycles).
    pub fn m_tmsi_by_s11_teid(&self, teid: u32) -> Option<u32> {
        self.by_s11_teid.get(&teid).copied()
    }

    /// Export a device's state for replication/transfer.
    pub fn export_state(&self, guti: &Guti) -> Option<Bytes> {
        match self.contexts.get(&guti.m_tmsi) {
            Some(ctx) => Some(ctx.to_bytes()),
            None => self
                .at_rest
                .get(&guti.m_tmsi)
                .map(|rest| Bytes::copy_from_slice(rest.blob())),
        }
    }

    /// Import a replicated/transferred device state, at rest: the bytes
    /// are copied as they came, and only their index keys are read
    /// ([`UeContext::peek`]). Overwrites any existing copy of the same
    /// M-TMSI (replica refresh), and with it the ids only the replaced
    /// copy was indexed under: the serving engine mints a fresh
    /// MME-UE-S1AP-ID per signalling connection, so a holder that kept
    /// the old entries would grow by one per Service Request its
    /// devices ever make.
    pub fn import_state(&mut self, blob: impl AsRef<[u8]>) -> Result<Guti, MmeError> {
        self.drop_snapshot();
        let blob = blob.as_ref();
        let keys = UeContext::peek(blob)?;
        let (m_tmsi, s11_teid) = (keys.guti.m_tmsi, keys.s11_mme_teid);
        let old_teid = match self.contexts.remove(&m_tmsi) {
            Some(old) => {
                unindex(&mut self.by_mme_ue_id, old.mme_ue_id, m_tmsi);
                Some(old.bearer.s11_mme_teid)
            }
            None => self
                .at_rest
                .get(&m_tmsi)
                .and_then(|old| UeContext::peek(old.blob()).ok())
                .map(|old| old.s11_mme_teid),
        };
        if let Some(old) = old_teid.filter(|&old| old != s11_teid) {
            unindex(&mut self.by_s11_teid, old, m_tmsi);
        }
        self.by_imsi.insert(keys.imsi, m_tmsi);
        if s11_teid != 0 {
            self.by_s11_teid.insert(s11_teid, m_tmsi);
        }
        // A copy arrives with no procedure in flight.
        if let Some(f) = self.in_flight.get_mut(&m_tmsi) {
            (f.xres, f.kasme) = (None, None);
            self.settle(m_tmsi);
        }
        self.at_rest.insert(m_tmsi, AtRest::import(blob));
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
        let Some(rest) = self.at_rest.remove(&m_tmsi) else {
            return false;
        };
        if let Ok(keys) = UeContext::peek(rest.blob()) {
            self.by_imsi.remove(&keys.imsi);
            self.by_s11_teid.remove(&keys.s11_mme_teid);
        }
        self.pending_ho.remove(&m_tmsi);
        self.in_flight.remove(&m_tmsi);
        true
    }

    /// Remove `m_tmsi`'s decoded record, with what is indexed and kept
    /// beside it.
    fn take(&mut self, m_tmsi: u32) -> Option<Box<UeContext>> {
        let ctx = self.contexts.remove(&m_tmsi)?;
        self.by_imsi.remove(&ctx.imsi);
        unindex(&mut self.by_mme_ue_id, ctx.mme_ue_id, m_tmsi);
        self.by_s11_teid.remove(&ctx.bearer.s11_mme_teid);
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
        let Some(rest) = self.at_rest.remove(&m_tmsi) else {
            return Ok(());
        };
        match rest.decode() {
            Ok(ctx) => {
                self.contexts.insert(m_tmsi, Box::new(ctx));
                Ok(())
            }
            Err(e) => {
                self.at_rest.insert(m_tmsi, rest);
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
        self.at_rest.insert(m_tmsi, AtRest::of(&ctx));
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

    /// Pre-assign the M-TMSI the next fresh attach will receive (used by
    /// SCALE's MLB, which allocates GUTIs so devices hash where it
    /// routed them).
    pub fn set_guti_hint(&mut self, m_tmsi: u32) {
        self.drop_snapshot();
        self.guti_hint = Some(m_tmsi);
    }

    /// Allocate a fresh, unused M-TMSI from this MME's space (used when
    /// the legacy pool re-homes a device and must re-key it).
    pub fn allocate_m_tmsi(&mut self) -> u32 {
        self.drop_snapshot();
        loop {
            let m = self.next_m_tmsi;
            self.next_m_tmsi += 1;
            if !self.contexts.contains_key(&m) && !self.at_rest.contains_key(&m) {
                return m;
            }
        }
    }

    fn alloc_guti(&mut self) -> Guti {
        let m_tmsi = match self.guti_hint.take() {
            Some(m) => m,
            None => {
                let m = self.next_m_tmsi;
                self.next_m_tmsi += 1;
                m
            }
        };
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

    /// Decoded record by M-TMSI. The id maps (`by_mme_ue_id`,
    /// `by_s11_teid`, `by_imsi`) are kept in sync with the copies, so a
    /// resolved id normally has one — but a purge racing a resolved id
    /// must surface as a protocol error, not a panic.
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
                let m_tmsi = match &id {
                    MobileId::Guti(g) => g.m_tmsi,
                    MobileId::Imsi(digits) => *Imsi::from_ascii(digits.as_bytes())
                        .and_then(|imsi| self.by_imsi.get(&imsi))
                        .ok_or(MmeError::UnknownUe("detach by unknown imsi"))?,
                };
                self.detach(Some((enb_id, enb_ue_id)), m_tmsi, switch_off)
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
                // Fresh attach: allocate identity, fetch auth vectors.
                let guti = match self.by_imsi.get(&imsi) {
                    Some(&m_tmsi) => {
                        self.wake(m_tmsi)?;
                        self.ctx(m_tmsi)?.guti
                    }
                    None => {
                        let guti = self.alloc_guti();
                        // A hinted M-TMSI a copy here already holds:
                        // the attach takes over that record, as below.
                        self.wake(guti.m_tmsi)?;
                        guti
                    }
                };
                self.contexts
                    .entry(guti.m_tmsi)
                    .or_insert_with(|| Box::new(UeContext::new(imsi, guti, tai)));
                let ctx = self.open_connection(guti.m_tmsi, enb_id, enb_ue_id)?;
                ctx.emm = EmmState::Registering;
                ctx.ecm = EcmState::Connecting;
                ctx.procedure = Procedure::AwaitAuthVector;
                ctx.tai = tai;
                ctx.record_access();
                self.by_imsi.insert(imsi, guti.m_tmsi);

                let hbh = self.s6a_hbh;
                self.s6a_hbh += 1;
                self.pending_s6a.insert(hbh, guti.m_tmsi);
                let air = S6a::AuthInfoRequest {
                    imsi: digits,
                    visited_plmn: self.config.plmn.0,
                    vectors: 1,
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
        // A re-attach re-mints the TEID: the old one's entry goes, as
        // in `import_state`, if it still names this device.
        let (old, teid) = (ctx.bearer.s11_mme_teid, ctx.mme_ue_id);
        ctx.bearer.s11_mme_teid = teid;
        ctx.bearer.ebi = 5;
        if old != teid {
            unindex(&mut self.by_s11_teid, old, m_tmsi);
        }
        self.by_s11_teid.insert(teid, m_tmsi);
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
            EmmMessage::AuthenticationFailure { .. } => {
                self.stats.auth_failures += 1;
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                ctx.procedure = Procedure::None;
                ctx.emm = EmmState::Deregistered;
                Ok(vec![])
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
        self.settle(m_tmsi);
        let xres = xres.ok_or(MmeError::BadState("no XRES".into()))?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if res != xres {
            self.stats.auth_failures += 1;
            ctx.emm = EmmState::Deregistered;
            ctx.procedure = Procedure::None;
            let out = S1apPdu::DownlinkNasTransport {
                mme_ue_id: ctx.mme_ue_id,
                enb_ue_id: ctx.enb_ue_id,
                nas_pdu: EmmMessage::AuthenticationReject.encode(),
            };
            let enb_id = ctx.enb_id;
            return Ok(vec![Outgoing::S1ap { enb_id, pdu: out }]);
        }
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
                    self.stats.rejects += 1;
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    ctx.procedure = Procedure::None;
                    ctx.emm = EmmState::Deregistered;
                    let enb_id = ctx.enb_id;
                    let pdu = S1apPdu::DownlinkNasTransport {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        nas_pdu: EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::NETWORK_FAILURE,
                        }
                        .encode(),
                    };
                    return Ok(vec![Outgoing::S1ap { enb_id, pdu }]);
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
                let m_tmsi = *self
                    .by_s11_teid
                    .get(&msg.teid)
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
                    self.stats.rejects += 1;
                    ctx.emm = EmmState::Deregistered;
                    ctx.procedure = Procedure::None;
                    let enb_id = ctx.enb_id;
                    let pdu = S1apPdu::DownlinkNasTransport {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        nas_pdu: EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::IMSI_UNKNOWN_IN_HSS,
                        }
                        .encode(),
                    };
                    return Ok(vec![Outgoing::S1ap { enb_id, pdu }]);
                }
                let EutranVector {
                    rand,
                    xres,
                    autn,
                    kasme,
                } = vectors[0];
                let aka = self.in_flight.entry(m_tmsi).or_default();
                (aka.xres, aka.kasme) = (Some(xres), Some(kasme));
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
                let imsi = {
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    if ctx.procedure != Procedure::AwaitUpdateLocation {
                        return Err(MmeError::BadState("ULA out of sequence".into()));
                    }
                    if result != result_code::SUCCESS {
                        self.stats.rejects += 1;
                        ctx.emm = EmmState::Deregistered;
                        ctx.procedure = Procedure::None;
                        return Ok(vec![]);
                    }
                    ctx.procedure = Procedure::AwaitCreateSession;
                    ctx.imsi
                };
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

    fn replica(m_tmsi: u32, mme_ue_id: u32, s11_teid: u32) -> Bytes {
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
        ctx.bearer.s11_mme_teid = s11_teid;
        ctx.to_bytes()
    }

    #[test]
    fn a_refreshed_replica_is_indexed_under_its_newest_ids_only() {
        // One device, refreshed a thousand times, each copy minted under
        // a fresh MME-UE-S1AP-ID by its serving engine (one per Service
        // Request); every tenth refresh the S11 TEID moves as well. A
        // copy at rest is indexed by IMSI and S11 TEID, never by the
        // S1AP id of a connection it does not have.
        let mut holder = MmeCore::new(MmeConfig::default());
        let m_tmsi = 0x0100_0007;
        let (id_of, teid_of) = (|k: u32| 0x0200_0000 + k, |k: u32| 0x0300_0000 + k / 10);
        let mut guti = None;
        for k in 0..1000 {
            guti = Some(holder.import_state(replica(m_tmsi, id_of(k), teid_of(k))).unwrap());
        }
        assert_eq!(holder.context_count(), 1);
        for k in 0..1000 {
            assert_eq!(holder.m_tmsi_by_mme_ue_id(id_of(k)), None, "id of refresh {k} indexed");
        }
        for k in (0..990).step_by(10) {
            assert_eq!(holder.m_tmsi_by_s11_teid(teid_of(k)), None, "TEID of refresh {k} left behind");
        }
        assert_eq!(holder.m_tmsi_by_s11_teid(teid_of(999)), Some(m_tmsi));
        assert_eq!(
            (holder.by_mme_ue_id.len(), holder.by_s11_teid.len(), holder.by_imsi.len()),
            (0, 1, 1)
        );

        assert!(holder.remove_context(&guti.unwrap()));
        assert_eq!(holder.context_count(), 0);
        assert!(holder.by_imsi.is_empty() && holder.by_mme_ue_id.is_empty());
        assert!(holder.by_s11_teid.is_empty());
    }

    #[test]
    fn a_refresh_leaves_an_id_another_device_has_since_taken() {
        // Ids are minted per serving engine, so two devices' copies can
        // carry the same one on a holder; the later import owns it.
        let mut holder = MmeCore::new(MmeConfig::default());
        holder.import_state(replica(1, 0x55, 0x66)).unwrap();
        holder.import_state(replica(2, 0x55, 0x66)).unwrap();
        holder.import_state(replica(1, 0x77, 0x88)).unwrap();
        assert_eq!(holder.m_tmsi_by_s11_teid(0x66), Some(2));
        assert_eq!(holder.m_tmsi_by_s11_teid(0x88), Some(1));
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
    fn a_re_attach_leaves_only_its_newest_s11_teid_indexed() {
        let mut engine = MmeCore::new(MmeConfig::default());
        let mut guti = None;
        for k in 0..10 {
            guti = Some(crate::flow_tests::run_attach(&mut engine, "001010000000001", k + 1).0);
        }
        let ctx = engine.context(&guti.unwrap()).unwrap();
        let teid = ctx.bearer.s11_mme_teid;
        assert_eq!(
            engine.by_s11_teid.iter().collect::<Vec<_>>(),
            vec![(&teid, &ctx.guti.m_tmsi)],
            "ten attaches of one device"
        );
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
