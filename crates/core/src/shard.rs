//! Sharded MMP execution: each [`Shard`] exclusively owns a disjoint
//! subset of the MMP engines (shard key = ring partition, `vm_id`
//! modulo worker count), so no device context is ever shared between
//! threads. Cross-shard procedures — state replication at the Idle
//! edge, stray cleanup after ring repair, replica promotion — are
//! expressed as [`ShardMsg`] messages dropped into an *outbox* for the
//! worker loop to ship, never as cross-thread locks.
//!
//! A shard is plain single-threaded code: `process` consumes one
//! mailbox message and appends follow-up cross-shard messages and
//! access-side events. The only concurrent surface is [`ShardStats`]
//! (relaxed atomics), which the metrics publisher may read while the
//! shard drains — see `DcObserver::publish_shards`.
//!
//! S6a and S11 stay shard-local: every shard embeds an HSS frontend
//! (vector generation is a pure function of the IMSI, so any shard
//! computes the same keys) and a stateless S-GW responder, so only
//! S1AP and replication blobs ever cross shard boundaries.

use bytes::Bytes;
use scale_epc::Hss;
use scale_gtpc::{self as gtpc, iface_type, BearerContext, Cause, Fteid};
use scale_mme::{Incoming, MmeConfig, MmeCore, MmeStats, Outgoing};
use scale_diameter::S6a;
use scale_nas::Guti;
use scale_s1ap::S1apPdu;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mlb::VmId;
use crate::routeplane::{RoutePlane, RouteReader};

/// Which shard owns MMP `vm` when the fleet is split `n_shards` ways.
/// VM ids start at 1, so the partition is `(vm - 1) mod n`.
pub fn shard_of(vm: VmId, n_shards: usize) -> usize {
    (vm as usize).saturating_sub(1) % n_shards.max(1)
}

/// A message on a shard's bounded mailbox.
#[derive(Debug)]
pub enum ShardMsg {
    /// Deliver one control-plane event to engine `vm`. `guti_hint`
    /// carries the MLB-assigned M-TMSI on fresh attaches.
    ToVm {
        /// Target MMP engine.
        vm: VmId,
        /// M-TMSI to mint for this attach (routing-derived identity).
        guti_hint: Option<u32>,
        /// The event itself.
        ev: Incoming,
    },
    /// Import a replicated device-state blob into engine `vm` (the
    /// Idle-edge replication of §4.4, crossing a shard boundary).
    Replicate {
        /// Holder VM receiving the copy.
        vm: VmId,
        /// Serialized `UeContext`.
        blob: Bytes,
    },
    /// Drop the copy of `guti` held by engine `vm` (stray cleanup
    /// after detach or ring repair).
    Drop {
        /// VM holding the stray copy.
        vm: VmId,
        /// Identity to remove.
        guti: Guti,
    },
    /// Re-audit every owned context against the current ring snapshot,
    /// re-replicating under-replicated state and dropping strays —
    /// ring repair expressed as a message.
    RepairScan,
}

/// What a shard tells its worker loop after processing a message.
#[derive(Debug)]
pub enum ShardEvent {
    /// S1AP toward an eNodeB (the access side routes it to the cell
    /// owning `enb_id`).
    S1ap {
        /// Destination eNodeB.
        enb_id: u32,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// Attach Complete handled; `guti` is registered on `vm` (the
    /// matching `Active` edge follows in the same batch).
    Attached {
        /// Serving VM.
        vm: VmId,
        /// Device identity.
        guti: Guti,
    },
    /// Terminal edge of an attach or Service Request: device Active.
    Active {
        /// Serving VM.
        vm: VmId,
        /// Device identity.
        guti: Guti,
    },
    /// Terminal edge of an S1 release or TAU: device Idle, replicas
    /// re-synced (locally or via outbox `Replicate`s).
    Idle {
        /// Serving VM.
        vm: VmId,
        /// Device identity.
        guti: Guti,
    },
    /// Terminal edge of a detach: context purged everywhere.
    Detached {
        /// Serving VM.
        vm: VmId,
        /// Device identity.
        guti: Guti,
    },
    /// A control-plane error surfaced by an engine (protocol error,
    /// unknown routing target).
    Error {
        /// VM the event was addressed to.
        vm: VmId,
        /// Rendered error.
        error: String,
    },
}

/// Concurrently readable per-shard counters: the shard thread adds
/// with relaxed atomics while the metrics publisher snapshots — no
/// locks, no double-counting (see `DcObserver::publish_shards`).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Engine events processed (mirror of summed `MmeStats`).
    pub messages: AtomicU64,
    /// Attach procedures completed.
    pub attaches: AtomicU64,
    /// Service Requests served.
    pub service_requests: AtomicU64,
    /// Tracking Area Updates served.
    pub taus: AtomicU64,
    /// Detaches completed.
    pub detaches: AtomicU64,
    /// Idle transitions (S1 releases) completed.
    pub idles: AtomicU64,
    /// Engine-level rejects.
    pub rejects: AtomicU64,
    /// Replica blobs imported into this shard's engines.
    pub replicas_imported: AtomicU64,
    /// Replica blobs shipped to other shards.
    pub replicas_sent: AtomicU64,
    /// Stray context copies dropped.
    pub strays_dropped: AtomicU64,
    /// Errors (engine failures + misrouted messages).
    pub errors: AtomicU64,
}

/// A plain-value copy of [`ShardStats`], for oracles and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Engine events processed.
    pub messages: u64,
    /// Attach procedures completed.
    pub attaches: u64,
    /// Service Requests served.
    pub service_requests: u64,
    /// Tracking Area Updates served.
    pub taus: u64,
    /// Detaches completed.
    pub detaches: u64,
    /// Idle transitions completed.
    pub idles: u64,
    /// Engine-level rejects.
    pub rejects: u64,
    /// Replica blobs imported.
    pub replicas_imported: u64,
    /// Replica blobs shipped out.
    pub replicas_sent: u64,
    /// Stray copies dropped.
    pub strays_dropped: u64,
    /// Errors.
    pub errors: u64,
}

impl ShardStats {
    fn add(&self, field: &AtomicU64, n: u64) {
        if n > 0 {
            field.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Read a consistent-enough copy (each counter individually atomic;
    /// totals are exact once the shard quiesces).
    pub fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            attaches: self.attaches.load(Ordering::Relaxed),
            service_requests: self.service_requests.load(Ordering::Relaxed),
            taus: self.taus.load(Ordering::Relaxed),
            detaches: self.detaches.load(Ordering::Relaxed),
            idles: self.idles.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            replicas_imported: self.replicas_imported.load(Ordering::Relaxed),
            replicas_sent: self.replicas_sent.load(Ordering::Relaxed),
            strays_dropped: self.strays_dropped.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

impl ShardStatsSnapshot {
    /// Field-wise sum (fleet-wide totals).
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.messages += other.messages;
        self.attaches += other.attaches;
        self.service_requests += other.service_requests;
        self.taus += other.taus;
        self.detaches += other.detaches;
        self.idles += other.idles;
        self.rejects += other.rejects;
        self.replicas_imported += other.replicas_imported;
        self.replicas_sent += other.replicas_sent;
        self.strays_dropped += other.strays_dropped;
        self.errors += other.errors;
    }
}

/// Configuration for one shard.
pub struct ShardConfig {
    /// This shard's index.
    pub id: usize,
    /// Total shard count (fixed for a run).
    pub n_shards: usize,
    /// MMP VMs this shard owns (must satisfy [`shard_of`]).
    pub vms: Vec<VmId>,
    /// HSS RNG seed (same on every shard; keys derive from the IMSI).
    pub hss_seed: u64,
}

/// One worker shard: a disjoint set of MMP engines plus the shard-local
/// HSS frontend and stateless S-GW responder.
pub struct Shard {
    id: usize,
    n_shards: usize,
    engines: BTreeMap<VmId, MmeCore>,
    /// Last seen per-engine stats, for delta-mirroring into `stats`.
    mirrored: BTreeMap<VmId, MmeStats>,
    hss: Hss,
    reader: RouteReader,
    sgw_addr: [u8; 4],
    /// Concurrently readable counters.
    pub stats: Arc<ShardStats>,
}

impl Shard {
    /// Build a shard owning `cfg.vms`, routing via `plane`.
    pub fn new(cfg: &ShardConfig, plane: &Arc<RoutePlane>) -> Self {
        let snap = plane.snapshot();
        let mut engines = BTreeMap::new();
        let mut mirrored = BTreeMap::new();
        for &vm in &cfg.vms {
            debug_assert_eq!(shard_of(vm, cfg.n_shards), cfg.id, "vm {vm} not ours");
            let guti = snap.guti(0);
            engines.insert(
                vm,
                MmeCore::new(MmeConfig {
                    plmn: guti.plmn,
                    mme_group_id: guti.mme_group_id,
                    mme_code: guti.mme_code,
                    mme_name: format!("mmp-{vm}"),
                    vm_id: vm as u8,
                    ..MmeConfig::default()
                }),
            );
            mirrored.insert(vm, MmeStats::default());
        }
        Shard {
            id: cfg.id,
            n_shards: cfg.n_shards,
            engines,
            mirrored,
            hss: Hss::new(cfg.hss_seed),
            reader: plane.reader(),
            sgw_addr: [10, 0, 0, 2],
            stats: Arc::new(ShardStats::default()),
        }
    }

    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// VMs owned by this shard.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.engines.keys().copied()
    }

    /// Contexts held across this shard's engines (diagnostics).
    pub fn contexts_held(&self) -> usize {
        self.engines.values().map(|e| e.contexts().count()).sum()
    }

    /// Every engine context paired with its owning VM, in VM order —
    /// the read-only view the protocol model checker's invariants
    /// (GUTI uniqueness, replica contract) audit after each step.
    pub fn contexts(&self) -> impl Iterator<Item = (VmId, &scale_mme::UeContext)> + '_ {
        self.engines
            .iter()
            .flat_map(|(&vm, e)| e.contexts().map(move |c| (vm, c)))
    }

    /// VMs on this shard currently holding a context for `guti`.
    pub fn holding_vms(&self, guti: &Guti) -> Vec<VmId> {
        self.engines
            .iter()
            .filter(|(_, e)| e.context(guti).is_some())
            .map(|(&vm, _)| vm)
            .collect()
    }

    /// Hash the shard's behavior-relevant state — every engine's
    /// contexts and allocator positions — into `h`. Monotone counters
    /// are excluded so the model checker's visited set dedups states
    /// with identical future behavior.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for (&vm, engine) in &self.engines {
            vm.hash(h);
            engine.fingerprint(h);
        }
    }

    /// Summed engine stats (exact once the shard quiesces).
    pub fn engine_stats(&self) -> MmeStats {
        let mut total = MmeStats::default();
        for e in self.engines.values() {
            let s = e.stats;
            total.attaches_started += s.attaches_started;
            total.attaches_completed += s.attaches_completed;
            total.service_requests += s.service_requests;
            total.taus += s.taus;
            total.handovers += s.handovers;
            total.pagings += s.pagings;
            total.detaches += s.detaches;
            total.auth_failures += s.auth_failures;
            total.rejects += s.rejects;
            total.messages_processed += s.messages_processed;
        }
        total
    }

    /// Process one mailbox message. Cross-shard follow-ups go to
    /// `outbox` as `(target_shard, msg)`; access-side and lifecycle
    /// notifications go to `events`.
    pub fn process(
        &mut self,
        msg: ShardMsg,
        outbox: &mut Vec<(usize, ShardMsg)>,
        events: &mut Vec<ShardEvent>,
    ) {
        match msg {
            ShardMsg::ToVm { vm, guti_hint, ev } => self.deliver(vm, guti_hint, ev, outbox, events),
            ShardMsg::Replicate { vm, blob } => match self.engines.get_mut(&vm) {
                Some(engine) => match engine.import_state(blob) {
                    Ok(_) => self.stats.add(&self.stats.replicas_imported, 1),
                    Err(e) => {
                        self.stats.add(&self.stats.errors, 1);
                        events.push(ShardEvent::Error {
                            vm,
                            error: format!("replica import: {e}"),
                        });
                    }
                },
                None => self.misroute(vm, "replicate", events),
            },
            ShardMsg::Drop { vm, guti } => match self.engines.get_mut(&vm) {
                Some(engine) => {
                    if engine.remove_context(&guti).is_some() {
                        self.stats.add(&self.stats.strays_dropped, 1);
                    }
                }
                None => self.misroute(vm, "drop", events),
            },
            ShardMsg::RepairScan => self.repair_scan(outbox),
        }
    }

    fn misroute(&self, vm: VmId, what: &str, events: &mut Vec<ShardEvent>) {
        self.stats.add(&self.stats.errors, 1);
        events.push(ShardEvent::Error {
            vm,
            error: format!("{what} for vm {vm} not owned by shard {}", self.id),
        });
    }

    /// Run one inbound event through engine `vm`, looping S6a/S11
    /// synchronously in-shard until only cross-boundary work remains.
    fn deliver(
        &mut self,
        vm: VmId,
        guti_hint: Option<u32>,
        ev: Incoming,
        outbox: &mut Vec<(usize, ShardMsg)>,
        events: &mut Vec<ShardEvent>,
    ) {
        if !self.engines.contains_key(&vm) {
            self.misroute(vm, "event", events);
            return;
        }
        if let Some(m_tmsi) = guti_hint {
            if let Some(engine) = self.engines.get_mut(&vm) {
                engine.set_guti_hint(m_tmsi);
            }
        }
        let mut queue = VecDeque::new();
        queue.push_back(ev);
        while let Some(ev) = queue.pop_front() {
            let engine = self.engines.get_mut(&vm).expect("checked above"); // lint: allow(unwrap): vm membership verified at dispatch
            match engine.handle(ev) {
                Ok(outs) => {
                    for out in outs {
                        match out {
                            Outgoing::S1ap { enb_id, pdu } => {
                                events.push(ShardEvent::S1ap { enb_id, pdu });
                            }
                            Outgoing::S11(msg) => {
                                if let Some(resp) = sgw_respond(self.sgw_addr, msg) {
                                    queue.push_back(Incoming::S11(resp));
                                }
                            }
                            Outgoing::S6a(msg) => {
                                if let Ok(S6a::AuthInfoRequest { imsi, .. }) = S6a::from_msg(&msg) {
                                    self.hss.provision_if_absent(&imsi);
                                }
                                let resp = self.hss.handle(&msg);
                                queue.push_back(Incoming::S6a(resp));
                            }
                            Outgoing::UeAttached { guti } => {
                                events.push(ShardEvent::Attached { vm, guti });
                            }
                            Outgoing::UeActive { guti } => {
                                self.reader.discharge(vm);
                                events.push(ShardEvent::Active { vm, guti });
                            }
                            Outgoing::UeIdle { guti } => {
                                self.sync_holders(vm, guti, outbox);
                                self.reader.discharge(vm);
                                events.push(ShardEvent::Idle { vm, guti });
                            }
                            Outgoing::UeDetached { guti } => {
                                self.drop_other_holders(vm, guti, outbox);
                                self.reader.discharge(vm);
                                events.push(ShardEvent::Detached { vm, guti });
                            }
                        }
                    }
                }
                Err(e) => {
                    self.stats.add(&self.stats.errors, 1);
                    events.push(ShardEvent::Error {
                        vm,
                        error: e.to_string(),
                    });
                }
            }
        }
        self.mirror_stats(vm);
    }

    /// Idle edge: export the fresh state from the serving VM and push a
    /// copy to every ring-designated holder — locally when the holder
    /// lives on this shard, via the outbox otherwise (§4.4).
    fn sync_holders(&mut self, serving: VmId, guti: Guti, outbox: &mut Vec<(usize, ShardMsg)>) {
        let Some(blob) = self
            .engines
            .get(&serving)
            .and_then(|e| e.export_state(&guti))
        else {
            self.stats.add(&self.stats.errors, 1);
            return;
        };
        let (holders, n) = self.reader.holders(guti.m_tmsi);
        let mut keep = false;
        for &h in &holders[..n] {
            if h == serving {
                keep = true;
                continue;
            }
            match self.engines.get_mut(&h) {
                Some(local) => {
                    if local.import_state(blob.clone()).is_ok() {
                        self.stats.add(&self.stats.replicas_imported, 1);
                    }
                }
                None => {
                    outbox.push((
                        shard_of(h, self.n_shards),
                        ShardMsg::Replicate {
                            vm: h,
                            blob: blob.clone(),
                        },
                    ));
                    self.stats.add(&self.stats.replicas_sent, 1);
                }
            }
        }
        if !keep {
            // Post-churn: the serving VM is no longer a designated
            // holder; its copy would go stale.
            if let Some(engine) = self.engines.get_mut(&serving) {
                engine.remove_context(&guti);
                self.stats.add(&self.stats.strays_dropped, 1);
            }
        }
    }

    /// Detach edge: the serving engine already purged its copy; evict
    /// every other holder's replica.
    fn drop_other_holders(&mut self, serving: VmId, guti: Guti, outbox: &mut Vec<(usize, ShardMsg)>) {
        let (holders, n) = self.reader.holders(guti.m_tmsi);
        for &h in &holders[..n] {
            if h == serving {
                continue;
            }
            match self.engines.get_mut(&h) {
                Some(local) => {
                    if local.remove_context(&guti).is_some() {
                        self.stats.add(&self.stats.strays_dropped, 1);
                    }
                }
                None => outbox.push((shard_of(h, self.n_shards), ShardMsg::Drop { vm: h, guti })),
            }
        }
    }

    /// Ring repair as a message: audit every owned context against the
    /// current snapshot. Masters re-replicate to missing holders; VMs
    /// that lost a key range drop their stale copies.
    fn repair_scan(&mut self, outbox: &mut Vec<(usize, ShardMsg)>) {
        // Collect first: re-replication mutates sibling engines.
        let mut owned: Vec<(VmId, Guti)> = Vec::new();
        for (&vm, engine) in &self.engines {
            for ctx in engine.contexts() {
                owned.push((vm, ctx.guti));
            }
        }
        for (vm, guti) in owned {
            let (holders, n) = self.reader.holders(guti.m_tmsi);
            let holders = &holders[..n];
            if !holders.contains(&vm) {
                if let Some(engine) = self.engines.get_mut(&vm) {
                    engine.remove_context(&guti);
                    self.stats.add(&self.stats.strays_dropped, 1);
                }
                continue;
            }
            // The first *live* holder re-replicates (a down master's
            // successor stands in, as in `ScaleDc::repair`).
            let snap = self.reader.snapshot().clone();
            let leader = holders.iter().copied().find(|&h| !snap.is_down(h));
            if leader != Some(vm) {
                continue;
            }
            let Some(blob) = self.engines.get(&vm).and_then(|e| e.export_state(&guti)) else {
                continue;
            };
            for &h in holders {
                if h == vm {
                    continue;
                }
                match self.engines.get_mut(&h) {
                    Some(local) => {
                        if local.context(&guti).is_none()
                            && local.import_state(blob.clone()).is_ok()
                        {
                            self.stats.add(&self.stats.replicas_imported, 1);
                        }
                    }
                    None => {
                        outbox.push((
                            shard_of(h, self.n_shards),
                            ShardMsg::Replicate {
                                vm: h,
                                blob: blob.clone(),
                            },
                        ));
                        self.stats.add(&self.stats.replicas_sent, 1);
                    }
                }
            }
        }
    }

    /// Mirror the per-engine counter deltas into the concurrently
    /// readable shard stats.
    fn mirror_stats(&mut self, vm: VmId) {
        let Some(engine) = self.engines.get(&vm) else {
            return;
        };
        let now = engine.stats;
        let last = self.mirrored.entry(vm).or_default();
        self.stats
            .add(&self.stats.messages, now.messages_processed - last.messages_processed);
        self.stats
            .add(&self.stats.attaches, now.attaches_completed - last.attaches_completed);
        self.stats
            .add(&self.stats.service_requests, now.service_requests - last.service_requests);
        self.stats.add(&self.stats.taus, now.taus - last.taus);
        self.stats.add(&self.stats.detaches, now.detaches - last.detaches);
        self.stats.add(&self.stats.rejects, now.rejects - last.rejects);
        *last = now;
    }
}

/// Stateless S-GW responder: accepts every request, minting
/// deterministic TEIDs by *mirroring* the MME's S11 TEID (so the
/// mapping is invertible without session state). Idle/active bearer
/// state lives in the MME contexts; nothing here needs to survive a
/// cross-shard migration, which is what lets S11 stay shard-local.
fn sgw_respond(addr: [u8; 4], msg: gtpc::Message) -> Option<gtpc::Message> {
    match msg.body {
        gtpc::Body::EchoRequest { recovery } => Some(gtpc::Message {
            teid: 0,
            sequence: msg.sequence,
            body: gtpc::Body::EchoResponse { recovery },
        }),
        gtpc::Body::CreateSessionRequest {
            sender_fteid,
            bearer,
            ..
        } => {
            let mme_teid = sender_fteid.teid;
            let mut bearer_out = BearerContext::new(bearer.ebi);
            bearer_out.s1u_sgw_fteid = Some(Fteid {
                iface: iface_type::S1U_SGW,
                teid: mme_teid,
                ipv4: addr,
            });
            bearer_out.cause = Some(Cause::RequestAccepted);
            Some(gtpc::Message {
                teid: mme_teid,
                sequence: msg.sequence,
                body: gtpc::Body::CreateSessionResponse {
                    cause: Cause::RequestAccepted,
                    sender_fteid: Some(Fteid {
                        iface: iface_type::S11_SGW,
                        teid: mme_teid,
                        ipv4: addr,
                    }),
                    paa: Some([100, 64, (mme_teid >> 8) as u8, mme_teid as u8]),
                    bearer: Some(bearer_out),
                },
            })
        }
        gtpc::Body::ModifyBearerRequest { .. } => Some(gtpc::Message {
            teid: msg.teid,
            sequence: msg.sequence,
            body: gtpc::Body::ModifyBearerResponse {
                cause: Cause::RequestAccepted,
                bearer: None,
            },
        }),
        gtpc::Body::ReleaseAccessBearersRequest => Some(gtpc::Message {
            teid: msg.teid,
            sequence: msg.sequence,
            body: gtpc::Body::ReleaseAccessBearersResponse {
                cause: Cause::RequestAccepted,
            },
        }),
        gtpc::Body::DeleteSessionRequest { .. } => Some(gtpc::Message {
            teid: 0,
            sequence: msg.sequence,
            body: gtpc::Body::DeleteSessionResponse {
                cause: Cause::RequestAccepted,
            },
        }),
        gtpc::Body::DownlinkDataNotificationAck { .. } => None,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routeplane::RouteSnapshot;
    use scale_nas::Plmn;

    fn test_plane(vms: &[VmId]) -> Arc<RoutePlane> {
        let mut snap = RouteSnapshot::new(64, 2, Plmn::test(), 0x8001, 1);
        for &vm in vms {
            snap.ring.add_node(vm);
        }
        Arc::new(RoutePlane::new(snap))
    }

    #[test]
    fn shard_partition_is_disjoint_and_total() {
        for n in 1..=8 {
            let mut seen = vec![0usize; n];
            for vm in 1..=16u32 {
                seen[shard_of(vm, n)] += 1;
            }
            assert_eq!(seen.iter().sum::<usize>(), 16);
            let (lo, hi) = (16 / n, 16usize.div_ceil(n));
            assert!(seen.iter().all(|&c| c == lo || c == hi));
        }
    }

    #[test]
    fn misrouted_messages_count_errors_not_panics() {
        let plane = test_plane(&[1, 2]);
        let cfg = ShardConfig {
            id: 0,
            n_shards: 2,
            vms: vec![1],
            hss_seed: 7,
        };
        let mut shard = Shard::new(&cfg, &plane);
        let mut outbox = Vec::new();
        let mut events = Vec::new();
        shard.process(
            ShardMsg::Drop {
                vm: 2,
                guti: plane.snapshot().guti(9),
            },
            &mut outbox,
            &mut events,
        );
        assert_eq!(shard.stats.snapshot().errors, 1);
        assert!(matches!(events[..], [ShardEvent::Error { vm: 2, .. }]));
        assert!(outbox.is_empty());
    }

    /// The shard-local HSS provisions on first sight only: a second
    /// authentication of the same IMSI must see SQN 2, not a subscriber
    /// record reset to SQN 1.
    #[test]
    fn reattach_advances_the_hss_sqn() {
        use scale_crypto::milenage::Milenage;
        use scale_nas::{EmmMessage, MobileId, Tai};
        use scale_s1ap::S1apPdu;

        let plane = test_plane(&[1]);
        let cfg = ShardConfig {
            id: 0,
            n_shards: 1,
            vms: vec![1],
            hss_seed: 7,
        };
        let mut shard = Shard::new(&cfg, &plane);
        let imsi = "001010000000042";
        let tai = Tai::new(plane.snapshot().guti(0).plmn, 7);
        let usim = Milenage::from_op(&scale_epc::provision_k(imsi), &scale_epc::OP);
        let mut sqn_of_attach = |enb_ue_id: u32| -> u64 {
            let (mut outbox, mut events) = (Vec::new(), Vec::new());
            shard.process(
                ShardMsg::ToVm {
                    vm: 1,
                    guti_hint: Some(enb_ue_id),
                    ev: Incoming::S1ap {
                        enb_id: 0x0100_0001,
                        pdu: S1apPdu::InitialUeMessage {
                            enb_ue_id,
                            nas_pdu: EmmMessage::AttachRequest {
                                attach_type: 1,
                                id: MobileId::Imsi(imsi.into()),
                                tai,
                            }
                            .encode(),
                            tai,
                            establishment_cause: 3,
                            s_tmsi: None,
                        },
                    },
                },
                &mut outbox,
                &mut events,
            );
            let nas_pdu = match &events[..] {
                [ShardEvent::S1ap {
                    pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                    ..
                }] => nas_pdu.clone(),
                other => panic!("expected the authentication request, got {other:?}"),
            };
            match EmmMessage::decode(nas_pdu).unwrap() {
                EmmMessage::AuthenticationRequest { rand, autn, .. } => {
                    let ak = usim.f2345(&rand).ak;
                    (0..6).fold(0u64, |sqn, i| (sqn << 8) | u64::from(autn[i] ^ ak[i]))
                }
                other => panic!("expected the authentication request, got {other:?}"),
            }
        };
        assert_eq!(sqn_of_attach(1), 1);
        assert_eq!(sqn_of_attach(2), 2);
    }

    #[test]
    fn sgw_stub_mirrors_mme_teid() {
        let resp = sgw_respond(
            [10, 0, 0, 2],
            gtpc::Message {
                teid: 0,
                sequence: 5,
                body: gtpc::Body::CreateSessionRequest {
                    imsi: "001".into(),
                    apn: "internet".into(),
                    sender_fteid: Fteid {
                        iface: iface_type::S11_MME,
                        teid: 0x0200_0001,
                        ipv4: [10, 0, 0, 1],
                    },
                    ambr: gtpc::Ambr {
                        uplink_kbps: 1,
                        downlink_kbps: 1,
                    },
                    bearer: BearerContext::new(5),
                },
            },
        )
        .unwrap();
        assert_eq!(resp.sequence, 5);
        match resp.body {
            gtpc::Body::CreateSessionResponse {
                cause,
                sender_fteid,
                bearer,
                ..
            } => {
                assert!(cause.is_accepted());
                assert_eq!(sender_fteid.unwrap().teid, 0x0200_0001);
                assert_eq!(bearer.unwrap().s1u_sgw_fteid.unwrap().teid, 0x0200_0001);
            }
            other => panic!("{other:?}"),
        }
        // Modify / release / delete always accept.
        let mb = sgw_respond(
            [10, 0, 0, 2],
            gtpc::Message {
                teid: 77,
                sequence: 6,
                body: gtpc::Body::ModifyBearerRequest {
                    bearer: BearerContext::new(5),
                },
            },
        )
        .unwrap();
        assert!(
            matches!(mb.body, gtpc::Body::ModifyBearerResponse { cause, .. } if cause.is_accepted())
        );
    }

    #[test]
    fn stats_snapshot_merge_sums_fieldwise() {
        let a = ShardStatsSnapshot {
            messages: 3,
            attaches: 1,
            ..Default::default()
        };
        let mut b = ShardStatsSnapshot {
            messages: 4,
            service_requests: 2,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.messages, 7);
        assert_eq!(b.attaches, 1);
        assert_eq!(b.service_requests, 2);
    }
}
