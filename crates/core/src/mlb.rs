//! The MLB (MME Load Balancer) routing logic — §4.1/§4.6 of the paper.
//!
//! The MLB is the standards-facing proxy: it looks like one MME to every
//! eNodeB and S-GW, and routes each message to an MMP VM using only
//! (a) the consistent hash ring and (b) coarse per-VM load — no
//! per-device routing table ("Low-overhead", §4.6):
//!
//! * unregistered attach → MLB assigns the GUTI and routes to its hash
//!   master;
//! * Idle→Active transition (service request / TAU / GUTI attach) →
//!   least-loaded VM among the R replica holders of the GUTI;
//! * Active-mode messages → the VM id embedded in the MME-UE-S1AP-ID /
//!   S11-TEID / Diameter hop-by-hop id by the serving MMP.
//!
//! The routing hot path is allocation-free: per-VM loads live in a dense
//! `Vec` indexed by `VmId` (VM ids are small — they embed in the u8
//! field of composed ids), each device's ring position is memoized so
//! repeat lookups skip MD5 entirely, and the replica holder set is
//! cached per routing epoch (invalidated whenever a VM joins or leaves
//! the ring).
//!
//! lint: hot-path

use crate::failover::{FailoverConfig, FailoverStats, HealthTracker, Priority, TokenBucket};
use scale_hashring::{position_of, HashRing, PositionCache};
use scale_mme::vm_of_id;
use scale_nas::{Guti, Plmn};

/// MMP VM identifier within one DC pool (embedded in composed ids).
pub type VmId = u32;

/// Replica holders cached per slot; replication factors beyond this
/// bypass the cache (the paper never goes past R = 4).
const MAX_CACHED_R: usize = 8;

/// Per-VM load tracked by the MLB: an EWMA of the messages handled per
/// window (the "moving average of CPU utilization" of §4.6).
#[derive(Debug, Clone, Copy, Default)]
pub struct VmLoad {
    /// Smoothed load (EWMA of per-window message counts).
    pub ewma: f64,
    /// Messages handled in the current window.
    pub window_count: u64,
}

/// One direct-mapped routing-cache slot: the holder set of `m_tmsi` as
/// of ring `epoch`. `epoch == 0` marks a never-written slot.
#[derive(Debug, Clone, Copy)]
struct RouteSlot {
    m_tmsi: u32,
    epoch: u64,
    n: u8,
    holders: [VmId; MAX_CACHED_R],
}

const EMPTY_SLOT: RouteSlot = RouteSlot {
    m_tmsi: 0,
    epoch: 0,
    n: 0,
    holders: [0; MAX_CACHED_R],
};

/// The MLB's routing state.
pub struct MlbRouter {
    ring: HashRing<VmId>,
    replication: usize,
    /// Dense per-VM loads indexed by `VmId`; slots of removed VMs are
    /// reset to the default (zero load), matching the map semantics.
    loads: Vec<VmLoad>,
    next_m_tmsi: u32,
    plmn: Plmn,
    mme_group_id: u16,
    mme_code: u8,
    /// Bumped on every ring change; cached holder sets from older
    /// epochs are ignored. Starts at 1 so epoch 0 means "empty slot".
    epoch: u64,
    route_cache: Vec<RouteSlot>,
    positions: PositionCache,
    /// EWMA smoothing for load updates.
    pub load_alpha: f64,
    /// Routing counters (published to the registry off-path).
    pub stats: MlbStats,
    /// Per-VM liveness (missed heartbeats / consecutive errors, §4.6).
    pub health: HealthTracker,
    /// Retry / shedding policy shared with the cluster.
    pub failover: FailoverConfig,
    /// Counters for the failure experiments.
    pub failover_stats: FailoverStats,
    /// Admission limiter for low-priority traffic under overload.
    shed_bucket: TokenBucket,
}

/// Routing counters. Plain `u64`s, not atomics: the routing hot path
/// is single-threaded and sub-10 ns, so these are bumped for free and
/// published into the shared `scale_obs::Registry` off-path (see
/// `ScaleDc::publish_metrics`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MlbStats {
    /// Attach requests routed for unregistered devices.
    pub new_attaches: u64,
    /// Idle→Active transitions routed by ring lookup.
    pub idle_routes: u64,
    /// Active-mode messages routed by embedded VM id.
    pub active_routes: u64,
    /// Holder-set lookups performed.
    pub lookups: u64,
    /// Holder lookups served from the per-epoch route cache.
    pub route_cache_hits: u64,
    /// Holder lookups that had to walk the ring.
    pub route_cache_misses: u64,
}

impl MlbRouter {
    /// MLB with `tokens` points per MMP, `replication` holders per
    /// device, and the GUTI identity (`plmn`/`mme_group_id`/`mme_code`)
    /// it stamps into allocated GUTIs.
    // lint: allow(alloc): cold constructor
    pub fn new(tokens: u32, replication: usize, plmn: Plmn, mme_group_id: u16, mme_code: u8) -> Self {
        let failover = FailoverConfig::default();
        MlbRouter {
            ring: HashRing::new(tokens),
            replication,
            loads: Vec::new(),
            next_m_tmsi: 1,
            plmn,
            mme_group_id,
            mme_code,
            epoch: 1,
            route_cache: vec![EMPTY_SLOT; 1024],
            positions: PositionCache::new(4096),
            load_alpha: 0.3,
            stats: MlbStats::default(),
            health: HealthTracker::new(failover.health),
            shed_bucket: TokenBucket::new(failover.shed.bucket_rate, failover.shed.bucket_burst),
            failover,
            failover_stats: FailoverStats::default(),
        }
    }

    fn load_slot(&mut self, vm: VmId) -> &mut VmLoad {
        let i = vm as usize;
        assert!(i < 1 << 16, "dense load table: VM ids must stay small");
        if self.loads.len() <= i {
            self.loads.resize(i + 1, VmLoad::default());
        }
        &mut self.loads[i]
    }

    /// Register a new MMP VM on the ring. The load and health slots
    /// start clean even if the 8-bit id is being reused.
    pub fn add_mmp(&mut self, vm: VmId) {
        self.ring.add_node(vm);
        *self.load_slot(vm) = VmLoad::default();
        self.health.forget(vm);
        self.epoch += 1;
        #[cfg(feature = "verify")]
        self.check_invariants();
    }

    /// Remove an MMP VM. Its dense load and health slots are reset here
    /// — not lazily on re-add — so a departed VM can never linger with
    /// stale in-flight counts that skew least-loaded routing.
    pub fn remove_mmp(&mut self, vm: VmId) {
        self.ring.remove_node(&vm);
        if let Some(slot) = self.loads.get_mut(vm as usize) {
            *slot = VmLoad::default();
        }
        self.health.forget(vm);
        self.epoch += 1;
        #[cfg(feature = "verify")]
        self.check_invariants();
    }

    /// Mark a VM down (crash detected): its cached routes are
    /// invalidated by the epoch bump and idle routing skips it until
    /// [`Self::mark_up`]. Returns true if the VM was previously up.
    pub fn mark_down(&mut self, vm: VmId) -> bool {
        let newly = self.health.mark_down(vm);
        if newly {
            self.failover_stats.vms_marked_down += 1;
            self.epoch += 1;
        }
        newly
    }

    /// Mark a VM healthy and routable again (restarted + warmed).
    pub fn mark_up(&mut self, vm: VmId) {
        self.health.mark_up(vm);
        self.epoch += 1;
        #[cfg(feature = "verify")]
        self.check_invariants();
    }

    /// Is the VM currently marked down?
    pub fn is_down(&self, vm: VmId) -> bool {
        self.health.is_down(vm)
    }

    /// Record a request error against a VM; crossing the consecutive-
    /// error threshold marks it down (returns true on that transition).
    pub fn record_error(&mut self, vm: VmId) -> bool {
        if self.health.record_error(vm) {
            self.failover_stats.vms_marked_down += 1;
            self.epoch += 1;
            return true;
        }
        false
    }

    /// Record a successful exchange with a VM (resets its error streak).
    pub fn record_ok(&mut self, vm: VmId) {
        self.health.record_ok(vm);
    }

    /// Record a missed heartbeat; crossing the miss threshold marks the
    /// VM down (returns true on that transition).
    pub fn miss_heartbeat(&mut self, vm: VmId) -> bool {
        if self.health.miss_heartbeat(vm) {
            self.failover_stats.vms_marked_down += 1;
            self.epoch += 1;
            return true;
        }
        false
    }

    /// Record a heartbeat ack (resets the miss streak).
    pub fn heartbeat_ok(&mut self, vm: VmId) {
        self.health.heartbeat_ok(vm);
    }

    /// Admission control (§4.6 overload): when every live replica
    /// holder of `m_tmsi` is above the utilization threshold, a
    /// low-priority request must win a token to be admitted; high-
    /// priority requests always pass. `now` is in seconds (virtual or
    /// wall-clock) and feeds the bucket refill.
    pub fn admit(&mut self, m_tmsi: u32, priority: Priority, now: f64) -> bool {
        if priority == Priority::High {
            return true;
        }
        let (holders, n) = self.holders_cached(m_tmsi);
        let threshold = self.failover.shed.util_threshold;
        let mut any_live = false;
        let mut all_hot = true;
        for &vm in &holders[..n] {
            if self.health.is_down(vm) {
                continue;
            }
            any_live = true;
            let load = self.loads.get(vm as usize).map(|l| l.ewma).unwrap_or(0.0);
            if load <= threshold {
                all_hot = false;
            }
        }
        if !any_live || !all_hot {
            return true; // only shed on overload, not on outage
        }
        if self.shed_bucket.try_take(now) {
            true
        } else {
            self.failover_stats.shed += 1;
            false
        }
    }

    /// Live MMP VMs on the ring.
    pub fn mmps(&self) -> &[VmId] {
        self.ring.nodes()
    }

    /// The consistent-hash ring (read-only).
    pub fn ring(&self) -> &HashRing<VmId> {
        &self.ring
    }

    /// Configured replication degree R.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Compose the pool GUTI for an M-TMSI.
    pub fn guti(&self, m_tmsi: u32) -> Guti {
        Guti {
            plmn: self.plmn,
            mme_group_id: self.mme_group_id,
            mme_code: self.mme_code,
            m_tmsi,
        }
    }

    /// Ring position of an M-TMSI's GUTI, memoized: the position depends
    /// only on the key bytes (never on ring membership), so entries
    /// survive VM churn.
    fn position(&mut self, m_tmsi: u32) -> u64 {
        let guti = self.guti(m_tmsi);
        self.positions
            .position_with(m_tmsi as u64, || position_of(&guti.to_bytes()))
    }

    /// Holder set of `m_tmsi` via the per-epoch routing cache; on a miss
    /// the replica walk runs once and the slot is (re)filled.
    fn holders_cached(&mut self, m_tmsi: u32) -> ([VmId; MAX_CACHED_R], usize) {
        let cacheable = self.replication <= MAX_CACHED_R;
        let slot_idx = (m_tmsi as usize) & (self.route_cache.len() - 1);
        if cacheable {
            let slot = self.route_cache[slot_idx];
            if slot.epoch == self.epoch && slot.m_tmsi == m_tmsi {
                self.stats.route_cache_hits += 1;
                // Verify mode re-derives every cache hit from the ring:
                // a mismatch means an epoch bump was missed somewhere.
                #[cfg(feature = "verify")]
                {
                    // Recompute from scratch — bypassing the position
                    // memo both audits it and leaves its hit/miss
                    // counters untouched.
                    let pos = position_of(&self.guti(m_tmsi).to_bytes());
                    let mut fresh = [0 as VmId; MAX_CACHED_R];
                    let mut fn_ = 0usize;
                    self.ring
                        .replicas_each(pos, self.replication.min(MAX_CACHED_R), |vm| {
                            fresh[fn_] = *vm;
                            fn_ += 1;
                        });
                    assert!(
                        fn_ == slot.n as usize && fresh[..fn_] == slot.holders[..fn_],
                        "route cache hit for m_tmsi {m_tmsi} is stale at epoch {}: \
                         cached {:?}, ring says {:?}",
                        self.epoch,
                        &slot.holders[..slot.n as usize],
                        &fresh[..fn_]
                    );
                }
                return (slot.holders, slot.n as usize);
            }
        }
        self.stats.route_cache_misses += 1;
        let pos = self.position(m_tmsi);
        let mut holders = [0 as VmId; MAX_CACHED_R];
        let mut n = 0usize;
        let want = self.replication.min(MAX_CACHED_R);
        self.ring.replicas_each(pos, want, |vm| {
            holders[n] = *vm;
            n += 1;
        });
        if cacheable {
            self.route_cache[slot_idx] = RouteSlot {
                m_tmsi,
                epoch: self.epoch,
                n: n as u8,
                holders,
            };
        }
        (holders, n)
    }

    /// Assign a fresh GUTI for an unregistered device and return
    /// `(m_tmsi, master VM)` — the attach is processed at the master so
    /// the state's first copy lives where the ring says it should.
    pub fn assign_guti(&mut self) -> Option<(u32, VmId)> {
        let m_tmsi = self.next_m_tmsi;
        self.next_m_tmsi += 1;
        self.stats.new_attaches += 1;
        let (holders, n) = self.holders_cached(m_tmsi);
        // The first *live* holder takes the attach; a down master's
        // successor stands in until the ring is repaired.
        holders[..n]
            .iter()
            .find(|vm| !self.health.is_down(**vm))
            .map(|vm| (m_tmsi, *vm))
    }

    /// Replica holders of a GUTI: master first, then ring successors.
    // lint: allow(alloc): allocating convenience API — the hot path is holders_cached
    pub fn holders(&self, m_tmsi: u32) -> Vec<VmId> {
        let guti = self.guti(m_tmsi);
        let mut out = Vec::with_capacity(self.replication.min(self.ring.len()));
        self.ring
            .replicas_each(position_of(&guti.to_bytes()), self.replication, |vm| {
                out.push(*vm)
            });
        out
    }

    /// Master VM of a GUTI.
    pub fn master(&self, m_tmsi: u32) -> Option<VmId> {
        let guti = self.guti(m_tmsi);
        self.ring.primary(&guti.to_bytes()).copied()
    }

    /// Route an Idle→Active request: least-loaded *live* VM among the
    /// replica holders (the fine-grained balancing of §4.6). Holders
    /// marked down are skipped — that skip is the replica failover of
    /// §4.6, counted in [`FailoverStats::failovers`]. All holders down
    /// → `None` (the request will be retried or counted lost upstream).
    ///
    /// ```
    /// use scale_core::mlb::MlbRouter;
    /// use scale_nas::Plmn;
    ///
    /// let mut mlb = MlbRouter::new(5, 2, Plmn::new("001", "01"), 1, 1);
    /// for vm in 0..4 {
    ///     mlb.add_mmp(vm);
    /// }
    /// let vm = mlb.route_idle_transition(0xC0FFEE).unwrap();
    /// assert!(mlb.mmps().contains(&vm));
    /// // Same device, same holders — deterministic while loads hold.
    /// assert_eq!(mlb.route_idle_transition(0xC0FFEE), Some(vm));
    /// ```
    pub fn route_idle_transition(&mut self, m_tmsi: u32) -> Option<VmId> {
        self.stats.idle_routes += 1;
        self.stats.lookups += 1;
        let (holders, n) = self.holders_cached(m_tmsi);
        let mut best: Option<VmId> = None;
        let mut best_load = f64::INFINITY;
        let mut skipped_down = false;
        for &vm in &holders[..n] {
            if self.health.is_down(vm) {
                skipped_down = true;
                continue;
            }
            let load = self
                .loads
                .get(vm as usize)
                .map(|l| l.ewma)
                .unwrap_or(0.0);
            // `<=` keeps the last of equally loaded holders, matching the
            // `Iterator::min_by` tie-breaking of the seed implementation.
            if load <= best_load {
                best = Some(vm);
                best_load = load;
            }
        }
        if skipped_down && best.is_some() {
            self.failover_stats.failovers += 1;
        }
        best
    }

    /// Route an Active-mode message by its embedded VM id.
    pub fn route_active(&mut self, composed_id: u32) -> VmId {
        self.stats.active_routes += 1;
        vm_of_id(composed_id) as VmId
    }

    /// Record one message handled by `vm` in the current window.
    pub fn record_handled(&mut self, vm: VmId) {
        self.load_slot(vm).window_count += 1;
    }

    /// Close a load window: fold counts into the EWMA and reset.
    pub fn close_load_window(&mut self) {
        let alpha = self.load_alpha;
        for load in &mut self.loads {
            load.ewma = alpha * load.window_count as f64 + (1.0 - alpha) * load.ewma;
            load.window_count = 0;
        }
    }

    /// Current EWMA load of a VM.
    pub fn load_of(&self, vm: VmId) -> f64 {
        self.loads.get(vm as usize).map(|l| l.ewma).unwrap_or(0.0)
    }

    /// Directly set a VM's load (used when MMPs push their CPU figures).
    pub fn set_load(&mut self, vm: VmId, load: f64) {
        self.load_slot(vm).ewma = load;
    }

    /// Current routing epoch. Starts at 1 and bumps on every ring or
    /// liveness change, so `epoch() - 1` is the number of bumps — the
    /// `scale_mlb_epoch_bumps_total` metric.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Audit the router's cross-structure coherence, panicking on any
    /// violation. Called after every membership or liveness mutation
    /// when the `verify` feature is on.
    ///
    /// Checks: the ring's own invariants; load slots are finite and
    /// non-negative (a NaN EWMA would silently win or lose every
    /// least-loaded comparison); and every route-cache slot stamped
    /// with the *current* epoch holds a distinct, correctly-sized
    /// subset of the current ring membership hashed to that slot index.
    // lint: allow(alloc): verify-feature audit, never on the routing path
    #[cfg(feature = "verify")]
    pub fn check_invariants(&self) {
        self.ring.check_invariants();
        assert!(self.epoch >= 1, "epoch 0 is the empty-slot sentinel");
        for (vm, load) in self.loads.iter().enumerate() {
            assert!(
                load.ewma.is_finite() && load.ewma >= 0.0,
                "VM {vm} has corrupt EWMA load {}",
                load.ewma
            );
        }
        let members = self.ring.nodes();
        for (idx, slot) in self.route_cache.iter().enumerate() {
            if slot.epoch != self.epoch {
                continue; // stale or empty slot: ignored by lookups
            }
            assert_eq!(
                (slot.m_tmsi as usize) & (self.route_cache.len() - 1),
                idx,
                "route slot {idx} caches m_tmsi {} hashed elsewhere",
                slot.m_tmsi
            );
            let n = slot.n as usize;
            assert!(
                n <= self.replication.min(MAX_CACHED_R) && n <= members.len(),
                "route slot {idx} holds {n} holders with R={} and {} VMs",
                self.replication,
                members.len()
            );
            let holders = &slot.holders[..n];
            for (i, vm) in holders.iter().enumerate() {
                assert!(
                    members.contains(vm),
                    "route slot {idx} (epoch {}) caches departed VM {vm}",
                    slot.epoch
                );
                assert!(
                    !holders[..i].contains(vm),
                    "route slot {idx} repeats holder {vm}"
                );
            }
        }
    }

    /// Position-memo `(hits, misses)` counters, for instrumentation.
    pub fn position_cache_stats(&self) -> (u64, u64) {
        (self.positions.hits, self.positions.misses)
    }

    /// Position-memo hit fraction, for instrumentation.
    pub fn position_cache_hit_rate(&self) -> f64 {
        let total = self.positions.hits + self.positions.misses;
        if total == 0 {
            0.0
        } else {
            self.positions.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_mme::compose_id;

    fn router(vms: &[VmId]) -> MlbRouter {
        let mut r = MlbRouter::new(5, 2, Plmn::test(), 0x8001, 1);
        for &vm in vms {
            r.add_mmp(vm);
        }
        r
    }

    #[test]
    fn assign_guti_routes_to_master() {
        let mut r = router(&[1, 2, 3]);
        for _ in 0..50 {
            let (m_tmsi, master) = r.assign_guti().unwrap();
            assert_eq!(r.master(m_tmsi), Some(master));
        }
    }

    #[test]
    fn gutis_are_unique() {
        let mut r = router(&[1]);
        let a = r.assign_guti().unwrap().0;
        let b = r.assign_guti().unwrap().0;
        assert_ne!(a, b);
    }

    #[test]
    fn holders_are_distinct_and_stable() {
        let r = router(&[1, 2, 3, 4, 5]);
        for m in 0..100u32 {
            let h = r.holders(m);
            assert_eq!(h.len(), 2);
            assert_ne!(h[0], h[1]);
            assert_eq!(h, r.holders(m), "stable routing");
        }
    }

    #[test]
    fn idle_routing_prefers_least_loaded_holder() {
        let mut r = router(&[1, 2, 3, 4]);
        let m_tmsi = 42;
        let holders = r.holders(m_tmsi);
        r.set_load(holders[0], 0.9);
        r.set_load(holders[1], 0.1);
        assert_eq!(r.route_idle_transition(m_tmsi), Some(holders[1]));
        // Flip the load: routing follows.
        r.set_load(holders[0], 0.05);
        assert_eq!(r.route_idle_transition(m_tmsi), Some(holders[0]));
    }

    #[test]
    fn active_routing_uses_embedded_vm() {
        let mut r = router(&[1, 2, 3]);
        assert_eq!(r.route_active(compose_id(2, 777)), 2);
        assert_eq!(r.route_active(compose_id(3, 1)), 3);
    }

    #[test]
    fn load_window_ewma() {
        let mut r = router(&[1]);
        for _ in 0..100 {
            r.record_handled(1);
        }
        r.close_load_window();
        let l1 = r.load_of(1);
        assert!(l1 > 0.0);
        // Quiet window decays the estimate.
        r.close_load_window();
        assert!(r.load_of(1) < l1);
    }

    #[test]
    fn removing_vm_moves_its_keys() {
        let mut r = router(&[1, 2, 3, 4]);
        // Find a key mastered by VM 2.
        let m_tmsi = (0..1000u32).find(|m| r.master(*m) == Some(2)).unwrap();
        r.remove_mmp(2);
        let new_master = r.master(m_tmsi).unwrap();
        assert_ne!(new_master, 2);
        assert!(r.mmps().contains(&new_master));
    }

    #[test]
    fn single_vm_pool_works() {
        let mut r = router(&[7]);
        assert_eq!(r.holders(1), vec![7]);
        assert_eq!(r.route_idle_transition(1), Some(7));
    }

    #[test]
    fn empty_pool_has_no_routes() {
        let mut r = router(&[]);
        assert!(r.assign_guti().is_none());
        assert!(r.route_idle_transition(0).is_none());
    }

    #[test]
    fn cached_routing_matches_uncached_holders() {
        // The cached hot path (route_idle_transition → holders_cached)
        // must agree with the allocating public walk, hit or miss.
        let mut r = router(&[1, 2, 3, 4, 5]);
        for m in 0..500u32 {
            let h = r.holders(m);
            let chosen = r.route_idle_transition(m).unwrap();
            assert!(h.contains(&chosen), "m_tmsi {m}");
            // Second lookup hits the cache; same answer.
            assert_eq!(r.route_idle_transition(m), Some(chosen));
        }
        // An epoch bump invalidates the holder cache but not the
        // position memo: the re-walks below must skip MD5 entirely.
        r.add_mmp(6);
        assert_eq!(r.positions.hits, 0, "route cache shields the memo");
        for m in 0..500u32 {
            r.route_idle_transition(m);
        }
        assert!(
            r.position_cache_hit_rate() > 0.4,
            "post-churn lookups must hit the position memo, rate {}",
            r.position_cache_hit_rate()
        );
    }

    #[test]
    fn route_cache_hit_miss_counters() {
        let mut r = router(&[1, 2, 3]);
        r.route_idle_transition(7); // cold: miss
        assert_eq!(r.stats.route_cache_misses, 1);
        assert_eq!(r.stats.route_cache_hits, 0);
        r.route_idle_transition(7); // warm: hit
        assert_eq!(r.stats.route_cache_hits, 1);
        let epoch_before = r.epoch();
        r.add_mmp(4); // epoch bump invalidates the slot
        assert_eq!(r.epoch(), epoch_before + 1);
        r.route_idle_transition(7);
        assert_eq!(r.stats.route_cache_misses, 2);
    }

    #[test]
    fn add_mmp_invalidates_cached_routes() {
        // Warm the cache, grow the pool, then every route must match a
        // freshly built router with the same membership — stale holder
        // sets may not leak across the epoch bump.
        let mut r = router(&[1, 2, 3]);
        for m in 0..300u32 {
            r.route_idle_transition(m);
        }
        r.add_mmp(4);
        let fresh = router(&[1, 2, 3, 4]);
        for m in 0..300u32 {
            assert_eq!(
                r.holders(m),
                fresh.holders(m),
                "m_tmsi {m}: stale holders after add_mmp"
            );
            let chosen = r.route_idle_transition(m).unwrap();
            assert!(
                fresh.holders(m).contains(&chosen),
                "m_tmsi {m}: routed to a non-holder after add_mmp"
            );
        }
    }

    #[test]
    fn remove_mmp_invalidates_cached_routes() {
        let mut r = router(&[1, 2, 3, 4]);
        for m in 0..300u32 {
            r.route_idle_transition(m);
        }
        r.remove_mmp(2);
        let fresh = router(&[1, 3, 4]);
        for m in 0..300u32 {
            // Note: `fresh` is built without VM 2 ever joining, while `r`
            // saw it come and go. Ring removal preserves survivors'
            // token positions except those salted against VM 2's, so
            // compare against r's own uncached walk, and check the
            // departed VM never appears.
            let uncached = r.holders(m);
            let chosen = r.route_idle_transition(m).unwrap();
            assert!(uncached.contains(&chosen), "m_tmsi {m}");
            assert_ne!(chosen, 2, "m_tmsi {m}: routed to removed VM");
            assert!(!uncached.contains(&2), "m_tmsi {m}: removed VM still held");
            assert!(
                fresh.mmps().contains(&chosen),
                "m_tmsi {m}: routed outside the surviving pool"
            );
        }
    }

    #[test]
    fn remove_mmp_resets_load_and_health_slots() {
        // Regression: a removed VM's dense slots must be cleared at
        // removal time — both the EWMA and the open window count, and
        // any health streaks — so nothing stale survives id reuse.
        let mut r = router(&[1, 2, 3]);
        r.set_load(2, 0.8);
        for _ in 0..50 {
            r.record_handled(2);
        }
        r.record_error(2); // sub-threshold error streak
        r.remove_mmp(2);
        assert_eq!(r.load_of(2), 0.0, "EWMA must reset on removal");
        assert!(!r.is_down(2));
        // Closing a window right after removal must not resurrect the
        // in-flight count into the EWMA.
        r.close_load_window();
        assert_eq!(r.load_of(2), 0.0, "window count leaked through removal");
        // Re-adding the id starts from scratch.
        r.add_mmp(2);
        assert_eq!(r.load_of(2), 0.0);
        assert_eq!(r.health.health(2).consecutive_errors, 0);
    }

    #[test]
    fn down_holder_is_skipped_for_idle_routing() {
        let mut r = router(&[1, 2, 3, 4, 5]);
        let m_tmsi = 42;
        let holders = r.holders(m_tmsi);
        // Make the usually-chosen holder the least loaded, then kill it.
        r.set_load(holders[0], 0.0);
        r.set_load(holders[1], 0.9);
        assert_eq!(r.route_idle_transition(m_tmsi), Some(holders[0]));
        assert!(r.mark_down(holders[0]));
        assert_eq!(
            r.route_idle_transition(m_tmsi),
            Some(holders[1]),
            "failover to the surviving replica holder"
        );
        assert_eq!(r.failover_stats.failovers, 1);
        // Recovery restores the original choice.
        r.mark_up(holders[0]);
        assert_eq!(r.route_idle_transition(m_tmsi), Some(holders[0]));
    }

    #[test]
    fn consecutive_errors_mark_down() {
        let mut r = router(&[1, 2, 3]);
        assert!(!r.record_error(2), "below threshold");
        assert!(!r.is_down(2));
        assert!(r.record_error(2), "threshold crossed");
        assert!(r.is_down(2));
        assert_eq!(r.failover_stats.vms_marked_down, 1);
    }

    #[test]
    fn all_holders_down_routes_none() {
        let mut r = router(&[1, 2]);
        r.mark_down(1);
        r.mark_down(2);
        assert_eq!(r.route_idle_transition(7), None);
        // New attaches also have nowhere to go.
        assert!(r.assign_guti().is_none());
    }

    #[test]
    fn admission_sheds_low_priority_only_under_overload() {
        use crate::failover::Priority;
        let mut r = router(&[1, 2, 3]);
        let m_tmsi = 9;
        // Cool holders: everything admitted.
        assert!(r.admit(m_tmsi, Priority::Low, 0.0));
        // Saturate every holder.
        for vm in [1, 2, 3] {
            r.set_load(vm, 0.99);
        }
        // High priority always passes.
        assert!(r.admit(m_tmsi, Priority::High, 0.0));
        // Low priority drains the bucket, then sheds.
        let burst = r.failover.shed.bucket_burst as usize;
        for _ in 0..burst {
            assert!(r.admit(m_tmsi, Priority::Low, 0.0));
        }
        assert!(!r.admit(m_tmsi, Priority::Low, 0.0), "bucket empty → shed");
        assert!(r.failover_stats.shed >= 1);
        // Tokens refill with time.
        assert!(r.admit(m_tmsi, Priority::Low, 10.0));
    }

    #[test]
    fn epoch_cache_consistent_through_churn_cycles() {
        // Repeated add/remove churn with interleaved routing: the cached
        // path must always agree with the uncached walk of the moment.
        let mut r = router(&[1, 2, 3]);
        for round in 0..6u32 {
            let vm = 10 + round;
            r.add_mmp(vm);
            for m in 0..100u32 {
                let chosen = r.route_idle_transition(m).unwrap();
                assert!(r.holders(m).contains(&chosen));
            }
            r.remove_mmp(vm);
            for m in 0..100u32 {
                let chosen = r.route_idle_transition(m).unwrap();
                assert!(r.holders(m).contains(&chosen));
                assert_ne!(chosen, vm);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Routing is deterministic and always lands on a live MMP, and
        /// the replica walk is stable under unrelated VM additions.
        #[test]
        fn routing_stability(n_vms in 1u32..20, m_tmsi in any::<u32>()) {
            let mut r = MlbRouter::new(5, 2, Plmn::test(), 0x8001, 1);
            for vm in 1..=n_vms {
                r.add_mmp(vm);
            }
            let holders = r.holders(m_tmsi);
            prop_assert_eq!(holders.len(), 2usize.min(n_vms as usize));
            for h in &holders {
                prop_assert!(r.mmps().contains(h));
            }
            // Adding a VM may only insert the new VM into the holder set.
            let before = holders;
            r.add_mmp(n_vms + 1);
            let after = r.holders(m_tmsi);
            for h in &after {
                prop_assert!(before.contains(h) || *h == n_vms + 1,
                    "holder churn beyond the added VM");
            }
        }

        /// Least-loaded choice always returns one of the holders.
        #[test]
        fn idle_route_is_a_holder(n_vms in 1u32..20, m_tmsi in any::<u32>(),
                                  loads in proptest::collection::vec(0.0..100.0f64, 20)) {
            let mut r = MlbRouter::new(5, 2, Plmn::test(), 0x8001, 1);
            for vm in 1..=n_vms {
                r.add_mmp(vm);
                r.set_load(vm, loads[(vm - 1) as usize]);
            }
            let chosen = r.route_idle_transition(m_tmsi).unwrap();
            prop_assert!(r.holders(m_tmsi).contains(&chosen));
        }

        /// The cached idle route equals the route computed from a cold
        /// cache with identical membership and loads.
        #[test]
        fn cached_route_equals_cold_route(n_vms in 2u32..16, m_tmsis in
                                          proptest::collection::vec(any::<u32>(), 1..40)) {
            let mut warm = MlbRouter::new(5, 2, Plmn::test(), 0x8001, 1);
            for vm in 1..=n_vms {
                warm.add_mmp(vm);
            }
            // Warm every key twice, then compare against a cold router.
            for m in &m_tmsis {
                warm.route_idle_transition(*m);
            }
            let mut cold = MlbRouter::new(5, 2, Plmn::test(), 0x8001, 1);
            for vm in 1..=n_vms {
                cold.add_mmp(vm);
            }
            for m in &m_tmsis {
                prop_assert_eq!(warm.route_idle_transition(*m),
                                cold.route_idle_transition(*m));
            }
        }
    }
}
