//! lint: hot-path
//!
//! The epoch-published shared routing plane: an immutable snapshot of
//! the consistent-hash ring plus a dense per-VM load table, readable
//! lock-free from any worker thread.
//!
//! The single-threaded [`MlbRouter`](crate::mlb::MlbRouter) owns its
//! ring and invalidates per-epoch caches by bumping a counter. This
//! module lifts that exact protocol across threads: membership/liveness
//! writers build a fresh [`RouteSnapshot`] carrying `epoch + 1` and
//! publish it through an [`arcswap::ArcSwap`] (vendored, safe-Rust) —
//! one `Release` store. Readers hold a [`RouteReader`] whose `load` is
//! an `Acquire` version check; they observe either the old snapshot or
//! the new one, never a torn mix, and an epoch-tagged snapshot can
//! never resurrect after a newer epoch was observed (the version chain
//! is monotonic). `scale-check` exhaustively explores this protocol
//! (`crates/check/tests/scenarios.rs`).
//!
//! Loads live *outside* the snapshot in a [`LoadTable`] of relaxed
//! atomics: load balancing wants fresh numbers, not epoch-consistent
//! ones, and re-publishing the ring on every routed message would
//! serialize the fleet on the writer mutex.

use arcswap::{ArcSwap, Cache};
use scale_hashring::{position_of, HashRing, PositionCache};
use scale_nas::{Guti, Plmn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mlb::VmId;

/// Max replication degree representable in the stack-allocated holder
/// arrays (mirrors the MLB route-cache bound).
pub const MAX_R: usize = 8;

/// Highest VM id representable in the liveness bitmap / load table.
pub const MAX_VMS: usize = 256;

/// One immutable, epoch-tagged view of cluster membership.
pub struct RouteSnapshot {
    /// Monotonic epoch; bumped by every publish, mirroring the MLB's
    /// per-epoch route-cache invalidation.
    pub epoch: u64,
    /// The consistent-hash ring over MMP VM ids.
    pub ring: HashRing<VmId>,
    /// Replication degree R.
    pub replication: usize,
    /// Liveness bitmap: bit v set ⇒ VM v is marked down.
    down: [u64; MAX_VMS / 64],
    /// GUTI composition parameters (one pool-wide identity).
    plmn: Plmn,
    mme_group_id: u16,
    mme_code: u8,
}

impl RouteSnapshot {
    /// Empty snapshot at epoch 1 (epoch 0 is the "never routed"
    /// sentinel, as in the MLB route cache).
    pub fn new(tokens: u32, replication: usize, plmn: Plmn, mme_group_id: u16, mme_code: u8) -> Self {
        RouteSnapshot {
            epoch: 1,
            ring: HashRing::new(tokens),
            replication,
            down: [0; MAX_VMS / 64],
            plmn,
            mme_group_id,
            mme_code,
        }
    }

    /// Is `vm` marked down in this snapshot?
    pub fn is_down(&self, vm: VmId) -> bool {
        let v = vm as usize;
        v < MAX_VMS && self.down[v / 64] & (1 << (v % 64)) != 0
    }

    /// Live members (ring members not marked down).
    pub fn live_vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.ring.nodes().iter().copied().filter(|&v| !self.is_down(v))
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

    /// Holder set at a precomputed ring position: master first, then
    /// ring successors, into a stack array.
    pub fn holders_at(&self, pos: u64) -> ([VmId; MAX_R], usize) {
        let mut holders = [0 as VmId; MAX_R];
        let mut n = 0usize;
        self.ring.replicas_each(pos, self.replication.min(MAX_R), |vm| {
            holders[n] = *vm;
            n += 1;
        });
        (holders, n)
    }

    /// Holder set of an M-TMSI (uncached; readers go through
    /// [`RouteReader`] for the memoized position).
    pub fn holders_of(&self, m_tmsi: u32) -> ([VmId; MAX_R], usize) {
        self.holders_at(position_of(&self.guti(m_tmsi).to_bytes()))
    }

    /// Derived snapshot with `vm` marked down, at the next epoch.
    fn with_down(&self, vm: VmId, down: bool) -> Self {
        let mut next = self.fork();
        let v = vm as usize;
        assert!(v < MAX_VMS, "vm id {vm} exceeds liveness bitmap");
        if down {
            next.down[v / 64] |= 1 << (v % 64);
        } else {
            next.down[v / 64] &= !(1 << (v % 64));
        }
        next
    }

    /// Clone the membership into an epoch+1 snapshot.
    fn fork(&self) -> Self {
        RouteSnapshot {
            epoch: self.epoch + 1,
            ring: self.ring.clone(), // lint: allow(alloc): writer-side fork, never on the read path
            replication: self.replication,
            down: self.down,
            plmn: self.plmn,
            mme_group_id: self.mme_group_id,
            mme_code: self.mme_code,
        }
    }
}

/// Dense per-VM load table: window counts as relaxed atomics, shared
/// by every thread and surviving snapshot publication (balancing wants
/// the freshest numbers, not epoch-consistent ones).
pub struct LoadTable {
    cells: Vec<AtomicU64>,
}

impl LoadTable {
    fn new() -> Self {
        let mut cells = Vec::with_capacity(MAX_VMS); // lint: allow(alloc): one-time table construction
        cells.resize_with(MAX_VMS, || AtomicU64::new(0));
        LoadTable { cells }
    }

    /// Charge one unit of work to `vm`.
    pub fn charge(&self, vm: VmId) {
        if let Some(c) = self.cells.get(vm as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Discharge one unit (procedure completed).
    pub fn discharge(&self, vm: VmId) {
        if let Some(c) = self.cells.get(vm as usize) {
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Current load of `vm`.
    pub fn load(&self, vm: VmId) -> u64 {
        self.cells
            .get(vm as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The shared routing plane: epoch-published snapshot + load table.
pub struct RoutePlane {
    snap: ArcSwap<RouteSnapshot>,
    /// Per-VM load, independent of snapshot epochs.
    pub loads: LoadTable,
}

impl RoutePlane {
    /// Build a plane over an initial member set.
    pub fn new(snapshot: RouteSnapshot) -> Self {
        RoutePlane {
            snap: ArcSwap::from_pointee(snapshot),
            loads: LoadTable::new(),
        }
    }

    /// Current snapshot (slow path — readers use [`RouteReader`]).
    pub fn snapshot(&self) -> Arc<RouteSnapshot> {
        self.snap.load_full()
    }

    /// Create a per-thread reader.
    pub fn reader(self: &Arc<Self>) -> RouteReader {
        RouteReader {
            plane: Arc::clone(self),
            cache: self.snap.cache(),
            positions: PositionCache::new(4096),
        }
    }

    /// Publish a derived snapshot. `build` receives the current one and
    /// returns its successor; the epoch must strictly increase.
    pub fn publish(&self, build: impl FnOnce(&RouteSnapshot) -> RouteSnapshot) {
        let cur = self.snap.load_full();
        let next = build(&cur);
        assert!(next.epoch > cur.epoch, "snapshot epoch must advance");
        #[cfg(feature = "verify")]
        next.ring.check_invariants();
        self.snap.store(Arc::new(next));
    }

    /// Put back `snap`, a snapshot this plane published before, as the
    /// current one, whatever its epoch. Nothing in the deployment does
    /// this: it is the stale-publish bug the protocol model checker
    /// seeds, which only its epoch-monotonicity invariant can see.
    pub fn republish(&self, snap: Arc<RouteSnapshot>) {
        self.snap.store(snap);
    }

    /// Add a VM to the ring (epoch bump).
    pub fn add_vm(&self, vm: VmId) {
        self.publish(|s| {
            let mut next = s.fork();
            next.ring.add_node(vm);
            next
        });
    }

    /// Remove a VM from the ring (epoch bump). Routing decisions taken
    /// against earlier epochs may still name it; shards treat messages
    /// for an unknown VM as routing errors, not panics.
    pub fn remove_vm(&self, vm: VmId) {
        self.publish(|s| {
            let mut next = s.with_down(vm, false);
            next.ring.remove_node(&vm);
            next
        });
    }

    /// Mark a VM down (suspected failed) without ring surgery — the
    /// replica-failover edge from §4.6.
    pub fn mark_down(&self, vm: VmId) {
        self.publish(|s| s.with_down(vm, true));
    }

    /// Clear a VM's down mark (recovered / repaired).
    pub fn mark_up(&self, vm: VmId) {
        self.publish(|s| s.with_down(vm, false));
    }
}

/// A per-thread lock-free reader over a [`RoutePlane`]: one `Acquire`
/// version check per routing decision, plus a memoized ring-position
/// cache (positions depend only on key bytes, so entries survive
/// membership churn — same reasoning as the MLB's `PositionCache`).
pub struct RouteReader {
    plane: Arc<RoutePlane>,
    cache: Cache<RouteSnapshot>,
    positions: PositionCache,
}

impl RouteReader {
    /// The current snapshot (lock-free).
    pub fn snapshot(&mut self) -> &Arc<RouteSnapshot> {
        self.cache.load(&self.plane.snap)
    }

    /// Current routing epoch.
    pub fn epoch(&mut self) -> u64 {
        self.snapshot().epoch
    }

    /// Ring position of an M-TMSI, memoized.
    fn position(&mut self, m_tmsi: u32) -> u64 {
        let snap = self.cache.load(&self.plane.snap);
        let guti = snap.guti(m_tmsi);
        self.positions
            .position_with(u64::from(m_tmsi), || position_of(&guti.to_bytes()))
    }

    /// Holder set of an M-TMSI under the current snapshot: master
    /// first, then ring successors.
    pub fn holders(&mut self, m_tmsi: u32) -> ([VmId; MAX_R], usize) {
        let pos = self.position(m_tmsi);
        self.cache.load(&self.plane.snap).holders_at(pos)
    }

    /// Route a fresh attach: the first *live* holder (a down master's
    /// successor stands in until the ring is repaired).
    ///
    /// Every routing decision reads exactly one snapshot: the position
    /// is epoch-independent (a pure function of the key bytes), and
    /// `holders_at` + `is_down` are evaluated against the same load.
    /// Filtering one epoch's holder set with another epoch's liveness
    /// bitmap — the shape this method had before the model checker
    /// audit — can route to a VM that the newer epoch already retired
    /// (`remove_vm` clears the down bit before ring surgery).
    pub fn route_new_attach(&mut self, m_tmsi: u32) -> Option<VmId> {
        let pos = self.position(m_tmsi);
        let snap = self.cache.load(&self.plane.snap);
        let (holders, n) = snap.holders_at(pos);
        holders[..n].iter().copied().find(|&vm| !snap.is_down(vm))
    }

    /// Route an Idle→Active transition: least-loaded live holder (the
    /// fine-grained balancing of §4.6); ties keep the later holder,
    /// matching `MlbRouter::route_idle_transition`. Holder set and
    /// liveness come from one snapshot load (see
    /// [`Self::route_new_attach`] for why that is load-bearing).
    pub fn route_idle(&mut self, m_tmsi: u32) -> Option<VmId> {
        let pos = self.position(m_tmsi);
        let snap = self.cache.load(&self.plane.snap);
        let (holders, n) = snap.holders_at(pos);
        let mut best: Option<(u64, VmId)> = None;
        for &vm in &holders[..n] {
            if snap.is_down(vm) {
                continue;
            }
            let load = self.plane.loads.load(vm);
            if best.is_none_or(|(b, _)| load <= b) {
                best = Some((load, vm));
            }
        }
        best.map(|(_, vm)| vm)
    }

    /// Route a Connected-mode uplink: to the VM that minted its
    /// MME-UE-S1AP-ID (§5: the id carries the serving MMP), if that VM
    /// is a live ring member.
    pub fn route_active(&mut self, mme_ue_id: u32) -> Option<VmId> {
        let vm = VmId::from(scale_mme::vm_of_id(mme_ue_id));
        let snap = self.cache.load(&self.plane.snap);
        (!snap.is_down(vm) && snap.ring.nodes().contains(&vm)).then_some(vm)
    }

    /// Charge one routed procedure to `vm` in the shared load table.
    pub fn charge(&self, vm: VmId) {
        self.plane.loads.charge(vm);
    }

    /// Discharge one completed procedure from `vm`.
    pub fn discharge(&self, vm: VmId) {
        self.plane.loads.discharge(vm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(vms: &[VmId]) -> Arc<RoutePlane> {
        let mut snap = RouteSnapshot::new(64, 3, Plmn::test(), 0x8001, 1);
        for &vm in vms {
            snap.ring.add_node(vm);
        }
        Arc::new(RoutePlane::new(snap))
    }

    #[test]
    fn reader_sees_published_epochs_in_order() {
        let p = plane(&[1, 2, 3]);
        let mut r = p.reader();
        assert_eq!(r.epoch(), 1);
        p.mark_down(2);
        assert_eq!(r.epoch(), 2);
        assert!(r.snapshot().is_down(2));
        p.mark_up(2);
        assert_eq!(r.epoch(), 3);
        assert!(!r.snapshot().is_down(2));
    }

    #[test]
    fn holders_match_single_threaded_router_semantics() {
        let p = plane(&[1, 2, 3, 4]);
        let mut r = p.reader();
        for m_tmsi in 0..200u32 {
            let (holders, n) = r.holders(m_tmsi);
            assert_eq!(n, 3);
            // Master-first: position 0 is the ring primary.
            let snap = p.snapshot();
            let primary = *snap.ring.primary(&snap.guti(m_tmsi).to_bytes()).unwrap();
            assert_eq!(holders[0], primary);
            // Distinct VMs.
            let mut set: Vec<_> = holders[..n].to_vec();
            set.dedup();
            assert_eq!(set.len(), n);
        }
    }

    #[test]
    fn attach_skips_down_master() {
        let p = plane(&[1, 2, 3]);
        let mut r = p.reader();
        let m_tmsi = (0..)
            .find(|&m| r.holders(m).0[0] == 1)
            .expect("some key lands on VM 1");
        p.mark_down(1);
        let vm = r.route_new_attach(m_tmsi).unwrap();
        assert_ne!(vm, 1, "down master must be skipped");
        let (holders, n) = r.holders(m_tmsi);
        assert!(holders[..n].contains(&vm));
    }

    #[test]
    fn idle_routing_prefers_least_loaded_live_holder() {
        let p = plane(&[1, 2, 3]);
        let mut r = p.reader();
        let (holders, n) = r.holders(7);
        assert_eq!(n, 3);
        // Pile load on every holder but the middle one.
        for &vm in &[holders[0], holders[2]] {
            for _ in 0..10 {
                p.loads.charge(vm);
            }
        }
        assert_eq!(r.route_idle(7), Some(holders[1]));
        // Down-mark the winner: routing falls to the next-least-loaded.
        p.mark_down(holders[1]);
        let next = r.route_idle(7).unwrap();
        assert_ne!(next, holders[1]);
        // All holders down → None.
        p.mark_down(holders[0]);
        p.mark_down(holders[2]);
        assert_eq!(r.route_idle(7), None);
    }

    #[test]
    fn concurrent_readers_observe_consistent_snapshots() {
        let p = plane(&[1, 2, 3, 4, 5, 6, 7, 8]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut r = p.reader();
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for m in 0..20_000u32 {
                        let snap = r.snapshot();
                        let epoch = snap.epoch;
                        let len = snap.ring.len();
                        // Epochs are monotonic per reader, and each
                        // snapshot is internally consistent: membership
                        // count matches the epoch's parity of ops below.
                        assert!(epoch >= last_epoch);
                        assert!((7..=8).contains(&len));
                        assert_eq!(len == 7, snap.ring.nodes().binary_search(&8).is_err());
                        last_epoch = epoch;
                        let _ = r.route_idle(m);
                    }
                });
            }
            for _ in 0..200 {
                p.remove_vm(8);
                p.add_vm(8);
            }
        });
    }

    #[test]
    fn routing_never_names_a_retired_vm() {
        // `remove_vm` clears the down bit *and* performs the ring
        // surgery inside one published epoch; a routing decision that
        // mixes two snapshot loads could observe the retired VM in the
        // old holder set while reading the new (cleared) liveness bit.
        // Decisions are single-snapshot now, so the retired VM can
        // never be named no matter where a publish lands.
        let p = plane(&[1, 2, 3]);
        let mut r = p.reader();
        p.mark_down(2);
        p.remove_vm(2);
        for m in 0..200u32 {
            if let Some(vm) = r.route_new_attach(m) {
                assert_ne!(vm, 2, "attach routed to retired VM");
            }
            if let Some(vm) = r.route_idle(m) {
                assert_ne!(vm, 2, "idle transition routed to retired VM");
            }
        }
    }

    #[test]
    fn load_table_charges_and_discharges() {
        let p = plane(&[1]);
        p.loads.charge(1);
        p.loads.charge(1);
        p.loads.discharge(1);
        assert_eq!(p.loads.load(1), 1);
        // Out-of-range VMs are ignored, not panics.
        p.loads.charge(9999);
        assert_eq!(p.loads.load(9999), 0);
    }
}
