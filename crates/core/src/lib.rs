//! # scale-core
//!
//! SCALE itself — the paper's contribution (CoNEXT 2015):
//!
//! * [`mlb`] — the MME Load Balancer: standards-facing proxy that routes
//!   by consistent hashing + embedded VM ids, with no per-device table;
//! * [`cluster`] — a complete SCALE DC ([`ScaleDc`]): elastic MMP fleet,
//!   Idle-edge state replication, epoch provisioning and rebalancing;
//! * [`failover`] — failure detection, bounded retry with backoff, and
//!   overload-shedding policy (§4.6 "Failure resilience");
//! * [`obs`] — the observability bridge: registers the cluster's
//!   counters/latency histograms in a shared [`scale_obs::Registry`];
//! * [`provision`](mod@provision) — Eq 1–3: VM provisioning, β, access-aware allocation;
//! * [`autoscale`] — the closed-loop controller: snapshot-driven
//!   observations through the `scale-analysis` Jackson model into
//!   [`ScaleDc::apply_provisioning`](cluster::ScaleDc::apply_provisioning),
//!   with hysteresis, step limits and fleet bounds;
//! * [`geo`] — geo-multiplexing budgets and the delay-weighted remote-DC
//!   selector (§4.5.2);
//! * [`routeplane`] — the lock-free shared routing plane: an
//!   epoch-published [`RouteSnapshot`] behind the vendored arc-swap,
//!   with per-thread cached readers and a relaxed-atomic load table;
//! * [`wire`] — the deployment's sans-IO core: the [`WireMsg`]
//!   protocol, the MLB front ([`MlbState`]) and the MMP worker
//!   ([`MmpNode`], which owns its VMs' engines outright), driven over
//!   `sctplite` links, worker threads or an in-process shuttle;
//! * [`baseline`] — the legacy 3GPP pool comparator (§3.1).
//!
//! `ScaleDc` and `LegacyPool` both implement `scale_epc::ControlPlane`,
//! so the same eNodeB/UE/HSS/S-GW harness drives either system with
//! byte-identical signaling — the methodological core of every
//! comparison experiment.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod autoscale;
pub mod baseline;
pub mod cluster;
pub mod failover;
pub mod geo;
pub mod mlb;
pub mod obs;
pub mod provision;
pub mod routeplane;
pub mod wire;

pub use autoscale::{
    AutoscaleConfig, Autoscaler, Decision, EpochObservation, ScaleAction, CLUSTER_CLASS_COUNTERS,
};
pub use baseline::{LegacyPool, PoolMember, PoolStats};
pub use cluster::{DcStats, EpochReport, RepairReport, ScaleConfig, ScaleDc};
pub use failover::{
    BackoffPolicy, FailoverConfig, FailoverStats, HealthConfig, HealthTracker, Priority,
    ShedPolicy, TokenBucket, VmHealth,
};
pub use geo::{DcBudget, DcId, DelayMatrix, GeoSelector};
pub use mlb::{MlbRouter, MlbStats, VmId, VmLoad};
pub use obs::{DcObserver, ProcClass, WireLinkObserver};
pub use provision::{
    beta, provision, replica_probability, Allocation, AllocationPolicy, LoadEstimator,
    Provisioning, VmCapacity,
};
pub use routeplane::{LoadTable, RoutePlane, RouteReader, RouteSnapshot, MAX_R};
pub use wire::{
    Dest, Forward, MlbOut, MlbState, MlbWireStats, MmpNode, Relay, ShardStatsSnapshot, WireMsg,
    WireRole, WireTopo, WireView,
};
