//! Observability bridge: maps the cluster's internal counters onto the
//! shared [`scale_obs`] registry and times procedures by type.
//!
//! The routing hot path stays plain-`u64` (see `MlbStats`); this module
//! is the off-path publication side — [`DcObserver`] holds the
//! registered metric handles and `ScaleDc::publish_metrics` copies the
//! internal counters into them at snapshot points (epoch end, repair,
//! explicit export). Procedure latency is the exception: it is recorded
//! live, per handled event, because cluster events are microsecond-
//! scale work where two relaxed atomics are noise.
//!
//! Metric names follow the `scale_<component>_<what>[_<unit|total>]`
//! scheme documented in DESIGN.md §8.

use crate::wire::ShardStatsSnapshot;
use scale_mme::Incoming;
use scale_nas::{EmmMessage, MobileId};
use scale_obs::{Counter, Gauge, Histogram, Registry};
use scale_s1ap::S1apPdu;
use std::sync::Arc;

/// The paper's procedure taxonomy (§4.3/§4.6) as seen at the MLB:
/// which per-procedure latency histogram an inbound event lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcClass {
    /// Initial or GUTI re-attach (§4.3 case 1).
    Attach,
    /// Idle→Active service request (§4.3 case 2).
    ServiceRequest,
    /// Tracking-area update, including protected Idle-mode initial NAS.
    Tau,
    /// S1 release — the Active→Idle transition that triggers replication.
    S1Release,
    /// Everything else (Active-mode transport, paging answers, S11/S6a).
    Other,
}

impl ProcClass {
    /// Classify an inbound event. Only called when observability is
    /// attached; the NAS peek mirrors the router's own classification.
    pub fn of(ev: &Incoming) -> ProcClass {
        match ev {
            Incoming::S1ap { pdu, .. } => match pdu {
                S1apPdu::InitialUeMessage { nas_pdu, .. } => {
                    if scale_nas::is_protected(nas_pdu) {
                        // Protected Idle-mode initial NAS is TAU/detach.
                        return ProcClass::Tau;
                    }
                    match EmmMessage::decode(nas_pdu.clone()) {
                        Ok(EmmMessage::AttachRequest { .. }) => ProcClass::Attach,
                        Ok(EmmMessage::ServiceRequest { .. }) => ProcClass::ServiceRequest,
                        Ok(EmmMessage::TauRequest { .. }) => ProcClass::Tau,
                        Ok(EmmMessage::DetachRequest {
                            id: MobileId::Guti(_),
                            ..
                        }) => ProcClass::Other,
                        // Any other (or undecodable) initial NAS also
                        // lands in Other — but spell the Ok/Err split
                        // out so this stays a conscious decision.
                        Ok(_) | Err(_) => ProcClass::Other,
                    }
                }
                S1apPdu::UeContextReleaseRequest { .. }
                | S1apPdu::UeContextReleaseComplete { .. } => ProcClass::S1Release,
                // NAS riding uplink transport (auth answers, attach
                // complete) belongs to the procedure that started it;
                // without per-UE tracking it lands in Other.
                _ => ProcClass::Other,
            },
            Incoming::S11(_) | Incoming::S6a(_) => ProcClass::Other,
        }
    }
}

/// Registered metric handles for one `ScaleDc`.
///
/// Created by `ScaleDc::attach_observability`; all handles live in the
/// given registry, so several components (or a whole sweep) can share
/// one registry and one exporter.
pub struct DcObserver {
    registry: Arc<Registry>,
    // Per-procedure latency (µs), recorded live around `handle`.
    pub(crate) attach_latency: Arc<Histogram>,
    pub(crate) service_request_latency: Arc<Histogram>,
    pub(crate) tau_latency: Arc<Histogram>,
    pub(crate) s1_release_latency: Arc<Histogram>,
    pub(crate) other_latency: Arc<Histogram>,
    // Cluster counters (published off-path from `DcStats`).
    pub(crate) messages: Arc<Counter>,
    pub(crate) replications: Arc<Counter>,
    pub(crate) replication_bytes: Arc<Counter>,
    pub(crate) forwards: Arc<Counter>,
    pub(crate) transfers: Arc<Counter>,
    pub(crate) epochs: Arc<Counter>,
    pub(crate) crashes: Arc<Counter>,
    // Ring repair (§4.6), accumulated per repair pass.
    pub(crate) repair_passes: Arc<Counter>,
    pub(crate) repair_vms: Arc<Counter>,
    pub(crate) repair_ranges: Arc<Counter>,
    pub(crate) repair_copies: Arc<Counter>,
    // MLB routing counters (published off-path from `MlbStats`).
    pub(crate) new_attaches: Arc<Counter>,
    pub(crate) idle_routes: Arc<Counter>,
    pub(crate) active_routes: Arc<Counter>,
    pub(crate) lookups: Arc<Counter>,
    pub(crate) route_cache_hits: Arc<Counter>,
    pub(crate) route_cache_misses: Arc<Counter>,
    pub(crate) position_hits: Arc<Counter>,
    pub(crate) position_misses: Arc<Counter>,
    pub(crate) epoch_bumps: Arc<Counter>,
    // Failover counters (published off-path from `FailoverStats`).
    pub(crate) failovers: Arc<Counter>,
    pub(crate) promotions: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) lost: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) vms_marked_down: Arc<Counter>,
    // MMP engine counters (published off-path, summed over live VMs).
    pub(crate) attaches_completed: Arc<Counter>,
    pub(crate) service_requests: Arc<Counter>,
    pub(crate) taus: Arc<Counter>,
    pub(crate) pagings: Arc<Counter>,
    pub(crate) detaches: Arc<Counter>,
    pub(crate) rejects: Arc<Counter>,
}

impl DcObserver {
    /// Register every cluster metric in `registry` and return the
    /// handle bundle. Registration is idempotent, so two DCs sharing a
    /// registry share the counters too (their publishes overwrite each
    /// other — give each DC its own registry unless that is intended).
    pub fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        DcObserver {
            attach_latency: r.histogram(
                "scale_mmp_attach_latency_us",
                "End-to-end attach procedure latency through the cluster",
            ),
            service_request_latency: r.histogram(
                "scale_mmp_service_request_latency_us",
                "Idle-to-Active service-request latency through the cluster",
            ),
            tau_latency: r.histogram(
                "scale_mmp_tau_latency_us",
                "Tracking-area-update latency through the cluster",
            ),
            s1_release_latency: r.histogram(
                "scale_mmp_s1_release_latency_us",
                "S1 release (Active-to-Idle) latency, including replica refresh",
            ),
            other_latency: r.histogram(
                "scale_mmp_other_latency_us",
                "Latency of uplink transport, S11 and S6a events",
            ),
            messages: r.counter("scale_dc_messages_total", "Events processed by the cluster"),
            replications: r.counter(
                "scale_dc_replications_total",
                "State copies pushed to replica holders",
            ),
            replication_bytes: r.counter(
                "scale_dc_replication_bytes_total",
                "Serialized state bytes moved by replication and repair",
            ),
            forwards: r.counter(
                "scale_dc_forwards_total",
                "Requests forwarded because the routed VM lacked the state",
            ),
            transfers: r.counter(
                "scale_dc_transfers_total",
                "States moved during epoch rebalancing",
            ),
            epochs: r.counter("scale_dc_epochs_total", "Provisioning epochs run"),
            crashes: r.counter("scale_dc_crashes_total", "MMP VMs lost to injected crashes"),
            repair_passes: r.counter("scale_dc_repair_passes_total", "Ring repair passes run"),
            repair_vms: r.counter(
                "scale_dc_repair_vms_total",
                "Crashed VMs taken off the ring by repair",
            ),
            repair_ranges: r.counter(
                "scale_dc_repair_ranges_total",
                "Devices found under-replicated by repair passes",
            ),
            repair_copies: r.counter(
                "scale_dc_repair_copies_total",
                "Replica copies restored by repair passes",
            ),
            new_attaches: r.counter(
                "scale_mlb_new_attaches_total",
                "Fresh GUTIs assigned to unregistered devices",
            ),
            idle_routes: r.counter(
                "scale_mlb_idle_routes_total",
                "Idle-to-Active transitions routed by replica holder set",
            ),
            active_routes: r.counter(
                "scale_mlb_active_routes_total",
                "Active-mode messages routed by embedded VM id",
            ),
            lookups: r.counter("scale_mlb_lookups_total", "Holder-set lookups performed"),
            route_cache_hits: r.counter(
                "scale_mlb_route_cache_hits_total",
                "Holder lookups served from the per-epoch route cache",
            ),
            route_cache_misses: r.counter(
                "scale_mlb_route_cache_misses_total",
                "Holder lookups that walked the ring",
            ),
            position_hits: r.counter(
                "scale_mlb_position_cache_hits_total",
                "Ring-position lookups served from the position memo",
            ),
            position_misses: r.counter(
                "scale_mlb_position_cache_misses_total",
                "Ring-position lookups that ran MD5",
            ),
            epoch_bumps: r.counter(
                "scale_mlb_epoch_bumps_total",
                "Routing-epoch bumps (ring churn and liveness flips)",
            ),
            failovers: r.counter(
                "scale_mlb_failovers_total",
                "Requests redirected from a down holder to a live replica",
            ),
            promotions: r.counter(
                "scale_mlb_promotions_total",
                "Active-mode state promotions to a surviving replica (section 4.6)",
            ),
            retries: r.counter(
                "scale_mlb_retries_total",
                "Backoff retries performed for failed requests",
            ),
            lost: r.counter(
                "scale_mlb_lost_total",
                "Requests lost because no replica could be promoted",
            ),
            shed: r.counter(
                "scale_mlb_shed_total",
                "Low-priority requests shed under overload",
            ),
            vms_marked_down: r.counter(
                "scale_mlb_vms_marked_down_total",
                "VMs declared down by heartbeat/error detection",
            ),
            attaches_completed: r.counter(
                "scale_mmp_attaches_completed_total",
                "Attach procedures completed by MMP engines",
            ),
            service_requests: r.counter(
                "scale_mmp_service_requests_total",
                "Service requests completed by MMP engines",
            ),
            taus: r.counter("scale_mmp_taus_total", "TAUs completed by MMP engines"),
            pagings: r.counter("scale_mmp_pagings_total", "Pagings issued by MMP engines"),
            detaches: r.counter("scale_mmp_detaches_total", "Detaches completed by MMP engines"),
            rejects: r.counter("scale_mmp_rejects_total", "NAS rejects sent by MMP engines"),
            registry,
        }
    }

    /// The registry this observer registers into — used for dynamic
    /// per-VM gauges (`scale_mlb_vm<id>_load`).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The latency histogram for a procedure class.
    pub fn latency_of(&self, class: ProcClass) -> &Histogram {
        match class {
            ProcClass::Attach => &self.attach_latency,
            ProcClass::ServiceRequest => &self.service_request_latency,
            ProcClass::Tau => &self.tau_latency,
            ProcClass::S1Release => &self.s1_release_latency,
            ProcClass::Other => &self.other_latency,
        }
    }

    /// Publish fleet-wide totals summed over MMP workers — the
    /// multi-core counterpart of `ScaleDc::publish_metrics`. The
    /// registry side uses `Counter::set` (overwrite), not `add`, so
    /// publishing the same totals twice never sums them.
    pub fn publish_shards(&self, total: &ShardStatsSnapshot) {
        self.messages.set(total.messages);
        self.attaches_completed.set(total.attaches);
        self.service_requests.set(total.service_requests);
        self.taus.set(total.taus);
        self.detaches.set(total.detaches);
        self.rejects.set(total.rejects);
        // Every replica blob lands in exactly one `replicas_imported`
        // (cross-worker blobs also tick the sender's `replicas_sent`,
        // which is the *subset* that crossed a boundary, not extra
        // copies — adding it would double-count).
        self.replications.set(total.replicas_imported);
    }

    /// Register (or look up) the load gauge of one VM.
    pub fn vm_load_gauge(&self, vm: u32) -> Arc<Gauge> {
        self.registry.gauge(
            &format!("scale_mlb_vm{vm}_load"),
            "EWMA load of one MMP VM as tracked by the MLB",
        )
    }
}

/// Registered metric handles for the wire-level MLB front process
/// (DESIGN.md §14): link-layer counters the socket router publishes
/// off-path from [`MlbWireStats`](crate::wire::MlbWireStats), exported
/// through [`scale_obs::report_kv`] on the stdout report protocol.
pub struct WireLinkObserver {
    registry: Arc<Registry>,
    routed_attaches: Arc<Counter>,
    routed_idle: Arc<Counter>,
    forwarded_uplinks: Arc<Counter>,
    settled_relayed: Arc<Counter>,
    proc_failures: Arc<Counter>,
    dropped: Arc<Counter>,
    errors: Arc<Counter>,
    reconnects: Arc<Counter>,
    links_live: Arc<Gauge>,
}

impl WireLinkObserver {
    /// Register the wire-link metrics in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        WireLinkObserver {
            routed_attaches: r.counter(
                "scale_wire_routed_attaches_total",
                "Fresh attaches routed over sctplite links",
            ),
            routed_idle: r.counter(
                "scale_wire_routed_idle_total",
                "Idle-to-Active transitions routed over sctplite links",
            ),
            forwarded_uplinks: r.counter(
                "scale_wire_forwarded_uplinks_total",
                "Connected-mode uplinks forwarded eNB-to-MMP by their S1AP id",
            ),
            settled_relayed: r.counter(
                "scale_wire_settled_relayed_total",
                "Procedure-settled notifications relayed MMP-to-eNB",
            ),
            proc_failures: r.counter(
                "scale_wire_proc_failures_total",
                "In-flight procedures failed back to their eNB on link loss",
            ),
            dropped: r.counter(
                "scale_wire_dropped_total",
                "Frames dropped for want of a live link or a live VM in their S1AP id",
            ),
            errors: r.counter(
                "scale_wire_errors_total",
                "Router-side wire errors (no live holder, codec faults)",
            ),
            reconnects: r.counter(
                "scale_wire_reconnects_total",
                "MMP links re-established after a death",
            ),
            links_live: r.gauge(
                "scale_wire_links_live",
                "Live sctplite links (eNB + MMP) at publish time",
            ),
            registry,
        }
    }

    /// The registry this observer registers into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Publish the router's counters (overwrite semantics, same
    /// rationale as [`DcObserver::publish_shards`]).
    pub fn publish(&self, stats: &crate::wire::MlbWireStats, reconnects: u64, links_live: u64) {
        self.routed_attaches.set(stats.routed_attaches);
        self.routed_idle.set(stats.routed_idle);
        self.forwarded_uplinks.set(stats.forwarded_uplinks);
        self.settled_relayed.set(stats.settled_relayed);
        self.proc_failures.set(stats.proc_failures);
        self.dropped.set(stats.dropped);
        self.errors.set(stats.errors);
        self.reconnects.set(reconnects);
        self.links_live.set(links_live as f64);
    }
}
