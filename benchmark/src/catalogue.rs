//! The benchmark's own list of workloads and metrics. `BENCHMARK.json`
//! must say the same; the benchmark refuses to run when they disagree,
//! so neither can drift from the other unnoticed.

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `scale_wired` child processes over sctplite/TCP loopback.
    Wire,
    /// In-process pump over `MlbState` / `MmpNode` / `EnbEmulator`.
    Engine,
    /// In-process pump over `ScaleDc`.
    Dc,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub ops_per_ue: usize,
    pub window: usize,
    /// Sessions per second this workload completes on the 2-core
    /// reference host; population = hint × `--seconds`, rounded to a
    /// multiple of 1,000, so one flag value always gives one population.
    pub rate_hint: f64,
    /// Whether the traced pass also runs the open-loop probe on this
    /// workload's deployment.
    pub open_loop_probe: bool,
}

impl Workload {
    pub fn population(&self, seconds: f64) -> usize {
        let n = (self.rate_hint * seconds / 1_000.0).round() as usize;
        n.max(1) * 1_000
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire_saturate",
        why: "Capacity of the real multi-process deployment at window 64: CPU is saturated, so sctplite framing, per-message syscalls, thread hand-offs and the single MLB router set the rate.",
        driver: Driver::Wire,
        ops_per_ue: 3,
        window: 64,
        rate_hint: 2_500.0,
        open_loop_probe: true,
    },
    Workload {
        name: "wire_lowconc",
        why: "Same deployment at window 4: UE-visible latency with little contending, a chain of socket crossings and wake-ups; batching that helps wire_saturate can add delay here.",
        driver: Driver::Wire,
        ops_per_ue: 3,
        window: 4,
        rate_hint: 870.0,
        open_loop_probe: false,
    },
    Workload {
        name: "engine_attach_storm",
        why: "IoT-style mass registration in process, every identity new: Milenage and KASME, S6a/S11 codecs, context inserts, MD5 ring position per new key, first replication; no routing memo hits, no sockets.",
        driver: Driver::Engine,
        ops_per_ue: 0,
        window: 64,
        rate_hint: 25_000.0,
        open_loop_probe: false,
    },
    Workload {
        name: "engine_idle_churn",
        why: "Steady state in process, attach is 1 of 33 procedures and 8,192 devices are live at once: idle routing, context lookup, EIA2, context serialization and replica import per Idle edge.",
        driver: Driver::Engine,
        ops_per_ue: 32,
        window: 8_192,
        rate_hint: 1_750.0,
        open_loop_probe: false,
    },
    Workload {
        name: "dc_mix",
        why: "The paper's reference cluster (ScaleDc: MlbRouter caches, in-line replication) on attach, release and Service Requests, guarding it while the engines are unified; no TAUs, which stall in ScaleDc.",
        driver: Driver::Dc,
        ops_per_ue: 3,
        window: 64,
        rate_hint: 17_000.0,
        open_loop_probe: false,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sessions_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_session",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_kb_per_ue",
        unit: "KiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "attach_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    ("sctplite.chunk.encode_ns", "ns", "lower"),
    ("sctplite.chunk.decode_ns", "ns", "lower"),
    ("sctplite.tokio.stream_ns_per_msg", "ns", "lower"),
    ("sctplite.tokio.rtt_p50_us", "us", "lower"),
    ("proc.mlb.cpu_us_per_session", "us", "lower"),
    ("proc.mmp.cpu_us_per_session", "us", "lower"),
    ("proc.gen.cpu_us_per_session", "us", "lower"),
    ("proc.mlb.sys_share", "share", "lower"),
    ("proc.mmp.sys_share", "share", "lower"),
    ("proc.mlb.ctxsw_per_msg", "count", "lower"),
    ("proc.mmp.ctxsw_per_msg", "count", "lower"),
    ("proc.mmp.rss_kb_per_ctx", "KiB", "lower"),
    ("proc.mlb.rss_kb", "KiB", "lower"),
    ("core.wire.mlb.busy_us_per_session", "us", "lower"),
    ("core.wire.mlb.calls_per_session", "count", "lower"),
    ("core.wire.mmp.busy_us_per_session", "us", "lower"),
    ("core.wire.mmp.calls_per_session", "count", "lower"),
    ("core.wire.mmp.attach_busy_us", "us", "lower"),
    ("core.wire.mmp.sr_busy_us", "us", "lower"),
    ("core.wire.mmp.tau_busy_us", "us", "lower"),
    ("core.wire.mmp.release_busy_us", "us", "lower"),
    ("core.wire.codec.encode_ns_per_msg", "ns", "lower"),
    ("core.wire.codec.decode_ns_per_msg", "ns", "lower"),
    ("core.wire.codec.bytes_per_session", "B", "lower"),
    ("core.wire.mlb.dropped", "count", "lower"),
    ("core.wire.mlb.proc_failures", "count", "lower"),
    ("core.shard.msgs_per_session", "count", "lower"),
    ("core.shard.replicas_per_idle", "count", "lower"),
    ("core.shard.replicate_bytes_per_idle", "B", "lower"),
    ("hashring.ring.primary_ns", "ns", "lower"),
    ("hashring.ring.replicas_r2_ns", "ns", "lower"),
    ("core.routeplane.route_new_attach_ns", "ns", "lower"),
    ("core.routeplane.route_idle_ns", "ns", "lower"),
    ("core.routeplane.route_idle_cold_ns", "ns", "lower"),
    ("core.mlb.route_idle_ns", "ns", "lower"),
    ("core.mlb.route_idle_cold_ns", "ns", "lower"),
    ("core.cluster.handle_us_per_session", "us", "lower"),
    ("core.cluster.calls_per_session", "count", "lower"),
    ("core.cluster.replications_per_idle", "count", "lower"),
    ("mme.engine.attach_us", "us", "lower"),
    ("mme.engine.sr_us", "us", "lower"),
    ("mme.engine.tau_us", "us", "lower"),
    ("mme.context.to_bytes_ns", "ns", "lower"),
    ("mme.context.from_bytes_ns", "ns", "lower"),
    ("mme.context.blob_bytes", "B", "lower"),
    ("crypto.milenage.vector_ns", "ns", "lower"),
    ("crypto.kdf.kasme_ns", "ns", "lower"),
    ("crypto.md5.digest_ns", "ns", "lower"),
    ("crypto.cmac.eia2_ns", "ns", "lower"),
    ("nas.emm.encode_ns", "ns", "lower"),
    ("nas.emm.decode_ns", "ns", "lower"),
    ("nas.security.protect_ns", "ns", "lower"),
    ("nas.security.unprotect_ns", "ns", "lower"),
    ("s1ap.pdu.encode_ns", "ns", "lower"),
    ("s1ap.pdu.decode_ns", "ns", "lower"),
    ("gtpc.msg.encode_ns", "ns", "lower"),
    ("gtpc.msg.decode_ns", "ns", "lower"),
    ("diameter.msg.encode_ns", "ns", "lower"),
    ("diameter.msg.decode_ns", "ns", "lower"),
    ("epc.emulator.busy_us_per_session", "us", "lower"),
    ("epc.hss.busy_us_per_session", "us", "lower"),
    ("epc.sgw.busy_us_per_session", "us", "lower"),
    ("epc.emulator.attach_p99_us", "us", "lower"),
    ("epc.emulator.sr_p50_us", "us", "lower"),
    ("epc.emulator.sr_p99_us", "us", "lower"),
    ("epc.emulator.openloop_attach_p50_us", "us", "lower"),
    ("epc.emulator.openloop_attach_p99_us", "us", "lower"),
    ("epc.emulator.openloop_lateness_p99_us", "us", "lower"),
    ("epc.emulator.openloop_shed_share", "share", "lower"),
    ("trace.unexplained_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.wire_wait_us_per_proc", "us", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// `BENCHMARK.json` as this catalogue would write it.
pub fn manifest(run_seconds: u64) -> Value {
    obj(vec![
        (
            "command",
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| obj(vec![("name", s(m.0)), ("unit", s(m.1)), ("better", s(m.2))]))
                    .collect(),
            ),
        ),
    ])
}

/// Pretty-print a manifest value (the vendored serde_json renders
/// only `Serialize` types, and `Value` is not one).
pub fn render(v: &Value, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        // Rows of the metric tables read best on one line each.
        Value::Object(fields) if indent >= 2 => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k:?}: {}", render(v, indent)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Value::Array(items) if items.iter().all(|i| matches!(i, Value::Str(_))) => {
            let inner: Vec<String> = items.iter().map(|i| render(i, indent)).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Array(items) => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", render(i, indent + 1)))
                .collect();
            format!("[\n{}\n{close}]", inner.join(",\n"))
        }
        Value::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{k:?}: {}", render(v, indent + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", inner.join(",\n"))
        }
    }
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Compare the file's workloads and metrics with the catalogue's.
/// `command`, `paths` and `run_seconds` belong to the driver and are
/// not the benchmark's to second-guess.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let file =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
    let ours = manifest(0);
    for key in ["workloads", "end_to_end", "per_layer"] {
        if field(&file, key) != field(&ours, key) {
            return Err(format!(
                "BENCHMARK.json and the benchmark's catalogue disagree on `{key}`; \
                 regenerate the file with `benchmark/run.sh --print-manifest`"
            ));
        }
    }
    Ok(())
}
