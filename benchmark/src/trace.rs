//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions (no edits inside `crates/`).
//!
//! The pumps are generic over [`Tracer`]: the untraced pass runs with
//! [`NoTrace`], whose methods compile to nothing, so end-to-end numbers
//! never carry tracing cost; the traced pass runs the same code with
//! [`SpanTrace`]. The pumps are flat loops, so layer spans never nest:
//! a layer's self time is the sum of its spans, and whatever the run's
//! wall time has beyond all of them is the pump's own (unexplained)
//! time. `parent` is the span whose output caused this one.

use scale_core::wire::WireMsg;
use std::io::Write;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    MlbOnEnb,
    MlbOnMmp,
    MmpHandle,
    EmuStart,
    EmuDownlink,
    EmuSettled,
    CpHandle,
    HssHandle,
    SgwHandle,
    AccessStart,
    AccessDownlink,
    WireEncode,
    WireDecode,
    LinkSend,
    LinkRecv,
}

pub const N_LAYERS: usize = 15;

impl Layer {
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::MlbOnEnb,
        Layer::MlbOnMmp,
        Layer::MmpHandle,
        Layer::EmuStart,
        Layer::EmuDownlink,
        Layer::EmuSettled,
        Layer::CpHandle,
        Layer::HssHandle,
        Layer::SgwHandle,
        Layer::AccessStart,
        Layer::AccessDownlink,
        Layer::WireEncode,
        Layer::WireDecode,
        Layer::LinkSend,
        Layer::LinkRecv,
    ];

    /// The function the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::MlbOnEnb => "core.wire.MlbState.on_enb",
            Layer::MlbOnMmp => "core.wire.MlbState.on_mmp",
            Layer::MmpHandle => "core.wire.MmpNode.handle",
            Layer::EmuStart => "epc.EnbEmulator.start",
            Layer::EmuDownlink => "epc.EnbEmulator.handle_downlink",
            Layer::EmuSettled => "epc.EnbEmulator.settled",
            Layer::CpHandle => "epc.ControlPlane.handle_event",
            Layer::HssHandle => "epc.Hss.handle",
            Layer::SgwHandle => "epc.Sgw.handle",
            Layer::AccessStart => "epc.Ue+EnodeB.start_procedure",
            Layer::AccessDownlink => "epc.EnodeB.handle_from_mme+Ue.handle_nas",
            Layer::WireEncode => "core.wire.WireMsg.encode",
            Layer::WireDecode => "core.wire.WireMsg.decode",
            Layer::LinkSend => "sctplite.SctpStream.send",
            Layer::LinkRecv => "sctplite.SctpStream.next_event",
        }
    }
}

/// UE-visible procedure a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Proc {
    #[default]
    None,
    Attach,
    Sr,
    Tau,
    Release,
}

pub const N_PROCS: usize = 5;

/// What a queued message carries so its span can name its session
/// (M-TMSI), its procedure and the span that caused it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tag {
    pub session: u32,
    pub proc: Proc,
    pub cause: u32,
}

pub trait Tracer {
    /// Whether spans are recorded (lets pumps skip tag bookkeeping).
    const ON: bool;
    /// Nanoseconds since the tracer was created.
    fn now(&self) -> u64;
    /// Close a span opened at `start`; returns its id.
    fn record(&mut self, layer: Layer, tag: Tag, start: u64) -> u32;
    /// The id the next recorded span will get, for work that queues
    /// its outputs before its own span closes.
    fn peek_id(&self) -> u32 {
        0
    }
    /// A message that crosses a process link in the wire deployment.
    fn wire(&mut self, _msg: &WireMsg) {}
}

pub struct NoTrace;

impl Tracer for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn record(&mut self, _layer: Layer, _tag: Tag, _start: u64) -> u32 {
        0
    }
}

/// Keeps every message that would cross a link (the recorded slice the
/// `WireMsg` codec twin replays).
#[derive(Default)]
pub struct WireRecorder {
    pub msgs: Vec<WireMsg>,
}

impl Tracer for WireRecorder {
    const ON: bool = false;
    fn now(&self) -> u64 {
        0
    }
    fn record(&mut self, _layer: Layer, _tag: Tag, _start: u64) -> u32 {
        0
    }
    fn wire(&mut self, msg: &WireMsg) {
        self.msgs.push(msg.clone());
    }
}

#[derive(Clone, Copy)]
struct SpanRec {
    layer: Layer,
    start: u64,
    end: u64,
    parent: u32,
    session: u32,
}

/// Spans written in full to the trace file; every span beyond this
/// still lands in the per-layer sums (a 400k-session run makes ~30M
/// spans, which do not fit a file anyone would open).
const KEEP_SPANS: usize = 100_000;

pub struct SpanTrace {
    epoch: Instant,
    kept: Vec<SpanRec>,
    next_id: u32,
    count: [[u64; N_PROCS]; N_LAYERS],
    busy_ns: [[u64; N_PROCS]; N_LAYERS],
    /// Cross-process `Replicate` blobs seen, and their bytes.
    pub replicate_msgs: u64,
    pub replicate_bytes: u64,
}

impl SpanTrace {
    pub fn new() -> Self {
        SpanTrace {
            epoch: Instant::now(),
            kept: Vec::with_capacity(KEEP_SPANS),
            next_id: 1,
            count: [[0; N_PROCS]; N_LAYERS],
            busy_ns: [[0; N_PROCS]; N_LAYERS],
            replicate_msgs: 0,
            replicate_bytes: 0,
        }
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.count[layer as usize].iter().sum()
    }

    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize].iter().sum()
    }

    pub fn busy_ns_proc(&self, layer: Layer, proc: Proc) -> u64 {
        self.busy_ns[layer as usize][proc as usize]
    }

    /// Sum of all layer self times.
    pub fn total_busy_ns(&self) -> u64 {
        Layer::ALL.iter().map(|&l| self.busy_ns(l)).sum()
    }

    /// Write the kept spans and the per-layer sums; `wall_ns` is the
    /// timed phase the spans were recorded in.
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        wall_ns: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"timed_wall_ns\":{wall_ns},\"spans_total\":{},\"spans_kept\":{},\n\"layers\":[",
            self.next_id - 1,
            self.kept.len()
        )?;
        for (i, &l) in Layer::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"calls\":{},\"self_ns\":{}}}",
                l.name(),
                self.calls(l),
                self.busy_ns(l)
            )?;
        }
        write!(
            w,
            "],\n\"unexplained_ns\":{},\n\"span_fields\":[\"id\",\"layer\",\"start_ns\",\"end_ns\",\"parent\",\"session\"],\n\"spans\":[",
            wall_ns.saturating_sub(self.total_busy_ns())
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n[{},{},{},{},{},{}]",
                i + 1,
                s.layer as u8,
                s.start,
                s.end,
                s.parent,
                s.session
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

impl Tracer for SpanTrace {
    const ON: bool = true;

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record(&mut self, layer: Layer, tag: Tag, start: u64) -> u32 {
        let end = self.now();
        let id = self.next_id;
        self.next_id += 1;
        self.count[layer as usize][tag.proc as usize] += 1;
        self.busy_ns[layer as usize][tag.proc as usize] += end - start;
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(SpanRec {
                layer,
                start,
                end,
                parent: tag.cause,
                session: tag.session,
            });
        }
        id
    }

    fn peek_id(&self) -> u32 {
        self.next_id
    }

    fn wire(&mut self, msg: &WireMsg) {
        if let WireMsg::Replicate { blob, .. } = msg {
            self.replicate_msgs += 1;
            self.replicate_bytes += blob.len() as u64;
        }
    }
}
