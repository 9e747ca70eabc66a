//! The wire deployment: one MLB and two MMP `scale_wired` child
//! processes over sctplite/TCP loopback, with this process as the only
//! eNodeB — one cell, one association, one thread. The drive loop is
//! `scale_sim::wire_run::run_enb`'s, on the unsplit `SctpStream` so
//! that no reader or writer thread competes with the children for the
//! host's two cores.

use crate::engine::{uplink_tag, Latencies, Shape, N_MMPS, REPLICATION, RING_TOKENS, TOTAL_VMS};
use crate::host::{ProcSample, Watchdog};
use crate::trace::{Layer, Proc, Tag, Tracer};
use scale_core::wire::{MlbWireStats, WireMsg, WireRole};
use scale_core::ShardStatsSnapshot;
use scale_epc::{DriveMode, EmuCounts, EmuEvent, EnbEmulator, ENB_BASE};
use scale_s1ap::S1apPdu;
use scale_sctplite::{ppid, SctpStream, StreamEvent};
use scale_sim::wire_run::{WireCounts, WireMode, WireRunConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tokio::runtime::block_on;

fn child_config(shape: &Shape) -> WireRunConfig {
    WireRunConfig {
        n_enbs: 1,
        n_mmps: N_MMPS,
        total_vms: TOTAL_VMS,
        replication: REPLICATION,
        ring_tokens: RING_TOKENS,
        seed: shape.seed,
        n_ues: shape.n_ues,
        ops_per_ue: shape.ops_per_ue,
        mode: WireMode::Closed {
            window: shape.window,
        },
    }
}

struct ChildProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    fn spawn(bin: &str, args: &[String], wd: &Watchdog) -> std::io::Result<ChildProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        wd.register(child.id());
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(ChildProc { child, stdout })
    }

    /// Read the rest of stdout, reap the child, and return its `REPORT`
    /// fields and whether it exited with status 0.
    fn finish(&mut self, wd: &Watchdog) -> (HashMap<String, u64>, bool) {
        let mut text = String::new();
        let _ = self.stdout.read_to_string(&mut text);
        let clean = self.child.wait().map(|s| s.success()).unwrap_or(false);
        wd.forget(self.child.id());
        let mut map = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("REPORT ") {
                for tok in rest.split_whitespace() {
                    if let Some((k, v)) = tok.split_once('=') {
                        if let Ok(n) = v.parse::<u64>() {
                            map.insert(k.to_string(), n);
                        }
                    }
                }
            }
        }
        (map, clean)
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // No-ops once `finish` has reaped the child; on an early
        // return or a panic this is what leaves no `scale_wired` behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The MLB and MMP child processes of one deployment.
pub struct Deployment {
    mlb: ChildProc,
    mmps: Vec<ChildProc>,
    addr: String,
}

/// CPU, memory and context-switch readings of the children.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildSamples {
    pub mlb: ProcSample,
    /// Summed over the MMP workers.
    pub mmp: ProcSample,
}

impl ChildSamples {
    pub fn since(&self, earlier: &ChildSamples) -> ChildSamples {
        ChildSamples {
            mlb: self.mlb.since(&earlier.mlb),
            mmp: self.mmp.since(&earlier.mmp),
        }
    }

    pub fn cpu_ns(&self) -> u64 {
        self.mlb.cpu_ns + self.mmp.cpu_ns
    }

    pub fn rss_kb(&self) -> u64 {
        self.mlb.rss_kb + self.mmp.rss_kb
    }
}

impl Deployment {
    /// Spawn the MLB (which announces its port) and the workers.
    pub fn spawn(bin: &str, shape: &Shape, wd: &Watchdog) -> Result<Deployment, String> {
        let cfg_args = child_config(shape).to_args();
        let mut mlb_args = vec!["--role".to_string(), "mlb".to_string()];
        mlb_args.extend(cfg_args.iter().cloned());
        let mut mlb =
            ChildProc::spawn(bin, &mlb_args, wd).map_err(|e| format!("spawn {bin}: {e}"))?;
        let mut line = String::new();
        mlb.stdout
            .read_line(&mut line)
            .map_err(|e| format!("MLB stdout: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("MLB did not announce its port (got {line:?})"))?;
        let addr = format!("127.0.0.1:{port}");
        let mut mmps = Vec::with_capacity(N_MMPS);
        for i in 0..N_MMPS {
            let mut a = vec![
                "--role".to_string(),
                "mmp".to_string(),
                "--index".to_string(),
                i.to_string(),
                "--addr".to_string(),
                addr.clone(),
            ];
            a.extend(cfg_args.iter().cloned());
            mmps.push(ChildProc::spawn(bin, &a, wd).map_err(|e| format!("spawn {bin}: {e}"))?);
        }
        Ok(Deployment { mlb, mmps, addr })
    }

    /// Block until the MLB has both workers on its books. The MLB
    /// drops, silently, anything routed to a worker whose `Hello` its
    /// router has not processed yet, and says nothing when it has, so
    /// readiness is read off the processes themselves: every link and
    /// writer thread exists (2 per worker at the MLB besides its main
    /// and accept threads, 2 in each worker), every thread is asleep,
    /// and none of them ran between two looks. Nothing is in flight
    /// then, and whatever was sent — the `Hello`s — has been handled.
    pub fn wait_workers_linked(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let look = || -> Option<Vec<(u32, u64)>> {
            let mut all = Vec::new();
            let procs = std::iter::once((&self.mlb, 2 + 2 * N_MMPS))
                .chain(self.mmps.iter().map(|m| (m, 2)));
            for (p, want_threads) in procs {
                let threads = thread_runs(p.child.id())?;
                if threads.len() < want_threads {
                    return None;
                }
                all.extend(threads);
            }
            Some(all)
        };
        loop {
            if let Some(first) = look() {
                std::thread::sleep(Duration::from_millis(1));
                if look().as_ref() == Some(&first) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err("MMP workers did not link to the MLB within 10 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn sample(&self) -> ChildSamples {
        let mut mmp = ProcSample::default();
        for m in &self.mmps {
            let s = ProcSample::read(m.child.id());
            mmp.cpu_ns += s.cpu_ns;
            mmp.utime_s += s.utime_s;
            mmp.stime_s += s.stime_s;
            mmp.rss_kb += s.rss_kb;
            mmp.ctxsw += s.ctxsw;
        }
        ChildSamples {
            mlb: ProcSample::read(self.mlb.child.id()),
            mmp,
        }
    }

    /// After the generator closed its association: the MLB exits, the
    /// workers see EOF and exit; collect every report. The bool is
    /// "every child exited with status 0 and reported".
    pub fn finish(mut self, enb: EmuCounts, wd: &Watchdog) -> (WireCounts, bool) {
        let g = |m: &HashMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
        let (m, mut clean) = self.mlb.finish(wd);
        clean &= !m.is_empty();
        let mut counts = WireCounts {
            enb,
            mlb: MlbWireStats {
                routed_attaches: g(&m, "routed_attaches"),
                routed_idle: g(&m, "routed_idle"),
                forwarded_uplinks: g(&m, "forwarded_uplinks"),
                settled_relayed: g(&m, "settled_relayed"),
                proc_failures: g(&m, "proc_failures"),
                dropped: g(&m, "dropped"),
                errors: g(&m, "errors"),
            },
            reconnects: g(&m, "reconnects"),
            ..WireCounts::default()
        };
        for w in &mut self.mmps {
            let (m, ok) = w.finish(wd);
            clean &= ok && !m.is_empty();
            counts.mmp.stats.merge(&ShardStatsSnapshot {
                messages: g(&m, "messages"),
                attaches: g(&m, "attaches"),
                service_requests: g(&m, "service_requests"),
                taus: g(&m, "taus"),
                detaches: g(&m, "detaches"),
                idles: g(&m, "idles"),
                rejects: g(&m, "rejects"),
                replicas_imported: g(&m, "replicas_imported"),
                replicas_sent: g(&m, "replicas_sent"),
                strays_dropped: g(&m, "strays_dropped"),
                errors: g(&m, "errors"),
            });
            counts.mmp.contexts_held += g(&m, "contexts_held");
            counts.mmp.wire_errors += g(&m, "wire_errors");
        }
        (counts, clean)
    }
}

/// `(tid, times scheduled in)` of every thread of `pid`, or `None` if
/// any of them is not asleep.
fn thread_runs(pid: u32) -> Option<Vec<(u32, u64)>> {
    let mut out = Vec::new();
    for t in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        let tid: u32 = t.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(t.path().join("stat")).ok()?;
        let state = stat
            .rsplit_once(')')?
            .1
            .split_whitespace()
            .next()?
            .to_string();
        if state != "S" {
            return None;
        }
        let sched = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
        out.push((tid, sched.split_whitespace().nth(2)?.parse().ok()?));
    }
    out.sort_unstable();
    Some(out)
}

fn send<T: Tracer>(
    stream: &mut SctpStream,
    msg: &WireMsg,
    tag: Tag,
    tr: &mut T,
) -> Result<(), String> {
    let t = tr.now();
    let bytes = msg.encode();
    tr.record(Layer::WireEncode, tag, t);
    let t = tr.now();
    let res = block_on(stream.send(1, ppid::SCALE_STATE, bytes));
    tr.record(Layer::LinkSend, tag, t);
    res.map_err(|e| format!("MLB link lost on send: {e}"))
}

fn recv<T: Tracer>(stream: &mut SctpStream, tr: &mut T) -> Result<WireMsg, String> {
    loop {
        let t = tr.now();
        let ev = block_on(stream.next_event());
        tr.record(Layer::LinkRecv, Tag::default(), t);
        match ev {
            Ok(StreamEvent::Data { payload, .. }) => {
                let t = tr.now();
                let msg = WireMsg::decode(payload);
                tr.record(Layer::WireDecode, Tag::default(), t);
                return msg.map_err(|e| format!("undecodable wire message: {e}"));
            }
            Ok(StreamEvent::HeartbeatAck { .. }) => {}
            Err(e) => return Err(format!("MLB link lost on receive: {e}")),
        }
    }
}

/// The benchmark process as the deployment's only eNodeB.
pub struct Generator {
    stream: SctpStream,
    pub emu: EnbEmulator,
}

impl Generator {
    /// Build the emulator population (while the workers link up), then
    /// connect, announce the cell and run S1 Setup.
    pub fn connect(dep: &Deployment, shape: &Shape, mode: DriveMode) -> Result<Generator, String> {
        let mut emu = shape.emulator(mode);
        dep.wait_workers_linked()?;
        let addr = dep.addr.as_str();
        let start = Instant::now();
        let mut stream = loop {
            match block_on(SctpStream::connect(addr, emu.enb_id())) {
                Ok(s) => break s,
                Err(e) if start.elapsed() > Duration::from_secs(10) => {
                    return Err(format!("cannot reach MLB at {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let tr = &mut crate::trace::NoTrace;
        let hello = WireMsg::Hello {
            role: WireRole::Enb,
            id: 0,
        };
        send(&mut stream, &hello, Tag::default(), tr)?;
        let setup = WireMsg::Uplink {
            enb_id: ENB_BASE,
            attach_hint: None,
            pdu: emu.s1_setup_request(),
        };
        send(&mut stream, &setup, Tag::default(), tr)?;
        match recv(&mut stream, tr)? {
            WireMsg::ToEnb {
                pdu: pdu @ S1apPdu::S1SetupResponse { .. },
                ..
            } => emu.handle_downlink(pdu),
            other => return Err(format!("expected S1 Setup Response, got {other:?}")),
        }
        Ok(Generator { stream, emu })
    }

    /// Closed-loop timed phase: prime the window, then one blocking
    /// receive per downlink until every session is done. Returns the
    /// timed wall in seconds.
    pub fn drive<T: Tracer>(
        &mut self,
        lat: &mut Latencies,
        wd: &Watchdog,
        tr: &mut T,
    ) -> Result<f64, String> {
        let _armed = wd.watch_progress();
        let mut conns: HashMap<u32, (u32, Proc)> = HashMap::new();
        let t0 = Instant::now();
        let t = tr.now();
        self.emu.start();
        // `drain()` is a `mem::take`; it rides in the span of the
        // emulator call whose output it collects.
        let mut events = self.emu.drain();
        let mut cause = tr.record(Layer::EmuStart, Tag::default(), t);
        loop {
            for ev in events {
                match ev {
                    EmuEvent::Uplink { attach_hint, pdu } => {
                        let tag = if T::ON {
                            uplink_tag(&mut conns, attach_hint, &pdu, cause)
                        } else {
                            Tag::default()
                        };
                        let msg = WireMsg::Uplink {
                            enb_id: ENB_BASE,
                            attach_hint,
                            pdu,
                        };
                        send(&mut self.stream, &msg, tag, tr)?;
                    }
                    EmuEvent::Completed { kind, elapsed } => lat.push(kind, elapsed),
                }
            }
            if self.emu.done() {
                break;
            }
            let msg = recv(&mut self.stream, tr)?;
            wd.beat();
            let t = tr.now();
            let (layer, tag) = match msg {
                WireMsg::ToEnb { pdu, .. } => {
                    let tag = if T::ON {
                        downlink_tag(&conns, &pdu)
                    } else {
                        Tag::default()
                    };
                    self.emu.handle_downlink(pdu);
                    (Layer::EmuDownlink, tag)
                }
                WireMsg::Settled { m_tmsi, active } => {
                    self.emu.settled(m_tmsi, active);
                    (
                        Layer::EmuSettled,
                        Tag {
                            session: m_tmsi,
                            ..Tag::default()
                        },
                    )
                }
                WireMsg::ProcFailed { m_tmsi } => {
                    self.emu.proc_failed(m_tmsi);
                    (
                        Layer::EmuSettled,
                        Tag {
                            session: m_tmsi,
                            ..Tag::default()
                        },
                    )
                }
                // Never addressed to an eNodeB (see run_enb).
                WireMsg::Hello { .. }
                | WireMsg::Uplink { .. }
                | WireMsg::Deliver { .. }
                | WireMsg::Replicate { .. }
                | WireMsg::DropCtx { .. }
                | WireMsg::VmDown { .. }
                | WireMsg::VmUp { .. } => (Layer::EmuSettled, Tag::default()),
            };
            events = self.emu.drain();
            cause = tr.record(layer, tag, t);
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Graceful SHUTDOWN, then drop the socket: the MLB sees its only
    /// eNodeB leave and winds the deployment down.
    pub fn close(mut self) -> EmuCounts {
        for e in self.emu.error_samples() {
            eprintln!("generator: {e}");
        }
        let _ = block_on(self.stream.shutdown());
        self.emu.counts
    }
}

fn downlink_tag(conns: &HashMap<u32, (u32, Proc)>, pdu: &S1apPdu) -> Tag {
    let enb_ue_id = match pdu {
        S1apPdu::DownlinkNasTransport { enb_ue_id, .. }
        | S1apPdu::InitialContextSetupRequest { enb_ue_id, .. }
        | S1apPdu::UeContextReleaseCommand { enb_ue_id, .. } => Some(*enb_ue_id),
        _ => None,
    };
    let (session, proc) = enb_ue_id
        .and_then(|id| conns.get(&id).copied())
        .unwrap_or((0, Proc::None));
    Tag {
        session,
        proc,
        cause: 0,
    }
}

/// One closed-loop run of the deployment, set-up and timed phase apart.
pub struct WireRun {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Children at the first timed uplink.
    pub before: ChildSamples,
    /// Children at quiesce (last terminal edge; link still open).
    pub after: ChildSamples,
    /// This process over the timed phase.
    pub gen: ProcSample,
    pub counts: WireCounts,
    pub clean_exit: bool,
    pub lat: Latencies,
}

/// Set-up only: spawn, connect, S1 Setup, population — then tear down.
pub fn setup_only(bin: &str, shape: &Shape, wd: &Watchdog) -> Result<f64, String> {
    let t = Instant::now();
    let dep = Deployment::spawn(bin, shape, wd)?;
    let gen = Generator::connect(
        &dep,
        shape,
        DriveMode::Closed {
            window: shape.window,
        },
    )?;
    let setup_s = t.elapsed().as_secs_f64();
    let enb = gen.close();
    dep.finish(enb, wd);
    Ok(setup_s)
}

pub fn run_closed<T: Tracer>(
    bin: &str,
    shape: &Shape,
    wd: &Watchdog,
    tr: &mut T,
) -> Result<WireRun, String> {
    let t = Instant::now();
    let dep = Deployment::spawn(bin, shape, wd)?;
    let mut gen = Generator::connect(
        &dep,
        shape,
        DriveMode::Closed {
            window: shape.window,
        },
    )?;
    let mut lat = Latencies::for_shape(shape);
    let setup_s = t.elapsed().as_secs_f64();

    let before = dep.sample();
    let gen_before = ProcSample::me();
    let wall_s = gen.drive(&mut lat, wd, tr)?;
    let gen_after = ProcSample::me();
    // The last Idle edge's replica is still crossing MLB → MMP when the
    // edge reaches us; let it land before reading memory.
    std::thread::sleep(Duration::from_millis(50));
    let after = dep.sample();
    let enb = gen.close();
    let (counts, clean_exit) = dep.finish(enb, wd);
    Ok(WireRun {
        setup_s,
        wall_s,
        before,
        after,
        gen: gen_after.since(&gen_before),
        counts,
        clean_exit,
        lat,
    })
}

/// Outcome of the open-loop probe (reported, never gated).
pub struct OpenLoop {
    /// Attach latency timed from when the session was due, ns.
    pub attach_from_due: Vec<u64>,
    /// How late each arrival was fired, ns.
    pub lateness: Vec<u64>,
    pub shed: u64,
    pub offered: u64,
    pub failed: u64,
    pub clean_exit: bool,
}

/// Seeded Poisson arrivals at `rate_hz` on a fresh deployment. Open
/// loop needs a clock while blocked on the socket, so this path alone
/// uses the split stream with a reader thread, as `run_enb` does.
pub fn run_open(bin: &str, shape: &Shape, rate_hz: f64, wd: &Watchdog) -> Result<OpenLoop, String> {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let dep = Deployment::spawn(bin, shape, wd)?;
    let max_in_flight = shape.window;
    let Generator { stream, mut emu } =
        Generator::connect(&dep, shape, DriveMode::Open { max_in_flight })?;
    let (link, mut rh) = stream.into_split(4096);
    let (tx, rx) = channel::<Option<WireMsg>>();
    let reader = std::thread::spawn(move || loop {
        match block_on(rh.next_event()) {
            Ok(StreamEvent::Data { payload, .. }) => match WireMsg::decode(payload) {
                Ok(m) => {
                    if tx.send(Some(m)).is_err() {
                        return;
                    }
                }
                Err(e) => eprintln!("open-loop probe: undecodable wire message: {e}"),
            },
            Ok(StreamEvent::HeartbeatAck { .. }) => {}
            Err(_) => {
                let _ = tx.send(None);
                return;
            }
        }
    });

    let schedule = scale_sim::poisson_schedule(shape.seed ^ 0x0E9B_0000, rate_hz, shape.n_ues);
    let mut out = OpenLoop {
        attach_from_due: Vec::with_capacity(shape.n_ues),
        lateness: Vec::with_capacity(shape.n_ues),
        shed: 0,
        offered: shape.n_ues as u64,
        failed: 0,
        clean_exit: false,
    };
    // Lateness of admitted sessions, matched to attach completions in
    // order (one association keeps attaches nearly FIFO).
    let mut admitted_late = std::collections::VecDeque::new();
    let mut next = 0usize;
    let t0 = Instant::now();
    let mut link_down = false;
    'drive: while !emu.done() {
        while next < schedule.len() && t0.elapsed() >= schedule[next] {
            let late = (t0.elapsed() - schedule[next]).as_nanos() as u64;
            let shed_before = emu.counts.sessions_shed;
            emu.arrival();
            out.lateness.push(late);
            if emu.counts.sessions_shed == shed_before {
                admitted_late.push_back(late);
            }
            next += 1;
        }
        for ev in emu.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => {
                    let msg = WireMsg::Uplink {
                        enb_id: ENB_BASE,
                        attach_hint,
                        pdu,
                    };
                    if link.send(1, ppid::SCALE_STATE, msg.encode()).is_err() {
                        link_down = true;
                        break 'drive;
                    }
                }
                EmuEvent::Completed {
                    kind: scale_epc::ProcKind::Attach,
                    elapsed,
                } => {
                    let late = admitted_late.pop_front().unwrap_or(0);
                    out.attach_from_due.push(late + elapsed.as_nanos() as u64);
                }
                EmuEvent::Completed { .. } => {}
            }
        }
        let wait = if next < schedule.len() {
            schedule[next]
                .saturating_sub(t0.elapsed())
                .min(Duration::from_millis(200))
        } else {
            Duration::from_millis(200)
        };
        match rx.recv_timeout(wait) {
            Ok(Some(WireMsg::ToEnb { pdu, .. })) => emu.handle_downlink(pdu),
            Ok(Some(WireMsg::Settled { m_tmsi, active })) => emu.settled(m_tmsi, active),
            Ok(Some(WireMsg::ProcFailed { m_tmsi })) => emu.proc_failed(m_tmsi),
            Ok(Some(_)) | Err(RecvTimeoutError::Timeout) => {}
            Ok(None) | Err(RecvTimeoutError::Disconnected) => {
                link_down = true;
                break 'drive;
            }
        }
    }
    if link_down {
        return Err("open-loop probe: MLB link lost mid-drive".to_string());
    }
    let _ = link.shutdown_send();
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    while link.pending() > 0 && Instant::now() < flush_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(link);
    let c = emu.counts;
    let (counts, clean) = dep.finish(c, wd);
    reader
        .join()
        .map_err(|_| "open-loop reader thread panicked".to_string())?;
    out.shed = c.sessions_shed;
    out.failed =
        c.rejects + c.errors + counts.mlb.dropped + counts.mlb.errors + counts.mlb.proc_failures;
    out.clean_exit = clean;
    Ok(out)
}
