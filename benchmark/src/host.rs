//! Host facts and per-process accounting read from `/proc`.

use std::fs;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Kernel clock ticks per second (`utime`/`stime` unit); fixed on Linux.
const CLK_TCK: f64 = 100.0;

/// One reading of a process's counters. `cpu_ns` sums the on-CPU time
/// of every live thread from `schedstat` (nanosecond accounting; the
/// tick-sampled `utime`/`stime` are only used for the user/system
/// split), so take both readings while the same threads are alive.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_ns: u64,
    pub utime_s: f64,
    pub stime_s: f64,
    pub rss_kb: u64,
    pub ctxsw: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for t in tasks.flatten() {
                let dir = t.path();
                if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                    s.cpu_ns += text
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0);
                }
                if let Ok(text) = fs::read_to_string(dir.join("status")) {
                    s.ctxsw += status_field(&text, "voluntary_ctxt_switches:")
                        + status_field(&text, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        if let Ok(text) = fs::read_to_string(format!("/proc/{pid}/stat")) {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the whole line.
            if let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                s.utime_s = tick(11) / CLK_TCK;
                s.stime_s = tick(12) / CLK_TCK;
            }
        }
        if let Ok(text) = fs::read_to_string(format!("/proc/{pid}/status")) {
            s.rss_kb = status_field(&text, "VmRSS:");
        }
        s
    }

    pub fn me() -> ProcSample {
        ProcSample::read(std::process::id())
    }

    /// Counters accumulated since `earlier`; `rss_kb` is the growth.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            utime_s: self.utime_s - earlier.utime_s,
            stime_s: self.stime_s - earlier.stime_s,
            rss_kb: self.rss_kb.saturating_sub(earlier.rss_kb),
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
        }
    }

    /// System share of the tick-sampled CPU time.
    pub fn sys_share(&self) -> f64 {
        let total = self.utime_s + self.stime_s;
        if total > 0.0 {
            self.stime_s / total
        } else {
            0.0
        }
    }
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn load_avg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Print the host facts a reader needs to place the numbers, and warn
/// when something else is already using the machine.
pub fn print_host() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = load_avg_1m();
    println!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" load1={load:.2} commit={}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    if load > 0.5 {
        eprintln!("warning: 1-min load average is {load:.2} (> 0.5): timings will be noisy");
    }
}

/// Kills every registered child and exits non-zero when a workload
/// overruns its deadline, or when a wire drive it was asked to watch
/// makes no progress for [`STALL`], so a hung run never leaves a
/// `scale_wired` process behind (the children also exit on their own
/// once the benchmark's association closes, but a hung child would
/// not) and a lost message costs seconds, not the whole deadline.
pub struct Watchdog {
    pids: Arc<Mutex<Vec<u32>>>,
    done: Arc<AtomicBool>,
    /// Messages received by a watched drive; `watched` says one is on.
    beats: Arc<AtomicU64>,
    watched: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// A closed-loop drive that receives nothing for this long has lost a
/// message and will never finish.
const STALL: Duration = Duration::from_secs(10);

/// Progress watching is on while this lives.
pub struct Watched<'a>(&'a AtomicBool);

impl Drop for Watched<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

impl Watchdog {
    pub fn start(deadline: Duration) -> Watchdog {
        let pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));
        let beats = Arc::new(AtomicU64::new(0));
        let watched = Arc::new(AtomicBool::new(false));
        let (p, d, b, w) = (
            Arc::clone(&pids),
            Arc::clone(&done),
            Arc::clone(&beats),
            Arc::clone(&watched),
        );
        let thread = std::thread::spawn(move || {
            let step = Duration::from_millis(200);
            let mut left = deadline;
            let (mut last_beats, mut quiet) = (0, Duration::ZERO);
            while !d.load(Ordering::SeqCst) {
                let now_beats = b.load(Ordering::Relaxed);
                if !w.load(Ordering::SeqCst) || now_beats != last_beats {
                    (last_beats, quiet) = (now_beats, Duration::ZERO);
                }
                if left.is_zero() || quiet >= STALL {
                    let why = if left.is_zero() {
                        "exceeded its deadline"
                    } else {
                        "stalled: no message for 10 s"
                    };
                    eprintln!("error: workload {why}; killing children");
                    for pid in p.lock().expect("watchdog pid list").iter() {
                        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
                    }
                    std::process::exit(3);
                }
                std::thread::sleep(step);
                left = left.saturating_sub(step);
                quiet += step;
            }
        });
        Watchdog {
            pids,
            done,
            beats,
            watched,
            thread: Some(thread),
        }
    }

    pub fn register(&self, pid: u32) {
        self.pids.lock().expect("watchdog pid list").push(pid);
    }

    pub fn forget(&self, pid: u32) {
        self.pids
            .lock()
            .expect("watchdog pid list")
            .retain(|p| *p != pid);
    }

    /// One message received by the watched drive.
    #[inline]
    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Watch for a stall until the returned guard drops.
    pub fn watch_progress(&self) -> Watched<'_> {
        self.watched.store(true, Ordering::SeqCst);
        Watched(&self.watched)
    }

    pub fn stop(mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("watchdog thread panicked");
        }
    }
}
