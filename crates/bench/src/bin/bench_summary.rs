//! Routing hot-path benchmark summary: measures the optimized ring and
//! MLB router against the seed implementation (kept verbatim in
//! `scale_hashring::reference`) and writes the before/after table to
//! `results/BENCH_routing.json`.
//!
//! The "before" side reproduces the seed's data structures exactly: a
//! `BTreeMap` point store, a fresh `Vec<u8>` key allocation plus a
//! streaming MD5 context per lookup, an allocating replica walk and a
//! `HashMap`-backed load table. The "after" side is the shipping
//! `HashRing` / `MlbRouter` pair: sorted-`Vec` points, borrowed key
//! bytes, one-shot MD5, memoized positions and the per-epoch route
//! cache.
//!
//! A second section times the crypto kernels every procedure runs
//! (AES, Milenage, the K_ASME derivation, EIA2, NAS protect/unprotect)
//! and writes `results/BENCH_crypto.json`. There the "before" side is
//! not a reference implementation kept in the tree — the slow cipher
//! was replaced, not kept — but the same section built at the parent
//! commit on the same host: it calls only signatures both commits have,
//! and `bench_summary --before <that run's BENCH_crypto.json>` files the
//! parent's measurements as this run's `before_ns`. Without the flag
//! the recorded `before_ns` column is carried over unchanged.
//!
//! A third section replays a recorded slice of wire traffic through
//! the MLB's and a worker's receive → handle → send loops, sans-IO
//! (`scale_sim::replay`: the deployment's own `Router` and worker loop
//! over links that end in buffers), and writes ns and allocations per
//! message to `results/BENCH_relay.json` (this binary counts its own
//! allocations). Its "before" is again the parent commit's run of the
//! same section: `--before` takes that run's `BENCH_relay.json` too, or
//! the directory holding both files.

use scale_bench::timing::Stopwatch;
use scale_core::mlb::{MlbRouter, VmId};
use scale_core::wire::{MmpNode, WireMsg};
use scale_hashring::{position_of, reference::BTreeRing, HashRing, PositionCache};
use scale_nas::{Guti, Plmn};
use scale_sim::replay::{MlbReplay, MmpReplay, Recording};
use scale_sim::{WireMode, WireRunConfig};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counts the allocation requests of the thread that makes them, for
/// the relay section; everything passes through to the system
/// allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a thread-local cell with no destructor, so counting neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's layout, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const N_VMS: u32 = 30;
const TOKENS: u32 = 5;
const REPLICATION: usize = 2;
/// Device population the ring benches cycle through. Production GUTI
/// lookups repeat heavily (every Idle↔Active cycle of a registered
/// device re-resolves the same key), so the position memo is sized to
/// cover the population and the steady state is all-hits — exactly the
/// "repeat lookups skip MD5" contract of the optimization.
const N_DEVICES: u32 = 10_000;
/// The MLB's per-epoch route cache is 1024 direct-mapped slots, so the
/// routing bench cycles the devices currently mid Idle↔Active churn —
/// the bounded hot working set the cache is built for.
const HOT_DEVICES: u32 = 1024;

/// The seed's MLB routing path, reassembled from the reference ring:
/// heap-allocated GUTI key bytes per lookup, an allocating replica
/// walk, and a `HashMap<VmId, f64>` load table.
struct BaselineMlb {
    ring: BTreeRing<VmId>,
    loads: HashMap<VmId, f64>,
    plmn: Plmn,
}

impl BaselineMlb {
    fn new() -> Self {
        let mut ring = BTreeRing::new(TOKENS);
        let mut loads = HashMap::new();
        for vm in 0..N_VMS {
            ring.add_node(vm);
            loads.insert(vm, (vm % 7) as f64);
        }
        BaselineMlb {
            ring,
            loads,
            plmn: Plmn::new("001", "01"),
        }
    }

    fn route_idle_transition(&self, m_tmsi: u32) -> Option<VmId> {
        let guti = Guti {
            plmn: self.plmn,
            mme_group_id: 1,
            mme_code: 1,
            m_tmsi,
        };
        // The seed keyed the ring with an owned byte vector per call.
        let key = guti.to_bytes().to_vec();
        let holders = self.ring.replicas(&key[..], REPLICATION);
        holders
            .into_iter()
            .min_by(|a, b| {
                let la = self.loads.get(a).copied().unwrap_or(0.0);
                let lb = self.loads.get(b).copied().unwrap_or(0.0);
                la.partial_cmp(&lb).unwrap()
            })
            .copied()
    }
}

fn optimized_ring() -> HashRing<VmId> {
    let mut ring = HashRing::new(TOKENS);
    for vm in 0..N_VMS {
        ring.add_node(vm);
    }
    ring
}

fn optimized_mlb() -> MlbRouter {
    let mut mlb = MlbRouter::new(TOKENS, REPLICATION, Plmn::new("001", "01"), 1, 1);
    for vm in 0..N_VMS {
        mlb.add_mmp(vm);
        mlb.set_load(vm, (vm % 7) as f64);
    }
    mlb
}

#[derive(Debug, Serialize)]
struct BenchEntry {
    bench: String,
    before: String,
    after: String,
    before_ns: f64,
    after_ns: f64,
    speedup: f64,
}

/// The crypto kernels on the attach / Service Request path, with the
/// inputs the procedures feed them. `(id, what it times)`.
const CRYPTO_BENCHES: [(&str, &str); 8] = [
    ("aes_block", "Aes128::encrypt_block, schedule already expanded"),
    ("aes_key_expansion", "Aes128::new"),
    ("milenage_f1_f2345", "Milenage::from_opc + f1 + f2345 (one HSS vector, or one USIM check)"),
    ("kasme", "derive_kasme (one HMAC-SHA-256 over a 14-byte string)"),
    ("nas_alg_keys", "derive_alg_key for K_NASenc and K_NASint"),
    ("eia2_32B", "eia2_mac over a 32-byte message"),
    ("nas_protect_attach_accept", "NasSecurityContext::protect, ciphered AttachAccept"),
    ("nas_unprotect_attach_accept", "NasSecurityContext::unprotect of the same"),
];

fn crypto_section(c: &mut Stopwatch) {
    use scale_crypto::aes::Aes128;
    use scale_crypto::kdf::{derive_alg_key, derive_kasme, derive_nas_keys, AlgKeyType, ALG_ID_AES};
    use scale_crypto::milenage::Milenage;
    use scale_nas::{Direction, EmmMessage, NasSecurityContext, SecurityHeader, Tai};

    let key = [0x2bu8; 16];
    let aes = Aes128::new(&key);
    let mut block = [7u8; 16];
    c.time("crypto/aes_block", || {
        aes.encrypt_block(black_box(&mut block));
        block[0]
    });
    c.time("crypto/aes_key_expansion", || Aes128::new(black_box(&key)));

    let opc = *Milenage::from_op(&key, &scale_epc::OP).opc();
    let rand = [0x23u8; 16];
    c.time("crypto/milenage_f1_f2345", || {
        let mil = Milenage::from_opc(black_box(&key), opc);
        (mil.f1(&rand, &[0, 0, 0, 0, 0, 1], &scale_epc::AMF), mil.f2345(&rand))
    });

    let (ck, ik) = ([1u8; 16], [2u8; 16]);
    let plmn = Plmn::new("001", "01");
    c.time("crypto/kasme", || derive_kasme(black_box(&ck), &ik, &plmn.0, &[3; 6]));
    let kasme = derive_kasme(&ck, &ik, &plmn.0, &[3; 6]);
    c.time("crypto/nas_alg_keys", || {
        let kasme = black_box(&kasme);
        (
            derive_alg_key(kasme, AlgKeyType::NasEnc, ALG_ID_AES),
            derive_alg_key(kasme, AlgKeyType::NasInt, ALG_ID_AES),
        )
    });

    let msg32 = [0x5au8; 32];
    let mut count = 0u32;
    c.time("crypto/eia2_32B", || {
        count = count.wrapping_add(1);
        scale_crypto::cmac::eia2_mac(black_box(&key), count, 0, true, &msg32)
    });

    let accept = EmmMessage::AttachAccept {
        guti: Guti {
            plmn,
            mme_group_id: 1,
            mme_code: 1,
            m_tmsi: 0x1234_5678,
        },
        tai_list: vec![Tai::new(plmn, 7)],
        t3412_s: 3240,
        ebi: 5,
        apn: "internet".into(),
        pdn_addr: [10, 0, 0, 1],
    };
    let keys = derive_nas_keys(&ck, &ik, &plmn.0, &[3; 6]);
    let mut sender = NasSecurityContext::new(keys, 1);
    c.time("crypto/nas_protect_attach_accept", || {
        sender.dl_count = 0;
        sender.protect(
            black_box(&accept),
            Direction::Downlink,
            SecurityHeader::IntegrityCiphered,
        )
    });
    sender.dl_count = 0;
    let wire = sender.protect(&accept, Direction::Downlink, SecurityHeader::IntegrityCiphered);
    let mut receiver = NasSecurityContext::new(keys, 1);
    c.time("crypto/nas_unprotect_attach_accept", || {
        receiver.dl_count = 0;
        receiver.unprotect(black_box(wire.clone()), Direction::Downlink)
    });
}

/// `bench -> ns` read from column `column` of a `BENCH_crypto.json`.
fn crypto_column(path: &str, column: &str) -> HashMap<String, f64> {
    let Ok(text) = fs::read_to_string(path) else {
        return HashMap::new();
    };
    let serde::Value::Array(rows) =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
    else {
        panic!("{path} is not a JSON array");
    };
    let mut out = HashMap::new();
    for row in rows {
        let serde::Value::Object(fields) = row else {
            continue;
        };
        let mut bench = None;
        let mut ns = None;
        for (k, v) in fields {
            match v {
                serde::Value::Str(name) if k == "bench" => bench = Some(name),
                serde::Value::F64(x) if k == column => ns = Some(x),
                _ => {}
            }
        }
        if let (Some(bench), Some(ns)) = (bench, ns) {
            out.insert(bench, ns);
        }
    }
    out
}

// --- Relay: a recorded slice through the MLB's and a worker's loops --------

/// One cell, two workers, every procedure class; small enough that
/// eight copies of its traffic fit in memory.
fn relay_slice() -> WireRunConfig {
    WireRunConfig {
        n_enbs: 1,
        n_mmps: 2,
        total_vms: 8,
        replication: 2,
        ring_tokens: 64,
        seed: 19,
        n_ues: 600,
        ops_per_ue: 2,
        mode: WireMode::Closed { window: 64 },
    }
}

const RELAY_PASSES: usize = 8;
/// Messages of one link that share a read.
const PER_READ: usize = 24;

/// `(ns, allocations)` per message of `pass`, which handles the reads
/// it is given and returns how many messages they held: the medians
/// over [`RELAY_PASSES`] passes, after one unmeasured.
fn per_message(
    reads: &[Vec<(usize, Vec<u8>)>],
    mut pass: impl FnMut(&[(usize, Vec<u8>)]) -> usize,
) -> (f64, f64) {
    median_of(reads.iter().map(|set| once(set, &mut pass)).collect())
}

/// The relay benches: name, what it measures.
const RELAY_BENCHES: [(&str, &str); 4] = [
    (
        "mlb_relay",
        "one message through the MLB as the deployment runs it: deframe, route, frame and copy out (24 messages a read)",
    ),
    (
        "mlb_typed",
        "the same through typed values: owned frame, WireMsg::decode, on_enb/on_mmp, WireMsg::encode, queued send",
    ),
    (
        "mmp_loop",
        "one message through a worker as the deployment runs it: deframe, decode, MmpNode::handle, encode and frame what it answers",
    ),
    ("mmp_engine", "MmpNode::handle alone on the same messages"),
];

/// `bench -> (ns, allocations)` per message on this build.
fn relay_section() -> HashMap<&'static str, (f64, f64)> {
    let cfg = relay_slice();
    let rec = Recording::of(&cfg);
    // The S1 Setup is answered, not relayed.
    let inbound = || {
        rec.inbound
            .iter()
            .filter(|(_, msg)| {
                !matches!(
                    WireMsg::decode(msg.clone()),
                    Ok(WireMsg::Uplink {
                        pdu: scale_s1ap::S1apPdu::S1SetupRequest { .. },
                        ..
                    })
                )
            })
            .map(|(link, msg)| (*link, msg))
    };
    let mut out = HashMap::new();

    // The MLB: every pass continues the links' numbering, so each gets
    // its own copy of the traffic.
    type Read = fn(&mut MlbReplay, usize, &[u8]) -> usize;
    for (bench, read) in [
        ("mlb_relay", MlbReplay::read as Read),
        ("mlb_typed", MlbReplay::typed_read as Read),
    ] {
        let (mut mlb, mut peers) = MlbReplay::new(&cfg);
        let reads: Vec<_> = (0..=RELAY_PASSES)
            .map(|_| peers.reads_of(inbound(), PER_READ))
            .collect();
        let per_message = per_message(&reads, |set| {
            set.iter()
                .map(|(from, bytes)| {
                    let n = read(&mut mlb, *from, bytes);
                    mlb.clear_sent();
                    n
                })
                .sum()
        });
        out.insert(bench, per_message);
    }

    // The worker: a fresh node per pass (a context is created once), the
    // same messages each time.
    let to_worker = &rec.to_mmp[0];
    let (mut in_loop, mut engine) = (Vec::new(), Vec::new());
    for _ in 0..=RELAY_PASSES {
        let (mut worker, mut peers) = MmpReplay::new(&cfg, 0);
        let reads = peers.reads_of(to_worker.iter().map(|m| (0, m)), PER_READ);
        in_loop.push(once(&reads, |set| {
            set.iter()
                .map(|(_, read)| {
                    let n = worker.read(read);
                    worker.clear_sent();
                    n
                })
                .sum()
        }));

        let mut node = MmpNode::new(&cfg.topo(), 0);
        let inputs: Vec<WireMsg> = to_worker
            .iter()
            .map(|m| WireMsg::decode(m.clone()).expect("a recorded message decodes"))
            .collect();
        let mut answers = Vec::with_capacity(64);
        let n = inputs.len();
        engine.push(once(&[], |_| {
            for msg in inputs {
                node.handle(msg, &mut answers);
                answers.clear();
            }
            n
        }));
    }
    out.insert("mmp_loop", median_of(in_loop));
    out.insert("mmp_engine", median_of(engine));
    out
}

/// `(ns, allocations)` per message of one `pass` over `reads`.
fn once(
    reads: &[(usize, Vec<u8>)],
    pass: impl FnOnce(&[(usize, Vec<u8>)]) -> usize,
) -> (f64, f64) {
    let (a0, t0) = (ALLOCS.with(Cell::get), Instant::now());
    let n = black_box(pass(black_box(reads))) as f64;
    (
        t0.elapsed().as_nanos() as f64 / n,
        (ALLOCS.with(Cell::get) - a0) as f64 / n,
    )
}

/// Medians of the measured runs, the first (cold) left out.
fn median_of(mut runs: Vec<(f64, f64)>) -> (f64, f64) {
    runs.remove(0);
    let mut ns: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let mut allocs: Vec<f64> = runs.iter().map(|r| r.1).collect();
    ns.sort_by(f64::total_cmp);
    allocs.sort_by(f64::total_cmp);
    (ns[ns.len() / 2], allocs[allocs.len() / 2])
}

#[derive(Debug, Serialize)]
struct RelayEntry {
    bench: String,
    what: String,
    /// The same bench built at the parent commit (see the module docs),
    /// same host; `null` until a `--before` run has supplied it.
    before_ns: Option<f64>,
    after_ns: f64,
    before_allocs: Option<f64>,
    after_allocs: f64,
}

#[derive(Debug, Serialize)]
struct CryptoEntry {
    bench: String,
    what: String,
    /// The same bench built at the parent commit, same host; `null`
    /// until a `--before` run has supplied it.
    before_ns: Option<f64>,
    after_ns: f64,
    speedup: Option<f64>,
}

/// The parent commit's run of the section that writes `name`, if
/// `--before` names that file or a directory holding it.
fn parent_run(before: Option<&str>, name: &str) -> Option<String> {
    let given = Path::new(before?);
    let file = if given.is_dir() { given.join(name) } else { given.to_path_buf() };
    (file.file_name()? == name && file.exists()).then(|| file.to_string_lossy().into_owned())
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(path, json) {
                eprintln!("warn: could not write {path}: {e}");
            } else {
                println!("# wrote {path}");
            }
        }
        Err(e) => eprintln!("warn: serialize failed: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{name} <file>")).clone())
    };
    let before_arg = flag("--before");
    let mut c = Stopwatch::new(30, Duration::from_millis(100), Duration::from_millis(500));

    // --- Ring primary lookup -------------------------------------------------
    let btree = {
        let mut r = BTreeRing::new(TOKENS);
        for vm in 0..N_VMS {
            r.add_node(vm);
        }
        r
    };
    let ring = optimized_ring();
    let mut key: u64 = 0;
    c.time("ring_primary/before", || {
        key = (key + 1) % N_DEVICES as u64;
        btree.primary(black_box(&key)).copied()
    });
    // The shipping lookup path: memoized position + sorted-Vec search.
    let mut memo = PositionCache::new(2 * N_DEVICES as usize);
    let mut key: u64 = 0;
    c.time("ring_primary/after", || {
        key = (key + 1) % N_DEVICES as u64;
        let k = black_box(key);
        let pos = memo.position_with(k, || position_of(&k));
        ring.node_at(pos).copied()
    });

    // --- Ring replica walk (R = 2) -------------------------------------------
    let mut key: u64 = 0;
    c.time("ring_replicas_r2/before", || {
        key = (key + 1) % N_DEVICES as u64;
        btree.replicas(black_box(&key), REPLICATION).len()
    });
    let mut memo = PositionCache::new(2 * N_DEVICES as usize);
    let mut key: u64 = 0;
    c.time("ring_replicas_r2/after", || {
        key = (key + 1) % N_DEVICES as u64;
        let k = black_box(key);
        let pos = memo.position_with(k, || position_of(&k));
        let mut sum = 0u64;
        ring.replicas_each(pos, REPLICATION, |vm| {
            sum += *vm as u64;
        });
        sum
    });

    // --- MLB idle-transition routing -----------------------------------------
    let baseline = BaselineMlb::new();
    let mut m_tmsi: u32 = 0;
    c.time("mlb_route_idle/before", || {
        m_tmsi = (m_tmsi + 1) % HOT_DEVICES;
        baseline.route_idle_transition(black_box(m_tmsi))
    });
    let mut mlb = optimized_mlb();
    let mut m_tmsi: u32 = 0;
    c.time("mlb_route_idle/after", || {
        m_tmsi = (m_tmsi + 1) % HOT_DEVICES;
        mlb.route_idle_transition(black_box(m_tmsi))
    });

    // --- Sim arrival generation (per-device buffer reuse) --------------------
    // Before: the seed allocated a fresh Vec per device inside
    // device_stream; after: one reused buffer. The RNG draws dominate,
    // so this entry tracks the smaller win for the perf trajectory.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    c.time("sim_poisson_sweep/before", || {
        let mut total = 0usize;
        for _ in 0..64 {
            let arrivals = scale_sim::poisson_arrivals(black_box(&mut rng), 200.0, 0.5);
            total += arrivals.len();
        }
        total
    });
    let mut rng = StdRng::seed_from_u64(9);
    let mut buf = Vec::new();
    c.time("sim_poisson_sweep/after", || {
        let mut total = 0usize;
        for _ in 0..64 {
            scale_sim::poisson_arrivals_into(black_box(&mut rng), 200.0, 0.5, &mut buf);
            total += buf.len();
        }
        total
    });

    crypto_section(&mut c);

    // --- Summarize -----------------------------------------------------------
    let ns = &c.ns;
    let pairs = [
        (
            "ring_primary",
            "BTreeMap ring, Vec<u8> key + streaming MD5 per lookup",
            "sorted-Vec ring, borrowed key bytes + one-shot MD5",
        ),
        (
            "ring_replicas_r2",
            "allocating distinct-node walk over BTreeMap range",
            "replicas_each visitor walk, inline seen buffer",
        ),
        (
            "mlb_route_idle",
            "replica Vec per route + HashMap load table",
            "epoch route cache + memoized positions + dense loads",
        ),
        (
            "sim_poisson_sweep",
            "fresh arrival Vec per device",
            "one reused arrival buffer (poisson_arrivals_into)",
        ),
    ];
    let mut entries = Vec::new();
    println!("# routing hot-path before/after (ns per op)");
    for (bench, before_desc, after_desc) in pairs {
        let before_ns = ns[&format!("{bench}/before")];
        let after_ns = ns[&format!("{bench}/after")];
        let speedup = before_ns / after_ns;
        println!("{bench:>18}: {before_ns:>10.1} -> {after_ns:>8.1}  ({speedup:.1}x)");
        entries.push(BenchEntry {
            bench: bench.to_string(),
            before: before_desc.to_string(),
            after: after_desc.to_string(),
            before_ns,
            after_ns,
            speedup,
        });
    }

    let dir = if Path::new("results").exists() { "results" } else { "." };
    write_json(&format!("{dir}/BENCH_routing.json"), &entries);

    let crypto_path = format!("{dir}/BENCH_crypto.json");
    let before = match parent_run(before_arg.as_deref(), "BENCH_crypto.json") {
        Some(parent_run) => crypto_column(&parent_run, "after_ns"),
        None => crypto_column(&crypto_path, "before_ns"),
    };
    println!("# crypto kernels, parent commit -> this build (ns per op)");
    let crypto: Vec<CryptoEntry> = CRYPTO_BENCHES
        .iter()
        .map(|&(bench, what)| {
            let after_ns = ns[&format!("crypto/{bench}")];
            let before_ns = before.get(bench).copied();
            let speedup = before_ns.map(|b| b / after_ns);
            match (before_ns, speedup) {
                (Some(b), Some(x)) => println!("{bench:>28}: {b:>8.1} -> {after_ns:>8.1}  ({x:.1}x)"),
                _ => println!("{bench:>28}:        ? -> {after_ns:>8.1}"),
            }
            CryptoEntry {
                bench: bench.to_string(),
                what: what.to_string(),
                before_ns,
                after_ns,
                speedup,
            }
        })
        .collect();
    write_json(&crypto_path, &crypto);

    let relay_path = format!("{dir}/BENCH_relay.json");
    let relay_parent = parent_run(before_arg.as_deref(), "BENCH_relay.json");
    let column = |c: &str| match &relay_parent {
        Some(parent_run) => crypto_column(parent_run, &format!("after_{c}")),
        None => crypto_column(&relay_path, &format!("before_{c}")),
    };
    let (before_ns, before_allocs) = (column("ns"), column("allocs"));
    let after = relay_section();
    println!("# wire relay, parent commit -> this build (ns, allocations per message)");
    let relay: Vec<RelayEntry> = RELAY_BENCHES
        .iter()
        .map(|&(bench, what)| {
            let (after_ns, after_allocs) = after[bench];
            let entry = RelayEntry {
                bench: bench.to_string(),
                what: what.to_string(),
                before_ns: before_ns.get(bench).copied(),
                after_ns,
                before_allocs: before_allocs.get(bench).copied(),
                after_allocs,
            };
            match (entry.before_ns, entry.before_allocs) {
                (Some(ns), Some(allocs)) => println!(
                    "{bench:>28}: {ns:>8.1} -> {after_ns:>8.1} ns  {allocs:>6.2} -> {after_allocs:>6.2} allocs"
                ),
                _ => println!(
                    "{bench:>28}:        ? -> {after_ns:>8.1} ns       ? -> {after_allocs:>6.2} allocs"
                ),
            }
            entry
        })
        .collect();
    write_json(&relay_path, &relay);
}
