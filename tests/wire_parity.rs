//! Wire-vs-in-process parity: the identical seeded attach / Service-
//! Request / TAU mix driven three ways — through the multi-process
//! socket deployment (`scale_wired` child processes over sctplite/TCP),
//! through the in-process shuttle (same sans-IO role logic, message
//! queue instead of sockets), and through the in-process `scale_out`
//! cluster driver — must produce identical per-outcome counts.
//!
//! This is the shard-invariance pattern from `scale_out` lifted across
//! the process boundary: moving *where* the protocol logic runs (same
//! thread, other thread, other process) must never change *what* it
//! computes. Wall-clock is the only thing allowed to differ — that gap
//! is what the `wire_load` bench measures.

use scale_sim::{run_scale_out, run_shuttle, spawn_topology, WireMode, WireRunConfig};

/// Small enough for a debug-mode CI run, large enough that every
/// procedure class, both MMP processes and the replication path fire.
fn parity_cfg() -> WireRunConfig {
    WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 8,
        replication: 2,
        ring_tokens: 64,
        seed: 42,
        n_ues: 300,
        ops_per_ue: 2,
        mode: WireMode::Closed { window: 24 },
    }
}

#[test]
fn socket_deployment_matches_shuttle_and_scale_out() {
    let cfg = parity_cfg();
    let bin = env!("CARGO_BIN_EXE_scale_wired");

    let dep = spawn_topology(bin, &cfg).expect("spawn wire topology");
    let outcome = dep.finish();
    assert!(outcome.clean_exit, "wire deployment exited uncleanly");
    let wire = outcome.counts;

    // Clean run: every session completes, nothing shed/rejected/errored.
    assert_eq!(wire.enb.sessions_done, cfg.n_ues as u64);
    assert_eq!(wire.enb.sessions_shed, 0);
    assert_eq!(wire.enb.rejects, 0);
    assert_eq!(wire.enb.errors, 0);
    assert_eq!(wire.mmp.stats.errors, 0);
    assert_eq!(wire.mmp.wire_errors, 0);
    assert_eq!(wire.mlb.errors, 0);
    assert_eq!(wire.mlb.dropped, 0);
    assert_eq!(wire.reconnects, 0);

    // Sockets vs shuttle: byte-for-byte identical counts, down to the
    // MLB router statistics and the local/remote replica split.
    let shuttle = run_shuttle(&cfg);
    assert_eq!(wire, shuttle, "socket deployment diverged from shuttle");

    // Sockets vs the in-process cluster driver: identical per-outcome
    // engine counts on the same seeded workload.
    let twin = run_scale_out(&cfg.scale_out_twin());
    assert_eq!(wire.mmp.stats.attaches, twin.counts.attaches);
    assert_eq!(wire.mmp.stats.service_requests, twin.counts.service_requests);
    assert_eq!(wire.mmp.stats.taus, twin.counts.taus);
    assert_eq!(wire.mmp.stats.idles, twin.counts.idles);
    assert_eq!(wire.mmp.stats.messages, twin.counts.messages);
    assert_eq!(
        wire.mmp.stats.replicas_imported,
        twin.counts.replicas_imported
    );
    assert_eq!(wire.mmp.contexts_held, twin.counts.contexts_held);
    assert_eq!(wire.mmp.stats.rejects, twin.counts.rejects);
    assert_eq!(wire.mmp.stats.errors, twin.counts.errors);
}

#[test]
fn socket_deployment_is_deterministic_run_to_run() {
    let cfg = WireRunConfig {
        n_ues: 150,
        ..parity_cfg()
    };
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let a = spawn_topology(bin, &cfg).expect("spawn A").finish();
    let b = spawn_topology(bin, &cfg).expect("spawn B").finish();
    assert!(a.clean_exit && b.clean_exit);
    assert_eq!(a.counts, b.counts, "same seed, same counts over sockets");
}

#[test]
fn open_loop_socket_run_settles_every_admitted_session() {
    // Open-loop drive at a rate the deployment can absorb: nothing is
    // shed, every arrival completes, and the per-outcome engine counts
    // still reconcile with the access side.
    let cfg = WireRunConfig {
        n_ues: 200,
        mode: WireMode::Open {
            rate_hz: 400.0,
            max_in_flight: 48,
        },
        ..parity_cfg()
    };
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let outcome = spawn_topology(bin, &cfg).expect("spawn").finish();
    assert!(outcome.clean_exit);
    let c = outcome.counts;
    assert_eq!(c.enb.sessions_done + c.enb.sessions_shed, cfg.n_ues as u64);
    assert_eq!(c.enb.sessions_shed, 0, "rate is far below capacity");
    assert_eq!(c.enb.attaches, c.mmp.stats.attaches);
    assert_eq!(c.enb.service_requests, c.mmp.stats.service_requests);
    assert_eq!(c.enb.taus, c.mmp.stats.taus);
    assert_eq!(c.enb.errors + c.mmp.stats.errors + c.mmp.wire_errors, 0);
}

#[test]
fn fleet_ready_barrier_holds_under_cpu_contention() {
    // Two spinning threads take both cores, so worker start-up and the
    // MLB's handling of their `Hello`s are slow relative to the cells.
    // Without the `READY` barrier a cell's first attach can be routed
    // to a worker the MLB does not know yet, is dropped, and the run
    // hangs one session short; with it, ten runs in a row are clean.
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = AtomicBool::new(false);
    let cfg = WireRunConfig::smoke();
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let outcomes: Vec<_> = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let outcomes = (0..10)
            .map(|_| spawn_topology(bin, &cfg).expect("spawn").finish())
            .collect();
        stop.store(true, Ordering::Relaxed);
        outcomes
    });
    for (run, outcome) in outcomes.iter().enumerate() {
        assert!(outcome.clean_exit, "run {run} exited uncleanly");
        assert_eq!(outcome.counts.mlb.dropped, 0, "run {run} dropped at the MLB");
        assert_eq!(outcome.counts.enb.sessions_done, cfg.n_ues as u64, "run {run}");
    }
}

#[test]
fn hostile_peers_are_dropped_and_cost_the_fleet_nothing() {
    // While a closed-loop run is in progress, two strangers dial the
    // MLB, say a well-formed `Hello`, then talk nonsense — one inside
    // valid sctplite frames, one as raw bytes with a 4 GiB length word.
    // Each must find its link dropped, and the run must finish with the
    // counts of an undisturbed one.
    use scale_core::wire::{WireMsg, WireRole};
    use scale_sctplite::{frame_into, ppid, Association, Deframer, SctpStream, StreamEvent};
    use std::io::{Read, Write};
    use std::time::Duration;

    let cfg = WireRunConfig {
        n_ues: 1000,
        ..WireRunConfig::smoke()
    };
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let dep = spawn_topology(bin, &cfg).expect("spawn wire topology");
    // Ids no cell or worker of this topology has, so neither stranger
    // displaces a real link.
    let hello = |role| WireMsg::Hello { role, id: 1000 }.encode();

    let addr = dep.addr().to_string();
    let framed = std::thread::spawn(move || {
        tokio::runtime::block_on(async {
            let mut s = SctpStream::connect(&addr, 0x6666).await.expect("dial MLB");
            s.send(1, ppid::SCALE_STATE, hello(WireRole::Enb)).await.unwrap();
            // The ack proves the MLB has read past the Hello, so the
            // garbage arrives on an accepted link, in a later read.
            s.ping(1).await.unwrap();
            assert!(matches!(
                s.next_event().await,
                Ok(StreamEvent::HeartbeatAck { nonce: 1 })
            ));
            let garbage = bytes::Bytes::from_static(&[0xFF; 40]);
            assert!(WireMsg::decode(garbage.clone()).is_err());
            s.send(1, ppid::SCALE_STATE, garbage).await.unwrap();
            s.next_event().await
        })
    });

    let addr = dep.addr().to_string();
    let raw = std::thread::spawn(move || {
        let mut tcp = std::net::TcpStream::connect(&addr).expect("dial MLB");
        tcp.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut assoc = Association::connect(0x7777, 8);
        let mut d = Deframer::new();
        let mut wire = Vec::new();
        loop {
            while let Some(f) = assoc.poll_egress() {
                frame_into(&f, &mut wire);
            }
            tcp.write_all(&wire).unwrap();
            wire.clear();
            if assoc.is_established() {
                break;
            }
            let n = tcp.read(d.space()).unwrap();
            d.filled(n);
            while let Some(f) = d.next_frame().unwrap() {
                assoc.handle_frame(f).unwrap();
            }
        }
        assoc.send(1, ppid::SCALE_STATE, hello(WireRole::Mmp)).unwrap();
        while let Some(f) = assoc.poll_egress() {
            frame_into(&f, &mut wire);
        }
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0xAB; 64]);
        tcp.write_all(&wire).unwrap();
        // Dropped link: end of stream or a reset, not a timeout.
        let mut sink = [0u8; 64];
        loop {
            match tcp.read(&mut sink) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) => {
                    return !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                }
            }
        }
    });

    assert!(
        framed.join().unwrap().is_err(),
        "undecodable wire message must get the link dropped"
    );
    assert!(raw.join().unwrap(), "raw garbage must get the link dropped");

    let outcome = dep.finish();
    assert!(outcome.clean_exit, "wire deployment exited uncleanly");
    assert_eq!(outcome.counts, run_shuttle(&cfg), "the strangers changed the run");
}

#[test]
fn the_mlb_checks_what_it_routes_by_and_the_worker_checks_the_rest() {
    // The MLB forwards a PDU as the bytes it arrived as, having checked
    // the envelope, the framing of every IE and the IEs it routes by
    // (DESIGN.md §14.2). So, from a link that has said a well-formed
    // `Hello`: an uplink whose TAI is two bytes long — an IE the MLB
    // never reads — is routed and forwarded, and it is the worker that
    // refuses it, counts it, and carries on; an uplink whose IE framing
    // is broken, or whose envelope is, gets the link dropped at the
    // MLB. Neither costs the fleet anything.
    use scale_core::wire::{WireMsg, WireRole};
    use scale_s1ap::S1apPdu;
    use scale_sctplite::{ppid, SctpStream, StreamEvent};

    let cfg = WireRunConfig {
        n_ues: 1000,
        ..WireRunConfig::smoke()
    };
    let ie = |id: u16, value: &[u8]| {
        let mut v = id.to_be_bytes().to_vec();
        v.extend_from_slice(&(value.len() as u16).to_be_bytes());
        v.extend_from_slice(value);
        v
    };
    // An attach for an identity no cell of the run uses, from stranger
    // `i`'s own eNB id, `ENB_BASE + 1000 + i`: no cell of the run has it,
    // and the MLB ends a link whose uplinks name any id but its own.
    let uplink = |i: u8, pdu: Vec<u8>| {
        let mut v = vec![2, 0x01, 0, 0x03, 0xE8 + i, 1, 0x7F, 0, 0, 1];
        v.extend_from_slice(&(pdu.len() as u32).to_be_bytes());
        v.extend_from_slice(&pdu);
        bytes::Bytes::from(v)
    };
    let initial_ue = |tai: &[u8]| {
        [&[0, 12][..], &ie(8, &[0, 0, 0, 9]), &ie(26, b"nas"), &ie(67, tai), &ie(134, &[3])]
            .concat()
    };
    let sound = uplink(1, initial_ue(&[0x00, 0xf1, 0x10, 0, 1]));
    assert!(matches!(
        WireMsg::decode(sound),
        Ok(WireMsg::Uplink { enb_id: 0x0100_03E9, attach_hint: Some(0x7F00_0001), .. })
    ));
    let bad_tai = |i| uplink(i, initial_ue(&[0x00, 0xf1]));
    assert!(S1apPdu::peek(&bad_tai(0)[14..]).is_ok() && WireMsg::decode(bad_tai(0)).is_err());
    let mut broken = initial_ue(&[0x00, 0xf1, 0x10, 0, 1]);
    broken.truncate(broken.len() - 1);
    let bad_framing = uplink(0, broken);
    let mut bad_envelope = bad_tai(1).to_vec();
    bad_envelope[13] += 1; // the PDU length, one more than is there
    let bad_envelope = bytes::Bytes::from(bad_envelope);

    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let dep = spawn_topology(bin, &cfg).expect("spawn wire topology");
    let strangers: Vec<_> = [(bad_tai(0), bad_framing), (bad_tai(1), bad_envelope)]
        .into_iter()
        .enumerate()
        .map(|(i, (forwarded, refused))| {
            let addr = dep.addr().to_string();
            std::thread::spawn(move || {
                tokio::runtime::block_on(async {
                    let mut s = SctpStream::connect(&addr, 0x8800 + i as u32).await.expect("dial");
                    let hello = WireMsg::Hello {
                        role: WireRole::Enb,
                        id: 1000 + i as u32,
                    };
                    s.send(1, ppid::SCALE_STATE, hello.encode()).await.unwrap();
                    s.send(1, ppid::SCALE_STATE, forwarded).await.unwrap();
                    // Still answered: the malformed TAI was not the
                    // MLB's to mind.
                    s.ping(7).await.unwrap();
                    assert!(matches!(
                        s.next_event().await,
                        Ok(StreamEvent::HeartbeatAck { nonce: 7 })
                    ));
                    s.send(1, ppid::SCALE_STATE, refused).await.unwrap();
                    s.next_event().await
                })
            })
        })
        .collect();
    for s in strangers {
        assert!(s.join().unwrap().is_err(), "a broken envelope or IE framing drops the link");
    }

    let outcome = dep.finish();
    assert!(outcome.clean_exit, "wire deployment exited uncleanly");
    let (wire, shuttle) = (outcome.counts, run_shuttle(&cfg));
    assert_eq!(wire.mmp.wire_errors, 2, "each worker-refused uplink is counted there");
    assert_eq!(wire.mlb.routed_attaches, shuttle.mlb.routed_attaches + 2);
    assert_eq!((wire.mlb.dropped, wire.mlb.errors, wire.reconnects), (0, 0, 0));
    assert_eq!(wire.enb, shuttle.enb, "the strangers changed the run");
    assert_eq!(wire.mmp.stats, shuttle.mmp.stats);
    assert_eq!(wire.mmp.contexts_held, shuttle.mmp.contexts_held);
}

#[test]
fn silent_and_babbling_peers_do_not_hold_up_the_accept_loop() {
    // Before any worker dials, two strangers connect to the MLB: one
    // never says a word, one opens with bytes that are no sctplite
    // handshake. Each costs the MLB the thread that was given its
    // connection, for the link budget at most. The accept loop takes
    // the next connection regardless, so the fleet links, the MLB
    // prints `READY` (or `spawn_topology_with` fails after 20 s) and
    // the run is an undisturbed one.
    use scale_sim::spawn_topology_with;
    use std::io::Write;
    use std::net::TcpStream;

    let cfg = WireRunConfig::smoke();
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let mut strangers = Vec::new();
    let dep = spawn_topology_with(bin, &cfg, |index, addr| {
        if index == 0 {
            strangers.push(TcpStream::connect(addr).expect("silent peer dials"));
            let mut babbler = TcpStream::connect(addr).expect("babbling peer dials");
            babbler.write_all(&[0xFF; 64]).unwrap();
            strangers.push(babbler);
        }
        false
    })
    .expect("the fleet must link past the strangers");
    let outcome = dep.finish();
    assert!(outcome.clean_exit, "wire deployment exited uncleanly");
    assert_eq!(outcome.counts, run_shuttle(&cfg), "the strangers changed the run");
    drop(strangers);
}

#[test]
fn stalled_worker_does_not_stall_the_fleet() {
    // Worker 1 is played from here: it says a valid `Hello` and never
    // reads a byte. While a paced run proceeds it also floods the MLB
    // with replica blobs addressed to its own VMs, which the MLB routes
    // straight back at it: its socket fills, then its egress buffer at
    // the MLB reaches the bound. From there the MLB must shed what is
    // headed that way instead of waiting for room — it routes under a
    // lock, and the stalled worker's own reader is among those waiting
    // for it — until the unanswered heartbeats take the worker down and
    // its procedures are failed back to their cells, which re-drive
    // them on worker 0. A build that blocks in that send hangs here.
    use scale_core::wire::{WireMsg, WireRole};
    use scale_sctplite::{ppid, SctpStream};
    use scale_sim::spawn_topology_with;
    use std::time::Duration;

    fn rss_kb(pid: u32) -> Option<usize> {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    let cfg = WireRunConfig {
        n_ues: 1000,
        // Three holders out of four VMs, two VMs a worker: every device
        // has a holder on worker 0, so the run can finish without
        // worker 1 ever coming back (the wire path does not re-home a
        // device whose whole holder set is down, DESIGN.md §14.3).
        total_vms: 4,
        replication: 3,
        // Paced, so the stall, the flood and the take-down all land
        // mid-run at any build speed; the cap covers the population.
        mode: WireMode::Open {
            rate_hz: 500.0,
            max_in_flight: 1000,
        },
        ..WireRunConfig::smoke()
    };
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let mut stalled = None;
    let mut dep = spawn_topology_with(bin, &cfg, |index, addr| {
        if index != 1 {
            return false;
        }
        stalled = Some(tokio::runtime::block_on(async {
            let mut s = SctpStream::connect(addr, 0x5741).await.expect("dial MLB");
            let hello = WireMsg::Hello {
                role: WireRole::Mmp,
                id: 1,
            };
            s.send(1, ppid::SCALE_STATE, hello.encode()).await.unwrap();
            s
        }));
        true
    })
    .expect("spawn wire topology");
    let mut stalled = stalled.expect("worker 1 was ours to play");

    let mlb = dep.mlb_pid();
    let rss_before = rss_kb(mlb).expect("MLB is running");
    // 30 MB through a link whose far end takes none of it back: far
    // more than two socket buffers and 4,096 frames hold.
    let blob = WireMsg::Replicate {
        vm: cfg.topo().vms_of(1)[0],
        blob: bytes::Bytes::from(vec![0xAB; 512]),
    }
    .encode();
    for _ in 0..60_000 {
        tokio::runtime::block_on(stalled.send(1, ppid::SCALE_STATE, blob.clone()))
            .expect("the MLB keeps reading from a worker it cannot write to");
    }
    let mut rss_peak = rss_before;
    while dep.cells_exited() < cfg.n_enbs {
        rss_peak = rss_peak.max(rss_kb(mlb).unwrap_or(0));
        std::thread::sleep(Duration::from_millis(20));
    }
    let outcome = dep.finish();
    drop(stalled);

    assert!(outcome.clean_exit, "wire deployment exited uncleanly");
    let c = outcome.counts;
    assert_eq!(c.enb.sessions_done, cfg.n_ues as u64, "lost sessions");
    assert_eq!(c.enb.sessions_shed, 0);
    assert_eq!(c.enb.errors, 0, "access-side errors");
    assert!(
        c.enb.recoveries > 0,
        "procedures routed to the stalled worker must come back and be re-driven"
    );
    assert!(c.mlb.dropped > 0, "what the MLB shed must be reported");
    let grown_kb = rss_peak.saturating_sub(rss_before);
    assert!(
        grown_kb < 8 * 1024,
        "MLB resident set grew {grown_kb} KiB behind one stalled worker"
    );
}
