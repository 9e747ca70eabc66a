//! E-series failover mirror over real sockets: the MLB side of an S1
//! association monitors its MMP with HEARTBEAT probes, detects the peer
//! crashing (abrupt TCP loss, no SHUTDOWN handshake), reconnects with
//! the same exponential-backoff policy the simulator uses, and re-drives
//! an attach against the restarted MMP — the prototype analogue of the
//! chaos sweep's kill/recover cycle.
//!
//! `mmp_process_kill_recovers_with_zero_lost_sessions` scales the same
//! loop up to the full multi-process deployment: SIGKILL a live MMP
//! *process* mid-run and require the failover loop (link loss /
//! heartbeat miss → mark-down → replica failover → re-attach recovery →
//! reconnect) to finish every session at R = 2.

use scale_core::failover::{BackoffPolicy, HealthConfig, HealthTracker};
use scale_epc::{EnbEvent, EnodeB, Hss, Sgw, Ue, UeState};
use scale_mme::{Incoming, MmeConfig, MmeCore, Outgoing};
use scale_nas::{Plmn, Tai};
use scale_s1ap::S1apPdu;
use scale_sctplite::{ppid, SctpListener, SctpStream, StreamEvent, TransportError};
use std::time::{Duration, Instant};

const ENB_ID: u32 = 0x0100_0000;

/// Stream id the test uses as a poison pill: a message here makes the
/// MMP task drop the socket abruptly — no SHUTDOWN chunk, exactly what
/// a crashed VM looks like on the wire.
const CRASH_STREAM: u16 = 7;

/// MMP-side task: one association, full engine + HSS + S-GW. Resolves
/// to `true` only on the clean SHUTDOWN handshake.
async fn mmp_server(mut listener: SctpListener) -> bool {
    let mut stream = listener.accept().await.expect("accept");
    let mut mme = MmeCore::new(MmeConfig::default());
    let mut hss = Hss::new(99);
    hss.provision_range("00101", 32);
    let mut sgw = Sgw::new([10, 0, 0, 2]);

    loop {
        let (sid, p, payload) = match stream.recv().await {
            Ok(m) => m,
            Err(TransportError::Closed) => return true,
            Err(_) => return false,
        };
        if sid == CRASH_STREAM {
            return false; // simulated crash: vanish mid-association
        }
        assert_eq!(p, ppid::S1AP);
        let pdu = S1apPdu::decode(payload).expect("s1ap decode");
        let mut pending = vec![Incoming::S1ap { enb_id: ENB_ID, pdu }];
        while let Some(ev) = pending.pop() {
            let outs = mme.handle(ev).expect("mme");
            for out in outs {
                #[allow(clippy::collapsible_match)]
                match out {
                    Outgoing::S1ap { pdu, .. } => {
                        if stream.send(1, ppid::S1AP, pdu.encode()).await.is_err() {
                            return false;
                        }
                    }
                    Outgoing::S6a(msg) => pending.push(Incoming::S6a(hss.handle(&msg))),
                    Outgoing::S11(msg) => {
                        if let Some(resp) = sgw.handle(msg) {
                            pending.push(Incoming::S11(resp));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Drive the S1 Setup + full attach pump until the UE reports Active.
async fn setup_and_attach(client: &mut SctpStream, enb: &mut EnodeB, ue: &mut Ue) {
    client
        .send(0, ppid::S1AP, enb.s1_setup_request().encode())
        .await
        .unwrap();
    let (_, _, resp) = client.recv().await.unwrap();
    assert!(matches!(
        S1apPdu::decode(resp).unwrap(),
        S1apPdu::S1SetupResponse { .. }
    ));

    let initial = enb.connect(0, ue.attach_request(), None, 3);
    client.send(1, ppid::S1AP, initial.encode()).await.unwrap();

    let mut hops = 0;
    while ue.state != UeState::Active {
        hops += 1;
        assert!(hops < 50, "attach did not converge");
        let (_, _, payload) = client.recv().await.unwrap();
        let pdu = S1apPdu::decode(payload).unwrap();
        for ev in enb.handle_from_mme(pdu) {
            match ev {
                EnbEvent::ToMme(p) => {
                    client.send(1, ppid::S1AP, p.encode()).await.unwrap();
                }
                EnbEvent::NasToUe { nas, .. } => {
                    for ue_ev in ue.handle_nas(nas).expect("ue nas") {
                        if let scale_epc::UeEvent::SendNas(up) = ue_ev {
                            let enb_ue_id = enb.enb_ue_id_of(0).unwrap();
                            if let Some(p) = enb.uplink(enb_ue_id, up) {
                                client.send(1, ppid::S1AP, p.encode()).await.unwrap();
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[tokio::test]
async fn crash_detect_reconnect_with_backoff_and_reattach() {
    let listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server_a = tokio::spawn(mmp_server(listener));

    let plmn = Plmn::test();
    let tai = Tai::new(plmn, 1);
    let mut client = SctpStream::connect(&addr, 0xe_c0).await.unwrap();
    let mut enb = EnodeB::new(ENB_ID, "enb-failover", vec![tai]);
    let mut ue = Ue::new("00101000000007", plmn, tai);
    setup_and_attach(&mut client, &mut enb, &mut ue).await;

    // Phase 1: healthy heartbeat rounds — probe, ack, counters stay clear.
    let mut health = HealthTracker::new(HealthConfig::default());
    for nonce in 1..=3u64 {
        client.ping(nonce).await.unwrap();
        // Drain any trailing downlink left over from the attach pump;
        // the probe is answered in order behind it.
        loop {
            match client.next_event().await.unwrap() {
                StreamEvent::HeartbeatAck { nonce: n } => {
                    assert_eq!(n, nonce);
                    health.heartbeat_ok(0);
                    health.record_ok(0);
                    break;
                }
                StreamEvent::Data { .. } => {}
            }
        }
    }
    assert!(!health.is_down(0));

    // Phase 2: trip the crash. A message on the poison stream makes the
    // server drop the socket with no SHUTDOWN.
    let poke = S1apPdu::Paging {
        ue_paging_id: (1, 7),
        tai_list: vec![tai],
    };
    client
        .send(CRASH_STREAM, ppid::S1AP, poke.encode())
        .await
        .unwrap();
    assert!(
        !server_a.await.unwrap(),
        "server A must report an abrupt (crash) exit"
    );

    // Phase 3: MLB-side detection. Probes now fail — either the ping
    // write hits a dead socket or the event loop sees EOF-without-
    // SHUTDOWN. Consecutive errors cross the threshold and the MMP is
    // declared down, exactly as MlbRouter::record_error does it.
    let mut probes = 0u64;
    while !health.is_down(0) {
        probes += 1;
        assert!(probes < 16, "monitor never declared the dead MMP down");
        let dead = match client.ping(100 + probes).await {
            Err(_) => true,
            Ok(()) => !matches!(
                client.next_event().await,
                Ok(StreamEvent::HeartbeatAck { .. })
            ),
        };
        if dead {
            health.record_error(0);
        } else {
            health.record_ok(0);
        }
    }
    assert!(
        probes >= HealthConfig::default().error_threshold as u64,
        "down-marking must take the configured number of consecutive errors"
    );
    drop(client);

    // Phase 4: reconnect with exponential backoff. The first attempts
    // hit a dead port (connection refused); the MMP "restarts" (rebinds
    // the same port) while the MLB is backing off, and the next attempt
    // lands. Backoff delays come from the shared policy, so the retry
    // cadence matches the simulator's.
    let backoff = BackoffPolicy::default();
    let started = Instant::now();
    let mut server_b = None;
    let mut attempt = 0u32;
    let mut client2 = loop {
        match SctpStream::connect(&addr, 0xe_c1).await {
            Ok(s) => break s,
            Err(_) => {
                assert!(
                    backoff.may_retry(attempt + 1, started.elapsed().as_secs_f64()),
                    "retry budget exhausted before the MMP came back"
                );
                let delay = backoff.delay(attempt + 1, 0xfa11);
                tokio::time::sleep(Duration::from_secs_f64(delay)).await;
                attempt += 1;
                if attempt == 2 {
                    // MMP restart: rebind the same endpoint.
                    let l = SctpListener::bind(&addr).await.unwrap();
                    server_b = Some(tokio::spawn(mmp_server(l)));
                }
            }
        }
    };
    assert!(attempt >= 2, "backoff loop must have retried a dead port");
    health.mark_up(0);

    // Phase 5: the restarted MMP has no UE state (fresh engine), so the
    // UE re-attaches from scratch — the paper's recovery path for
    // Active-mode contexts whose S1AP ids could not be promoted.
    let mut enb2 = EnodeB::new(ENB_ID, "enb-failover", vec![tai]);
    let mut ue2 = Ue::new("00101000000007", plmn, tai);
    setup_and_attach(&mut client2, &mut enb2, &mut ue2).await;
    assert!(ue2.guti.is_some());
    assert!(ue2.has_security());

    // Phase 6: heartbeats are green again and teardown is the clean
    // handshake, not a crash.
    client2.ping(999).await.unwrap();
    loop {
        match client2.next_event().await.unwrap() {
            StreamEvent::HeartbeatAck { nonce } => {
                assert_eq!(nonce, 999);
                break;
            }
            StreamEvent::Data { .. } => {}
        }
    }
    client2.shutdown().await.expect("clean shutdown");
    drop(client2);
    assert!(
        server_b.take().unwrap().await.unwrap(),
        "server B must classify the teardown as clean"
    );
}

/// Chaos over real sockets (ISSUE 9 satellite): kill a live MMP worker
/// process mid-run with SIGKILL, restart it, and require the run to
/// complete with zero lost sessions.
///
/// What must happen underneath, in order:
/// 1. the MLB's reader sees the abrupt link loss (or its heartbeat
///    probes go unanswered) and marks every VM of the dead worker down;
/// 2. in-flight procedures on those VMs are failed back to their eNBs,
///    which recover by re-attaching from scratch (`recoveries` ticks);
/// 3. Idle-mode devices whose serving holder died are routed to the
///    surviving replica holder (R = 2) without the access side even
///    noticing;
/// 4. the restarted process re-dials the MLB (`reconnects` ticks) and
///    its VMs are marked routable again — the revived engines are
///    *empty*, so a device whose entire holder set lived on the dead
///    process (replicas are not process-disjoint) gets Service/TAU
///    Reject #9 from the blank engine and recovers by a fresh IMSI
///    attach (`rejects` ticks alongside `recoveries`, §4.6).
#[test]
fn mmp_process_kill_recovers_with_zero_lost_sessions() {
    use scale_sim::{spawn_topology, WireMode, WireRunConfig};

    let cfg = WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 8,
        replication: 2,
        ring_tokens: 64,
        seed: 4242,
        n_ues: 1500,
        ops_per_ue: 2,
        // Paced, not self-clocked: sessions arrive over 3 s however
        // fast the fleet is (debug or release, batched or not), so the
        // kill at 0.8 s and the restart at 1.3 s land mid-run by
        // construction. The in-flight cap covers the population, so
        // nothing is shed while a worker is away.
        mode: WireMode::Open {
            rate_hz: 500.0,
            max_in_flight: 1500,
        },
    };
    let bin = env!("CARGO_BIN_EXE_scale_wired");
    let mut dep = spawn_topology(bin, &cfg).expect("spawn wire topology");

    // Let the deployment get well into the workload, then pull the rug.
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(
        dep.cells_exited(),
        0,
        "the run completed before the kill: this test exercised nothing"
    );
    dep.kill_mmp(1).expect("SIGKILL worker 1");
    std::thread::sleep(Duration::from_millis(500));
    dep.respawn_mmp(1).expect("restart worker 1");
    assert_eq!(
        dep.cells_exited(),
        0,
        "the run completed before the restart: reconnection was not exercised"
    );

    let outcome = dep.finish();
    assert!(outcome.clean_exit, "deployment did not drain cleanly");
    let c = outcome.counts;

    // Zero lost requests: every session runs to completion — the ones
    // caught mid-procedure on the dead worker via re-attach recovery,
    // the Idle ones via the surviving replica holder.
    assert_eq!(c.enb.sessions_done, cfg.n_ues as u64, "lost sessions");
    assert_eq!(c.enb.sessions_shed, 0);
    assert_eq!(c.enb.errors, 0, "access-side errors");
    // Identity-unknown rejects are the *designed* recovery signal for
    // devices whose whole holder set died (§4.6) — allowed, but every
    // one of them must have turned into a successful re-attach.
    assert!(
        c.enb.rejects <= c.enb.recoveries,
        "a reject that did not recover: {} rejects, {} recoveries",
        c.enb.rejects,
        c.enb.recoveries
    );
    assert!(
        c.enb.recoveries > 0,
        "the kill landed mid-run, so some procedures must have recovered"
    );
    assert!(c.reconnects >= 1, "restarted worker must have re-dialed");
    // The engine side completed at least what the access side observed
    // (the killed process took its pre-kill counters with it, so the
    // engine totals may legitimately undercount).
    assert!(c.mmp.stats.attaches >= c.enb.attaches.saturating_sub(c.enb.recoveries));
}
