//! Prototype-level failover observability: an MLB-side link monitor
//! pings its MMP over the tokio transport, records heartbeat RTTs in a
//! shared metrics registry, and counts the reconnect when the MMP dies
//! and a standby takes over — the runnable-prototype analogue of the
//! detection/failover counters the in-process cluster publishes.

use bytes::Bytes;
use scale_obs::{prometheus_text, Metric, Registry};
use scale_sctplite::chunk::ppid;
use scale_sctplite::{LinkMetrics, SctpListener, SctpStream, StreamEvent};
use std::sync::Arc;

/// Accept one association and pump its events (answering heartbeats)
/// until the peer goes away; serve `echoes` data messages first.
async fn mmp_task(mut listener: SctpListener, echoes: usize) {
    let mut s = listener.accept().await.unwrap();
    for _ in 0..echoes {
        let (sid, p, payload) = s.recv().await.unwrap();
        s.send(sid, p, payload).await.unwrap();
    }
    // Keep answering heartbeats until the client disconnects or shuts
    // the association down.
    while s.next_event().await.is_ok() {}
}

#[tokio::test]
async fn heartbeat_rtt_and_reconnect_are_recorded() {
    let registry = Arc::new(Registry::new());
    let metrics = LinkMetrics::register(&registry, "mlb_mmp0");

    // Primary MMP.
    let primary = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let primary_addr = primary.local_addr().unwrap().to_string();
    let primary_task = tokio::spawn(mmp_task(primary, 1));

    let mut link = SctpStream::connect(&primary_addr, 0x11).await.unwrap();
    link.attach_metrics(metrics.clone());

    // Liveness probes: each ack lands one RTT sample.
    for nonce in 0..5u64 {
        link.ping(nonce).await.unwrap();
        match link.next_event().await.unwrap() {
            StreamEvent::HeartbeatAck { nonce: got } => assert_eq!(got, nonce),
            other => panic!("expected heartbeat ack, got {other:?}"),
        }
    }
    assert_eq!(metrics.rtt().count(), 5);
    assert!(metrics.rtt().max_us() < 5_000_000, "loopback RTT sanity");

    // Data still flows.
    link.send(1, ppid::S1AP, Bytes::from_static(b"service-request"))
        .await
        .unwrap();
    let (_, _, payload) = link.recv().await.unwrap();
    assert_eq!(&payload[..], b"service-request");

    // Primary dies (task ends when we shut down; simulate crash by
    // standing up the standby and letting the primary drop us).
    link.shutdown().await.unwrap();
    primary_task.await.unwrap();
    // Probes on the dead association fail or vanish; either way no ack
    // (and no RTT sample) can arrive any more.
    let _ = link.ping(99).await;

    // Standby MMP: the monitor reconnects and the counter ticks.
    let standby = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let standby_addr = standby.local_addr().unwrap().to_string();
    let standby_task = tokio::spawn(mmp_task(standby, 1));

    link.reconnect(&standby_addr, 0x12).await.unwrap();
    assert_eq!(metrics.reconnects(), 1);

    // The re-established association carries probes into the SAME
    // registry series.
    link.ping(7).await.unwrap();
    loop {
        if let StreamEvent::HeartbeatAck { nonce } = link.next_event().await.unwrap() {
            assert_eq!(nonce, 7);
            break;
        }
    }
    assert_eq!(metrics.rtt().count(), 6);
    link.send(2, ppid::S1AP, Bytes::from_static(b"tau")).await.unwrap();
    let (_, _, payload) = link.recv().await.unwrap();
    assert_eq!(&payload[..], b"tau");
    link.shutdown().await.unwrap();
    standby_task.await.unwrap();

    // The link shows up in the exported registry.
    let text = prometheus_text(&registry);
    assert!(text.contains("scale_link_mlb_mmp0_heartbeat_rtt_us_count 6"));
    assert!(text.contains("scale_link_mlb_mmp0_reconnects_total 1"));
    let entries = registry.entries();
    assert!(entries
        .iter()
        .any(|e| matches!(e.metric, Metric::Histogram(_))
            && e.name == "scale_link_mlb_mmp0_heartbeat_rtt_us"));
}
