//! A peer that stops reading must cost its link's sender — and only
//! that sender — a blocked call at the egress bound: `pending()` never
//! passes the bound, memory stays flat however much is offered, other
//! links keep flowing, and the blocked sender is released with an error
//! when the peer finally goes away.
//!
//! One test in its own binary, so the resident-set reading is not
//! disturbed by neighbours.

use bytes::Bytes;
use scale_sctplite::chunk::ppid;
use scale_sctplite::{SctpListener, SctpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAP: usize = 64;
const PAYLOAD: usize = 16 * 1024;
/// 320 MB, far beyond what the kernel's socket buffers absorb.
const OFFERED: usize = 20_000;

fn rss_kb() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[tokio::test]
async fn a_peer_that_stops_reading_blocks_only_its_own_sender() {
    let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    // The stalled peer: handshakes, then never reads. Held open until
    // the test says otherwise.
    let (release, released) = channel::<()>();
    let stalled_addr = addr.clone();
    let stalled = std::thread::spawn(move || {
        let s = tokio::runtime::block_on(SctpStream::connect(&stalled_addr, 0x51)).unwrap();
        let _ = released.recv();
        drop(s);
    });
    let (tx, _rx) = listener.accept().await.unwrap().into_split(CAP);
    assert_eq!(tx.capacity(), CAP);

    let rss_before = rss_kb();
    let sent = Arc::new(AtomicUsize::new(0));
    let sender = {
        let (tx, sent) = (tx.clone(), Arc::clone(&sent));
        std::thread::spawn(move || {
            let payload = Bytes::from(vec![0x42u8; PAYLOAD]);
            for _ in 0..OFFERED {
                tx.send(1, ppid::S1AP, payload.clone())?;
                sent.fetch_add(1, Ordering::Relaxed);
            }
            Ok::<(), scale_sctplite::TransportError>(())
        })
    };

    // The sender runs until the kernel buffers and then the egress
    // buffer are full, and stops there: the queue sits at its bound and
    // the accepted count no longer moves.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = (usize::MAX, Instant::now());
    loop {
        let pending = tx.pending();
        assert!(pending <= CAP, "pending {pending} passed the bound {CAP}");
        let now = sent.load(Ordering::Relaxed);
        if now != last.0 {
            last = (now, Instant::now());
        } else if pending == CAP && last.1.elapsed() > Duration::from_millis(300) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sender never blocked ({now} sent)"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let accepted = sent.load(Ordering::Relaxed);
    assert!(accepted < OFFERED, "the sender was never held back");
    let grown_kb = rss_kb().saturating_sub(rss_before);
    assert!(
        grown_kb < 8 * 1024,
        "resident set grew {grown_kb} KiB for a {} KiB egress bound",
        CAP * PAYLOAD / 1024
    );

    // Another link on the same listener is untouched.
    let echo_addr = addr.clone();
    let echo_peer = std::thread::spawn(move || {
        tokio::runtime::block_on(async {
            let mut s = SctpStream::connect(&echo_addr, 0x52).await.unwrap();
            for i in 0..100u32 {
                s.send(1, ppid::S1AP, Bytes::from(i.to_be_bytes().to_vec()))
                    .await
                    .unwrap();
                let (_, _, back) = s.recv().await.unwrap();
                assert_eq!(&back[..], &i.to_be_bytes());
            }
            s.shutdown().await.unwrap();
        })
    });
    let (tx2, mut rx2) = listener.accept().await.unwrap().into_split(CAP);
    while let Ok((stream_id, p, payload)) = rx2.recv().await {
        tx2.send(stream_id, p, payload).unwrap();
    }
    echo_peer.join().unwrap();

    // Still blocked, at the same place.
    assert_eq!(sent.load(Ordering::Relaxed), accepted);
    assert_eq!(tx.pending(), CAP);

    // The peer goes away: the blocked sender gets an error, not a hang.
    release.send(()).unwrap();
    stalled.join().unwrap();
    assert!(sender.join().unwrap().is_err());
    assert_eq!(tx.pending(), 0, "a dead link holds nothing");
}
