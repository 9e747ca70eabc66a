//! A split link written by whoever finds it idle (DESIGN.md §14.2)
//! must still be one ordered byte stream: concurrent senders never
//! interleave inside a frame or overtake their own earlier messages,
//! and a unit the socket took only part of is finished before anything
//! sent after it. Run under `--release` too — that is where a window
//! between numbering a message and queueing it is wide enough to lose
//! a race.

use bytes::Bytes;
use scale_sctplite::chunk::ppid;
use scale_sctplite::{SctpListener, SctpStream};
use std::time::{Duration, Instant};

const SENDERS: usize = 8;
const PER_SENDER: u32 = 5_000;

#[tokio::test]
async fn eight_senders_on_one_link_each_arrive_complete_and_in_order() {
    let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let reader = std::thread::spawn(move || {
        tokio::runtime::block_on(async {
            let mut s = SctpStream::connect(&addr, 0x61).await.unwrap();
            let mut next = [0u32; SENDERS];
            for _ in 0..SENDERS * PER_SENDER as usize {
                let (_, _, m) = s.recv().await.expect("link must survive the run");
                let (who, seq) = (
                    m[0] as usize,
                    u32::from_be_bytes(m[1..5].try_into().unwrap()),
                );
                assert_eq!(seq, next[who], "sender {who}: gap, duplicate or overtaking");
                next[who] += 1;
            }
            next
        })
    });
    // A bound below the offered backlog, so admission is exercised
    // along with the idle-link and queue-behind paths.
    let (tx, _rx) = listener.accept().await.unwrap().into_split(64);
    let senders: Vec<_> = (0..SENDERS)
        .map(|who| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for seq in 0..PER_SENDER {
                    let mut m = vec![who as u8];
                    m.extend_from_slice(&seq.to_be_bytes());
                    // Uneven sizes: frames of many lengths side by side.
                    m.resize(5 + (seq as usize * 7 + who) % 300, 0xEE);
                    tx.send(1, ppid::S1AP, Bytes::from(m)).unwrap();
                }
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    assert_eq!(reader.join().unwrap(), [PER_SENDER; SENDERS]);
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.pending() > 0 {
        assert!(Instant::now() < deadline, "egress never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[tokio::test]
async fn a_unit_the_socket_took_part_of_is_finished_before_later_ones() {
    const BIG: usize = 256;
    const LATER: usize = 50;
    let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // The peer handshakes and reads nothing until every push below has
    // returned, then drains.
    let (drain, may_drain) = std::sync::mpsc::channel::<()>();
    let reader = std::thread::spawn(move || {
        tokio::runtime::block_on(async {
            let mut s = SctpStream::connect(&addr, 0x62).await.unwrap();
            may_drain.recv().unwrap();
            for i in 0..(BIG + LATER) as u32 {
                let (_, _, m) = s.recv().await.unwrap();
                assert_eq!(
                    u32::from_be_bytes(m[..4].try_into().unwrap()),
                    i,
                    "push order"
                );
                assert_eq!(m.len(), if (i as usize) < BIG { 60 * 1024 } else { 4 });
            }
        })
    });
    let (tx, _rx) = listener.accept().await.unwrap().into_split(1024);
    let stamped = |i: u32, len: usize| {
        let mut m = i.to_be_bytes().to_vec();
        m.resize(len, 0x5A);
        Bytes::from(m)
    };

    // 15 MB as one unit on an idle link: the sender writes it in place,
    // the socket takes what its buffers hold, and the call comes back
    // although the peer is not reading.
    let big: Vec<Bytes> = (0..BIG as u32).map(|i| stamped(i, 60 * 1024)).collect();
    tx.send_unit(BIG, |unit| {
        for m in &big {
            unit.message(1, ppid::S1AP, |w| w.extend_from_slice(m));
        }
    })
    .unwrap();
    assert_eq!(
        tx.pending(),
        BIG,
        "the unwritten rest stays pending as its unit"
    );

    // Later units find a write outstanding and queue behind it.
    for i in 0..LATER {
        tx.send(1, ppid::S1AP, stamped((BIG + i) as u32, 4))
            .unwrap();
        assert_eq!(tx.pending(), BIG + i + 1);
    }

    drain.send(()).unwrap();
    reader.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while tx.pending() > 0 {
        assert!(Instant::now() < deadline, "egress never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
}
