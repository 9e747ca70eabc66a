//! The unsplit stream's send batching (DESIGN.md §14.2): a send made
//! while messages of the last read are still waiting to be taken is held
//! back, and the first send made with none waiting writes everything
//! held in one write. So do a drop, `into_split` (ahead of anything sent
//! on the halves) and reaching 64 KiB held back.
//!
//! The peer is a plain socket that speaks sctplite by hand, so each test
//! decides when requests arrive — all in one write, so one read sees
//! them all — and looks at exactly what has reached it: "held" is a
//! 50 ms read that finds nothing.

use bytes::Bytes;
use scale_sctplite::chunk::ppid;
use scale_sctplite::{
    frame_into, Association, Deframer, Event, SctpListener, SctpStream, StreamEvent,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

const HELD: Duration = Duration::from_millis(50);

/// A peer speaking sctplite by hand over a plain socket.
struct Peer {
    tcp: TcpStream,
    assoc: Association,
    frames: Deframer,
}

impl Peer {
    /// Connect and complete the handshake.
    fn dial(addr: &str) -> Peer {
        let tcp = TcpStream::connect(addr).unwrap();
        tcp.set_nodelay(true).unwrap();
        let mut peer = Peer {
            tcp,
            assoc: Association::connect(0xBA7C, 8),
            frames: Deframer::new(),
        };
        let init = peer.egress();
        peer.tcp.write_all(&init).unwrap();
        while !peer.assoc.is_established() {
            peer.read(Duration::from_secs(10)).expect("handshake");
            while let Some(f) = peer.frames.next_frame().unwrap() {
                peer.assoc.handle_frame(f).unwrap();
            }
        }
        while peer.assoc.poll_event().is_some() {}
        peer
    }

    fn egress(&mut self) -> Vec<u8> {
        let mut wire = Vec::new();
        while let Some(f) = self.assoc.poll_egress() {
            frame_into(&f, &mut wire);
        }
        wire
    }

    /// Messages `0..n`, each its index as four bytes, in one write.
    fn write_requests(&mut self, n: u32) {
        for i in 0..n {
            self.assoc
                .send(1, ppid::S1AP, Bytes::copy_from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        let wire = self.egress();
        self.tcp.write_all(&wire).unwrap();
    }

    /// One read, waiting at most `wait`: `None` if nothing came.
    fn read(&mut self, wait: Duration) -> Option<usize> {
        self.tcp.set_read_timeout(Some(wait)).unwrap();
        match self.tcp.read(self.frames.space()) {
            Ok(0) => panic!("the stream hung up"),
            Ok(n) => {
                self.frames.filled(n);
                Some(n)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(e) => panic!("peer read: {e}"),
        }
    }

    /// Nothing reaches the peer for [`HELD`].
    fn sees_nothing(&mut self) -> bool {
        self.read(HELD).is_none() && self.frames.buffered() == 0
    }

    /// The payloads of the next `n` messages, waiting for them as long
    /// as it takes (up to a generous deadline).
    fn expect(&mut self, n: usize) -> Vec<Bytes> {
        let mut got = Vec::new();
        loop {
            while let Some(f) = self.frames.next_frame().unwrap() {
                self.assoc.handle_frame(f).unwrap();
            }
            while let Some(ev) = self.assoc.poll_event() {
                if let Event::Data { payload, .. } = ev {
                    got.push(payload);
                }
            }
            if got.len() >= n {
                assert_eq!(got.len(), n, "more arrived than was sent");
                return got;
            }
            self.read(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("{} of {n} messages arrived", got.len()));
        }
    }

    /// The stream's side ended: end of file, nothing more.
    fn expect_end(&mut self) {
        self.tcp
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let n = self.tcp.read(self.frames.space()).unwrap();
        assert_eq!(n, 0, "bytes after the held sends");
    }
}

/// A stream accepted on a fresh listener and the peer that dialled it,
/// run on its own thread once both ends have finished the handshake:
/// `script` gets the peer and a channel pair to pace the test by.
async fn pair<T: Send + 'static>(
    script: impl FnOnce(Peer, Sender<()>, Receiver<()>) -> T + Send + 'static,
) -> (SctpStream, JoinHandle<T>, Sender<()>, Receiver<()>) {
    let (to_peer, peer_rx) = channel();
    let (peer_tx, from_peer) = channel();
    let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let peer = Peer::dial(&addr);
        peer_tx.send(()).unwrap();
        script(peer, peer_tx, peer_rx)
    });
    let stream = listener.accept().await.unwrap();
    from_peer.recv().unwrap();
    (stream, peer, to_peer, from_peer)
}

fn index_of(ev: StreamEvent) -> u32 {
    match ev {
        StreamEvent::Data { payload, .. } => u32::from_be_bytes(payload[..].try_into().unwrap()),
        other => panic!("expected data, got {other:?}"),
    }
}

fn answer(i: u32) -> Bytes {
    Bytes::from(format!("answer {i}"))
}

#[tokio::test]
async fn answers_to_one_read_leave_together_after_the_last_request_is_taken() {
    const N: u32 = 8;
    let (mut stream, peer, go, done) = pair(|mut peer, done, go| {
        peer.write_requests(N);
        done.send(()).unwrap();
        go.recv().unwrap(); // all but the last answered
        let held = peer.sees_nothing();
        done.send(()).unwrap();
        (held, peer.expect(N as usize))
    })
    .await;
    done.recv().unwrap();
    for want in 0..N - 1 {
        assert_eq!(index_of(stream.next_event().await.unwrap()), want);
        stream.send(1, ppid::S1AP, answer(want)).await.unwrap();
    }
    go.send(()).unwrap();
    done.recv().unwrap();
    assert_eq!(index_of(stream.next_event().await.unwrap()), N - 1);
    stream.send(1, ppid::S1AP, answer(N - 1)).await.unwrap();

    let (held, got) = peer.join().unwrap();
    assert!(held, "an answer left while requests were still waiting");
    assert_eq!(got, (0..N).map(answer).collect::<Vec<_>>());
}

#[tokio::test]
async fn a_caller_that_only_sends_has_each_message_written_at_once() {
    const N: u32 = 5;
    let (mut stream, peer, go, done) = pair(|mut peer, done, go| {
        for i in 0..N {
            go.recv().unwrap();
            assert_eq!(peer.expect(1), [answer(i)], "message {i}");
            done.send(()).unwrap();
        }
    })
    .await;
    for i in 0..N {
        stream.send(1, ppid::S1AP, answer(i)).await.unwrap();
        go.send(()).unwrap();
        // The peer has read it before the next send.
        done.recv().unwrap();
    }
    peer.join().unwrap();
}

#[tokio::test]
async fn sends_held_at_the_split_leave_ahead_of_the_halves() {
    const N: u32 = 4;
    let (mut stream, peer, go, done) = pair(|mut peer, done, go| {
        peer.write_requests(N);
        done.send(()).unwrap();
        go.recv().unwrap(); // the first answer is held
        let held = peer.sees_nothing();
        done.send(()).unwrap();
        (held, peer.expect(N as usize + 1))
    })
    .await;
    done.recv().unwrap();
    assert_eq!(index_of(stream.next_event().await.unwrap()), 0);
    stream.send(1, ppid::S1AP, answer(0)).await.unwrap();
    go.send(()).unwrap();
    done.recv().unwrap();

    let (tx, mut rx) = stream.into_split(16);
    tx.send(1, ppid::S1AP, Bytes::from_static(b"split"))
        .unwrap();
    for want in 1..N {
        assert_eq!(index_of(rx.next_event().await.unwrap()), want);
        tx.send(1, ppid::S1AP, answer(want)).unwrap();
    }
    let (held, got) = peer.join().unwrap();
    assert!(held, "the first answer left before the split");
    let mut want = vec![answer(0), Bytes::from_static(b"split")];
    want.extend((1..N).map(answer));
    assert_eq!(got, want);
}

#[tokio::test]
async fn sixty_four_kib_held_back_leaves_without_a_read() {
    // Four of these pass 64 KiB with their headers; three do not.
    const PAYLOAD: usize = 16 * 1024;
    let big = |i: u8| Bytes::from(vec![i; PAYLOAD]);
    let (mut stream, peer, go, done) = pair(move |mut peer, done, go| {
        peer.write_requests(2);
        done.send(()).unwrap();
        go.recv().unwrap(); // three sent
        let held = peer.sees_nothing();
        done.send(()).unwrap();
        (held, peer.expect(4))
    })
    .await;
    done.recv().unwrap();
    assert_eq!(index_of(stream.next_event().await.unwrap()), 0);
    for i in 0..3 {
        stream.send(1, ppid::S1AP, big(i)).await.unwrap();
    }
    go.send(()).unwrap();
    done.recv().unwrap();
    stream.send(1, ppid::S1AP, big(3)).await.unwrap();

    // The second request is still waiting, untaken, while the peer
    // reads all four.
    let (held, got) = peer.join().unwrap();
    assert!(held, "sends left below 64 KiB while a request waited");
    assert_eq!(got, (0..4).map(big).collect::<Vec<_>>());
    assert_eq!(index_of(stream.next_event().await.unwrap()), 1);
}

#[tokio::test]
async fn a_stream_dropped_with_held_sends_delivers_them() {
    let (mut stream, peer, go, done) = pair(|mut peer, done, go| {
        peer.write_requests(2);
        done.send(()).unwrap();
        go.recv().unwrap(); // the first answer is held
        let held = peer.sees_nothing();
        done.send(()).unwrap();
        let got = peer.expect(1);
        peer.expect_end();
        (held, got)
    })
    .await;
    done.recv().unwrap();
    assert_eq!(index_of(stream.next_event().await.unwrap()), 0);
    stream.send(1, ppid::S1AP, answer(0)).await.unwrap();
    go.send(()).unwrap();
    done.recv().unwrap();
    drop(stream);

    let (held, got) = peer.join().unwrap();
    assert!(held, "the answer left before the drop");
    assert_eq!(got, [answer(0)]);
}
