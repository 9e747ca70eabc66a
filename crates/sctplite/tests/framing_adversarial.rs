//! Adversarial suite for the buffered frame reader: however the byte
//! stream is cut into reads — mid length word, mid body, fifty frames at
//! once — the association sees the frames it would have seen one read
//! per frame, in the same order; bytes that are not frames are an
//! error, never a panic, a hang or an allocation sized by the peer.
//!
//! The properties drive the sans-IO [`Deframer`] (where the cuts can be
//! chosen); the socket tests below them drive the same cases through
//! `SctpStream` / `SctpRecvHalf` over loopback TCP with a hand-rolled
//! peer that can write raw bytes.

use bytes::Bytes;
use proptest::prelude::*;
use scale_sctplite::chunk::ppid;
use scale_sctplite::framing::{MAX_FRAME, READ_BUF};
use scale_sctplite::{
    frame_into, Association, Chunk, Deframer, Event, Frame, SctpError, SctpListener, SctpStream,
    StreamEvent, TransportError, MAX_PAYLOAD,
};
use std::io::{Read, Write};
use std::net::TcpStream;

/// A handshaken pair: `.0` sends, `.1` receives. Tags are fixed, so two
/// calls give associations in identical states.
fn pair() -> (Association, Association) {
    let mut a = Association::connect(0xA, 8);
    let mut b = Association::listen(0xB, 8);
    while let Some(f) = a.poll_egress() {
        b.handle_frame(f).unwrap();
    }
    while let Some(f) = b.poll_egress() {
        a.handle_frame(f).unwrap();
    }
    while a.poll_event().is_some() {}
    while b.poll_event().is_some() {}
    (a, b)
}

/// What the sender queues: data on a few streams and heartbeats.
fn traffic() -> impl Strategy<Value = Vec<(u16, Option<Vec<u8>>)>> {
    proptest::collection::vec(
        (
            0u16..4,
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..1500)),
        ),
        1..60,
    )
}

fn frames_of(traffic: &[(u16, Option<Vec<u8>>)]) -> Vec<Frame> {
    let (mut a, _) = pair();
    for (stream, payload) in traffic {
        match payload {
            Some(p) => a.send(*stream, ppid::S1AP, Bytes::from(p.clone())).unwrap(),
            None => a.heartbeat(u64::from(*stream)).unwrap(),
        }
    }
    std::iter::from_fn(|| a.poll_egress()).collect()
}

fn events_of(b: &mut Association) -> Vec<Event> {
    std::iter::from_fn(|| b.poll_event()).collect()
}

/// Push `wire` through a deframer in reads of the given sizes (cycled),
/// each capped by the space the deframer offers. Returns every frame or
/// error that came out, in order, up to and including the first error
/// if `stop_at_error`; `watch` sees the deframer after every read.
fn deframe(
    wire: &[u8],
    reads: &[usize],
    stop_at_error: bool,
    mut watch: impl FnMut(&Deframer),
) -> (Vec<Result<Frame, SctpError>>, Deframer) {
    let mut d = Deframer::new();
    let mut out = Vec::new();
    let mut rest = wire;
    let mut sizes = reads.iter().cycle();
    while !rest.is_empty() {
        let space = d.space();
        assert!(!space.is_empty(), "a read must always have room");
        let n = (*sizes.next().unwrap())
            .clamp(1, space.len())
            .min(rest.len());
        space[..n].copy_from_slice(&rest[..n]);
        d.filled(n);
        rest = &rest[n..];
        watch(&d);
        loop {
            match d.next_frame() {
                Ok(None) => break,
                Ok(Some(f)) => out.push(Ok(f)),
                Err(e) => {
                    out.push(Err(e));
                    if stop_at_error {
                        return (out, d);
                    }
                }
            }
        }
    }
    (out, d)
}

fn wire_of(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        frame_into(f, &mut wire);
    }
    wire
}

fn oks(frames: &[Frame]) -> Vec<Result<Frame, SctpError>> {
    frames.iter().cloned().map(Ok).collect()
}

proptest! {
    /// Any cut of any valid frame sequence — one byte at a time, many
    /// frames per read, anything between — gives the association the
    /// same events in the same order as one frame per read.
    #[test]
    fn any_cut_of_the_stream_yields_the_same_events(
        traffic in traffic(),
        reads in proptest::collection::vec(1usize..5000, 1..40),
    ) {
        let frames = frames_of(&traffic);
        let (_, mut reference) = pair();
        for f in &frames {
            reference.handle_frame(Frame::decode(f.encode()).unwrap()).unwrap();
        }

        let (got, d) = deframe(&wire_of(&frames), &reads, true, |_| {});
        prop_assert_eq!(&got, &oks(&frames));
        prop_assert_eq!(d.buffered(), 0, "whole frames in, nothing left over");
        let (_, mut buffered) = pair();
        for f in got {
            buffered.handle_frame(f.unwrap()).unwrap();
        }
        prop_assert_eq!(events_of(&mut buffered), events_of(&mut reference));
        // Heartbeats were answered identically too.
        prop_assert_eq!(
            std::iter::from_fn(|| buffered.poll_egress()).collect::<Vec<_>>(),
            std::iter::from_fn(|| reference.poll_egress()).collect::<Vec<_>>()
        );
    }

    /// Arbitrary bytes in arbitrary reads: frames or an error, never a
    /// panic, and the buffer never grows past one legal frame.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        reads in proptest::collection::vec(1usize..600, 1..10),
    ) {
        deframe(&bytes, &reads, true, |d| assert!(d.capacity() <= 4 + MAX_FRAME));
    }

    /// A length word over 1 MiB is refused on sight: nothing is sized
    /// from it, whatever follows and however it is cut, and the valid
    /// frames ahead of it still come out.
    #[test]
    fn oversized_length_word_is_rejected_without_allocating(
        len in (MAX_FRAME as u32 + 1)..=u32::MAX,
        lead in 0usize..5,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        reads in proptest::collection::vec(1usize..16, 1..6),
    ) {
        let (mut a, _) = pair();
        for i in 0..lead {
            a.send(1, ppid::S1AP, Bytes::from(vec![i as u8; 20])).unwrap();
        }
        let lead_frames: Vec<Frame> = std::iter::from_fn(|| a.poll_egress()).collect();
        let mut wire = wire_of(&lead_frames);
        wire.extend_from_slice(&len.to_be_bytes());
        wire.extend_from_slice(&tail);

        let (got, mut d) = deframe(&wire, &reads, true, |d| assert_eq!(d.capacity(), READ_BUF));
        prop_assert_eq!(&got[..lead], &oks(&lead_frames)[..]);
        prop_assert_eq!(got.len(), lead + 1);
        prop_assert!(got[lead].is_err(), "length {} was not rejected", len);
        let _ = d.space();
        prop_assert_eq!(d.capacity(), READ_BUF);
    }

    /// A frame larger than the read buffer but within the limit passes:
    /// the largest legal DATA frame round-trips under any cut, and a
    /// body of up to 1 MiB that is not a frame is skipped whole — the
    /// frame behind it still parses, and the buffer is given back.
    #[test]
    fn frames_larger_than_the_buffer_pass(
        junk_len in READ_BUF..=MAX_FRAME,
        reads in proptest::collection::vec(1usize..200_000, 1..8),
    ) {
        let (mut a, _) = pair();
        a.send(2, ppid::S1AP, Bytes::from(vec![0x5A; MAX_PAYLOAD])).unwrap();
        a.send(2, ppid::S1AP, Bytes::from_static(b"after")).unwrap();
        let frames: Vec<Frame> = std::iter::from_fn(|| a.poll_egress()).collect();
        let wire = wire_of(&frames);
        prop_assert!(wire.len() > READ_BUF);
        let (got, d) = deframe(&wire, &reads, true, |_| {});
        prop_assert_eq!(got, oks(&frames));
        prop_assert_eq!(d.capacity(), READ_BUF);

        let mut wire = (junk_len as u32).to_be_bytes().to_vec();
        wire.resize(4 + junk_len, 0xEE);
        frame_into(&frames[1], &mut wire);
        let (got, d) = deframe(&wire, &reads, false, |d| {
            assert!(d.capacity() <= 4 + junk_len.max(READ_BUF))
        });
        prop_assert_eq!(got.len(), 2);
        prop_assert!(got[0].is_err());
        prop_assert_eq!(&got[1], &Ok(frames[1].clone()));
        prop_assert_eq!(d.capacity(), READ_BUF);
    }
}

/// The stream count is settled in the handshake and held to: a peer
/// that sends DATA on any other stream — here out of order, so each
/// message would be *held* — opens no reorder buffer with it. 65,528
/// unopened streams × 64 held messages × 64 KiB is what the same bytes
/// could pin otherwise. The first such frame is a protocol error, the
/// link's to drop, with nothing kept and the read buffer as it was.
#[test]
fn data_on_a_stream_the_handshake_did_not_open_is_an_error_that_keeps_nothing() {
    let (mut a, _) = pair();
    a.send(1, ppid::S1AP, Bytes::from(vec![0x5A; 4096])).unwrap();
    let template = a.poll_egress().unwrap();
    for stream_id in [8, 9, 255, 256, 40_000, u16::MAX] {
        let (_, mut b) = pair();
        let Chunk::Data { ppid, payload, .. } = template.chunk.clone() else {
            unreachable!()
        };
        let rogue = Frame {
            tag: template.tag,
            chunk: Chunk::Data {
                stream_id,
                seq: 3,
                ppid,
                payload,
            },
        };
        let mut wire = Vec::new();
        for _ in 0..3 {
            frame_into(&rogue, &mut wire);
        }
        let (got, d) = deframe(&wire, &[wire.len()], true, |_| {});
        assert_eq!(got.len(), 3, "the framing is sound");
        let err = b.handle_frame(got[0].clone().unwrap()).unwrap_err();
        assert_eq!(
            err,
            SctpError::BadStream {
                stream: stream_id,
                streams: 8
            }
        );
        assert!(b.poll_event().is_none());
        assert_eq!(d.capacity(), READ_BUF);
        // A legal stream is as it was: seq 0 there is still in order.
        b.handle_frame(template.clone()).unwrap();
        assert!(matches!(b.poll_event(), Some(Event::Data { stream_id: 1, .. })));
    }
}

// ---------------------------------------------------------------------------
// The same cases over a real socket
// ---------------------------------------------------------------------------

/// A peer that completes the sctplite handshake by hand over a plain
/// `TcpStream`, so the test can then write whatever bytes it likes.
/// Returns the socket and an association that encodes valid frames.
fn raw_peer(addr: &str) -> (TcpStream, Association) {
    let mut tcp = TcpStream::connect(addr).unwrap();
    tcp.set_nodelay(true).unwrap();
    let mut assoc = Association::connect(0xBAD, 8);
    let mut wire = Vec::new();
    while let Some(f) = assoc.poll_egress() {
        frame_into(&f, &mut wire);
    }
    tcp.write_all(&wire).unwrap();
    let mut d = Deframer::new();
    while !assoc.is_established() {
        let n = tcp.read(d.space()).unwrap();
        assert!(n > 0, "listener hung up during the handshake");
        d.filled(n);
        while let Some(f) = d.next_frame().unwrap() {
            assoc.handle_frame(f).unwrap();
        }
    }
    (tcp, assoc)
}

fn data_frames(assoc: &mut Association, n: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..n {
        assoc
            .send(1, ppid::S1AP, Bytes::from(i.to_be_bytes().to_vec()))
            .unwrap();
    }
    while let Some(f) = assoc.poll_egress() {
        frame_into(&f, &mut wire);
    }
    wire
}

fn seq_of(ev: &StreamEvent) -> u32 {
    match ev {
        StreamEvent::Data { payload, .. } => u32::from_be_bytes(payload[..].try_into().unwrap()),
        other => panic!("expected data, got {other:?}"),
    }
}

#[tokio::test]
async fn events_before_garbage_in_the_same_write_are_delivered_first() {
    for split in [false, true] {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut tcp, mut assoc) = raw_peer(&addr);
            let mut wire = data_frames(&mut assoc, 3);
            wire.extend_from_slice(&u32::MAX.to_be_bytes());
            wire.extend_from_slice(b"not a frame");
            tcp.write_all(&wire).unwrap(); // one write: one read sees it all
            tcp
        });
        let stream = listener.accept().await.unwrap();
        let _tcp = peer.join().unwrap();
        if split {
            let (_tx, mut rx) = stream.into_split(8);
            let mut events = Vec::new();
            while events.len() < 3 {
                rx.next_events(&mut events).await.unwrap();
            }
            assert_eq!(events.iter().map(seq_of).collect::<Vec<_>>(), [0, 1, 2]);
            let err = rx.next_events(&mut events).await.unwrap_err();
            assert!(matches!(err, TransportError::Protocol(_)), "got {err:?}");
            assert_eq!(events.len(), 3, "nothing is delivered with the error");
        } else {
            let mut stream = stream;
            for want in 0..3 {
                assert_eq!(seq_of(&stream.next_event().await.unwrap()), want);
            }
            let err = stream.next_event().await.unwrap_err();
            assert!(matches!(err, TransportError::Protocol(_)), "got {err:?}");
        }
    }
}

#[tokio::test]
async fn a_flood_on_unopened_streams_gets_the_link_dropped_at_its_first_frame() {
    for split in [false, true] {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut tcp, mut assoc) = raw_peer(&addr);
            let mut wire = data_frames(&mut assoc, 2);
            // 256 streams nobody opened, 60 KiB each, every one ahead
            // of its turn: 15 MB to hold if any of it were accepted.
            assoc.send(1, ppid::S1AP, Bytes::from(vec![0xEE; 60_000])).unwrap();
            let Frame { tag, chunk } = assoc.poll_egress().unwrap();
            let Chunk::Data { ppid, payload, .. } = chunk else {
                unreachable!()
            };
            for stream_id in 8..264 {
                let chunk = Chunk::Data {
                    stream_id,
                    seq: 9,
                    ppid,
                    payload: payload.clone(),
                };
                frame_into(&Frame { tag, chunk }, &mut wire);
            }
            // The reader hangs up at the first rogue frame; writing the
            // rest may well fail.
            let _ = tcp.write_all(&wire);
            tcp
        });
        let stream = listener.accept().await.unwrap();
        let err = if split {
            let (_tx, mut rx) = stream.into_split(8);
            let mut events = Vec::new();
            while events.len() < 2 {
                rx.next_events(&mut events).await.unwrap();
            }
            assert_eq!(events.iter().map(seq_of).collect::<Vec<_>>(), [0, 1]);
            rx.next_events(&mut events).await.unwrap_err()
        } else {
            let mut stream = stream;
            for want in 0..2 {
                assert_eq!(seq_of(&stream.next_event().await.unwrap()), want);
            }
            stream.next_event().await.unwrap_err()
        };
        assert!(
            matches!(
                err,
                TransportError::Protocol(SctpError::BadStream { stream: 8, streams: 8 })
            ),
            "got {err:?}"
        );
        let _tcp = peer.join().unwrap();
    }
}

#[tokio::test]
async fn end_of_stream_is_eof_between_frames_and_an_error_inside_one() {
    // Cut the peer's last frame at every position class: nowhere (clean
    // frame boundary), inside the length word, inside the body.
    let whole = {
        let (mut a, _) = pair();
        data_frames(&mut a, 1).len()
    };
    for cut in [0, 1, 3, 4, 5, whole - 1] {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut tcp, mut assoc) = raw_peer(&addr);
            let mut wire = data_frames(&mut assoc, 2);
            wire.truncate(wire.len() - whole + cut);
            tcp.write_all(&wire).unwrap();
            // Dropped: the stream ends here, no SHUTDOWN.
        });
        let mut stream = listener.accept().await.unwrap();
        peer.join().unwrap();
        assert_eq!(seq_of(&stream.next_event().await.unwrap()), 0);
        let err = stream.next_event().await.unwrap_err();
        if cut == 0 {
            assert!(matches!(err, TransportError::Eof), "cut {cut}: {err:?}");
        } else {
            assert!(
                matches!(&err, TransportError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut {cut}: {err:?}"
            );
        }
    }
}

#[tokio::test]
async fn the_largest_legal_message_round_trips_through_both_stream_shapes() {
    let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = tokio::spawn(async move {
        // Echo on the split halves: buffered reader in, coalesced
        // writer out.
        let (tx, mut rx) = listener.accept().await.unwrap().into_split(4);
        loop {
            match rx.next_event().await {
                Ok(StreamEvent::Data {
                    stream_id,
                    ppid,
                    payload,
                }) => tx.send(stream_id, ppid, payload).unwrap(),
                Ok(StreamEvent::HeartbeatAck { .. }) => {}
                Err(TransportError::Closed) => break,
                Err(e) => panic!("server: {e}"),
            }
        }
    });
    let mut client = SctpStream::connect(&addr, 0x99).await.unwrap();
    let big = Bytes::from((0..MAX_PAYLOAD).map(|i| i as u8).collect::<Vec<u8>>());
    assert!(
        big.len() > READ_BUF - 22,
        "the frame must not fit the read buffer"
    );
    for small in [&b"before"[..], &b"after"[..]] {
        client
            .send(3, ppid::S1AP, Bytes::copy_from_slice(small))
            .await
            .unwrap();
        client.send(3, ppid::S1AP, big.clone()).await.unwrap();
        let (_, _, echoed) = client.recv().await.unwrap();
        assert_eq!(&echoed[..], small);
        let (_, _, echoed) = client.recv().await.unwrap();
        assert_eq!(echoed, big);
    }
    client.shutdown().await.unwrap();
    server.await.unwrap();
}
