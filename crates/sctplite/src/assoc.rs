//! The sans-IO association state machine.
//!
//! An [`Association`] consumes inbound [`Frame`]s and application send
//! requests, and produces outbound frames plus [`Event`]s — it performs
//! no IO itself, so the same machine backs the in-memory transport used
//! by tests/simulations and the tokio TCP adapter used by the prototype.
//!
//! Application data can cross it without being owned on the way: a
//! transport that holds a received frame in its read buffer feeds it as
//! a [`FrameView`] and gets an in-order payload back as a slice of that
//! buffer ([`Association::handle_view`]), and one that owns the buffer
//! its frames leave in has a message numbered and framed straight into
//! it ([`Association::send_into`]). The queueing forms
//! ([`Association::handle_frame`], [`Association::send`]) make the same
//! decisions through the same code. Only a message that arrives ahead
//! of its turn is copied, into the reorder buffer.
//!
//! lint: hot-path

use crate::chunk::{
    put_data_header, Chunk, ChunkView, Frame, FrameView, SctpError, DATA_HEADER, FRAME_HEADER,
    MAX_PAYLOAD,
};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Association lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    Closed,
    /// Sent INIT, waiting for INIT-ACK.
    InitSent,
    Established,
    /// Sent SHUTDOWN, waiting for SHUTDOWN-ACK.
    ShutdownSent,
    Done,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    Established,
    /// An ordered application message arrived.
    Data {
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    },
    HeartbeatAck {
        nonce: u64,
    },
    /// Peer initiated or acknowledged shutdown; association is done.
    Closed,
    /// Peer aborted.
    Aborted {
        reason: u8,
    },
}

/// An in-order application message, its payload still where the frame
/// that carried it lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRef<'a> {
    pub stream_id: u16,
    pub ppid: u32,
    pub payload: &'a [u8],
}

/// How many out-of-order messages per stream we will buffer before
/// declaring a sequence gap error.
const REORDER_WINDOW: usize = 64;

/// Where an arriving DATA chunk stands in its stream.
enum Arrival {
    /// The next one expected: deliver it.
    InOrder,
    /// Already delivered: drop it.
    Duplicate,
    /// Ahead of its turn, and the reorder buffer has room: hold it.
    Early,
}

/// Per-stream state, indexed by stream id. Sized once, by the stream
/// count the handshake settled on: a peer cannot make it grow.
#[derive(Debug, Default)]
struct Stream {
    /// Next sequence to assign outbound.
    tx_seq: u32,
    /// Next sequence expected inbound.
    rx_seq: u32,
    /// Out-of-order holding buffer: seq → (ppid, payload).
    reorder: BTreeMap<u32, (u32, Bytes)>,
}

/// One end of an sctplite association.
#[derive(Debug)]
pub struct Association {
    state: AssocState,
    /// Tag we expect on inbound frames (chosen by us).
    local_tag: u32,
    /// Tag we must stamp on outbound frames (chosen by the peer).
    peer_tag: u32,
    /// Streams we offer until the handshake; streams both sides agreed
    /// to, and the length of `streams`, once established.
    num_streams: u16,
    streams: Vec<Stream>,
    /// Outbound frames awaiting the transport.
    egress: VecDeque<Frame>,
    /// Events awaiting the application.
    events: VecDeque<Event>,
}

impl Association {
    /// Create the initiating side; queues the INIT frame immediately.
    pub fn connect(local_tag: u32, num_streams: u16) -> Self {
        let mut a = Association::new(local_tag, num_streams);
        a.egress.push_back(Frame {
            // INIT travels with tag 0 — the peer doesn't know our tag yet.
            tag: 0,
            chunk: Chunk::Init {
                init_tag: local_tag,
                num_streams,
            },
        });
        a.state = AssocState::InitSent;
        a
    }

    /// Create the listening side; it becomes established upon INIT.
    pub fn listen(local_tag: u32, num_streams: u16) -> Self {
        Association::new(local_tag, num_streams)
    }

    fn new(local_tag: u32, num_streams: u16) -> Self {
        Association {
            state: AssocState::Closed,
            local_tag,
            peer_tag: 0,
            num_streams,
            streams: Vec::new(), // lint: allow(alloc): empty until established
            egress: VecDeque::new(),
            events: VecDeque::new(),
        }
    }

    pub fn state(&self) -> AssocState {
        self.state
    }

    pub fn is_established(&self) -> bool {
        self.state == AssocState::Established
    }

    /// Streams the handshake settled on (what we offer, before it).
    pub fn num_streams(&self) -> u16 {
        self.num_streams
    }

    /// The handshake is done: both sides are held to `min(ours, theirs)`
    /// streams from here on.
    fn establish(&mut self, peer_tag: u32, peer_streams: u16) {
        self.peer_tag = peer_tag;
        self.num_streams = self.num_streams.min(peer_streams).max(1);
        // lint: allow(alloc): once per association
        self.streams.resize_with(usize::from(self.num_streams), Stream::default);
        self.state = AssocState::Established;
        self.events.push_back(Event::Established);
    }

    /// The state of `stream_id`, if the handshake opened it.
    fn stream(&mut self, stream_id: u16) -> Result<&mut Stream, SctpError> {
        let streams = self.num_streams;
        self.streams
            .get_mut(usize::from(stream_id))
            .ok_or(SctpError::BadStream {
                stream: stream_id,
                streams,
            })
    }

    /// Everything a send checks before a sequence number is spent.
    fn sendable(&mut self, stream_id: u16, payload_len: usize) -> Result<&mut Stream, SctpError> {
        if self.state != AssocState::Established {
            return Err(SctpError::BadState("send requires Established"));
        }
        if payload_len > MAX_PAYLOAD {
            return Err(SctpError::Oversized(payload_len));
        }
        self.stream(stream_id)
    }

    /// Queue an application message on `stream_id`.
    pub fn send(&mut self, stream_id: u16, ppid: u32, payload: Bytes) -> Result<(), SctpError> {
        let tag = self.peer_tag;
        let stream = self.sendable(stream_id, payload.len())?;
        let seq = stream.tx_seq;
        stream.tx_seq += 1;
        self.egress.push_back(Frame {
            tag,
            chunk: Chunk::Data {
                stream_id,
                seq,
                ppid,
                payload,
            },
        });
        Ok(())
    }

    /// Number and frame an application message straight into `wire`,
    /// the buffer it leaves in: the length word and the headers are
    /// appended, `payload` appends the message behind them, and the
    /// lengths are filled in from what it wrote. On `Err` `wire` is as
    /// it was and no sequence number has been spent. A transport that
    /// uses this writes whatever [`Association::poll_egress`] holds
    /// ahead of it.
    pub fn send_into(
        &mut self,
        stream_id: u16,
        ppid: u32,
        wire: &mut Vec<u8>,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), SctpError> {
        const LEN_WORD: usize = 4;
        let tag = self.peer_tag;
        let seq = self.sendable(stream_id, 0)?.tx_seq;
        let mark = wire.len();
        wire.extend_from_slice(&[0; LEN_WORD]);
        put_data_header(wire, tag, stream_id, seq, ppid, 0);
        let body = wire.len();
        payload(wire);
        let payload_len = wire.len() - body;
        if payload_len > MAX_PAYLOAD {
            wire.truncate(mark);
            return Err(SctpError::Oversized(payload_len));
        }
        let chunk_len = DATA_HEADER + payload_len;
        wire[mark..mark + LEN_WORD]
            .copy_from_slice(&((FRAME_HEADER + chunk_len) as u32).to_be_bytes());
        let at = mark + LEN_WORD + FRAME_HEADER;
        wire[at - 2..at].copy_from_slice(&(chunk_len as u16).to_be_bytes());
        self.streams[usize::from(stream_id)].tx_seq += 1;
        Ok(())
    }

    /// Queue a heartbeat probe.
    pub fn heartbeat(&mut self, nonce: u64) -> Result<(), SctpError> {
        if self.state != AssocState::Established {
            return Err(SctpError::BadState("heartbeat requires Established"));
        }
        self.egress.push_back(Frame {
            tag: self.peer_tag,
            chunk: Chunk::Heartbeat { nonce },
        });
        Ok(())
    }

    /// Begin a graceful shutdown.
    pub fn shutdown(&mut self) {
        if self.state == AssocState::Established {
            self.egress.push_back(Frame {
                tag: self.peer_tag,
                chunk: Chunk::Shutdown,
            });
            self.state = AssocState::ShutdownSent;
        }
    }

    /// Abort with a reason code.
    pub fn abort(&mut self, reason: u8) {
        self.egress.push_back(Frame {
            tag: self.peer_tag,
            chunk: Chunk::Abort { reason },
        });
        self.state = AssocState::Done;
    }

    /// INIT arrives with tag 0; everything else must carry our tag.
    fn check_tag(&self, tag: u32, is_init: bool) -> Result<(), SctpError> {
        if !is_init && tag != self.local_tag {
            return Err(SctpError::BadTag {
                got: tag,
                want: self.local_tag,
            });
        }
        Ok(())
    }

    /// Feed one inbound frame; may queue events and egress frames.
    pub fn handle_frame(&mut self, frame: Frame) -> Result<(), SctpError> {
        let Chunk::Data {
            stream_id,
            seq,
            ppid,
            payload,
        } = frame.chunk
        else {
            return self.handle_control(frame.tag, &frame.chunk);
        };
        self.check_tag(frame.tag, false)?;
        match self.arrival(stream_id, seq)? {
            Arrival::InOrder => {
                self.events.push_back(Event::Data {
                    stream_id,
                    ppid,
                    payload,
                });
                self.release_held(stream_id);
            }
            Arrival::Duplicate => {}
            Arrival::Early => self.hold(stream_id, seq, ppid, payload),
        }
        Ok(())
    }

    /// [`Association::handle_frame`] for a frame still in the buffer it
    /// was received into. An in-order application message is returned,
    /// its payload borrowed from the frame, instead of being queued —
    /// it is the next thing to deliver, ahead of whatever
    /// [`Association::poll_event`] then holds (messages it released
    /// from the reorder buffer). Everything else is handled and queued
    /// exactly as `handle_frame` would.
    pub fn handle_view<'a>(
        &mut self,
        frame: FrameView<'a>,
    ) -> Result<Option<DataRef<'a>>, SctpError> {
        let (stream_id, seq, ppid, payload) = match frame.chunk {
            ChunkView::Data {
                stream_id,
                seq,
                ppid,
                payload,
            } => (stream_id, seq, ppid, payload),
            ChunkView::Control(chunk) => return self.handle_control(frame.tag, &chunk).map(|()| None),
        };
        self.check_tag(frame.tag, false)?;
        match self.arrival(stream_id, seq)? {
            Arrival::InOrder => {
                self.release_held(stream_id);
                return Ok(Some(DataRef {
                    stream_id,
                    ppid,
                    payload,
                }));
            }
            Arrival::Duplicate => {}
            // lint: allow(alloc): the reorder buffer owns what it holds
            Arrival::Early => self.hold(stream_id, seq, ppid, Bytes::copy_from_slice(payload)),
        }
        Ok(None)
    }

    /// Any chunk but DATA.
    fn handle_control(&mut self, tag: u32, chunk: &Chunk) -> Result<(), SctpError> {
        self.check_tag(tag, matches!(chunk, Chunk::Init { .. }))?;
        match *chunk {
            Chunk::Init {
                init_tag,
                num_streams,
            } => {
                if self.state != AssocState::Closed {
                    return Err(SctpError::BadState("INIT in non-Closed state"));
                }
                self.establish(init_tag, num_streams);
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::InitAck {
                        init_tag: self.local_tag,
                        num_streams: self.num_streams,
                    },
                });
            }
            Chunk::InitAck {
                init_tag,
                num_streams,
            } => {
                if self.state != AssocState::InitSent {
                    return Err(SctpError::BadState("INIT-ACK without INIT"));
                }
                self.establish(init_tag, num_streams);
            }
            Chunk::Data { .. } => return Err(SctpError::BadState("DATA is not a control chunk")),
            Chunk::Heartbeat { nonce } => {
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::HeartbeatAck { nonce },
                });
            }
            Chunk::HeartbeatAck { nonce } => {
                self.events.push_back(Event::HeartbeatAck { nonce });
            }
            Chunk::Shutdown => {
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::ShutdownAck,
                });
                self.state = AssocState::Done;
                self.events.push_back(Event::Closed);
            }
            Chunk::ShutdownAck => {
                self.state = AssocState::Done;
                self.events.push_back(Event::Closed);
            }
            Chunk::Abort { reason } => {
                self.state = AssocState::Done;
                self.events.push_back(Event::Aborted { reason });
            }
        }
        Ok(())
    }

    /// In-order delivery with a bounded reorder buffer: where DATA
    /// `seq` on `stream_id` stands. An in-order arrival moves the
    /// stream on; out-of-order arrivals (possible under fault injection
    /// / retransmission) are to be held and released in sequence, up to
    /// the window. DATA on a stream the handshake did not open is a
    /// protocol error: the peer cannot make us keep state for it.
    fn arrival(&mut self, stream_id: u16, seq: u32) -> Result<Arrival, SctpError> {
        if self.state != AssocState::Established && self.state != AssocState::ShutdownSent {
            return Err(SctpError::BadState("DATA outside Established"));
        }
        let stream = self.stream(stream_id)?;
        let expected = stream.rx_seq;
        if seq < expected {
            return Ok(Arrival::Duplicate);
        }
        if seq == expected {
            stream.rx_seq += 1;
            return Ok(Arrival::InOrder);
        }
        if stream.reorder.len() >= REORDER_WINDOW {
            return Err(SctpError::SequenceGap {
                stream: stream_id,
                got: seq,
                expected,
            });
        }
        Ok(Arrival::Early)
    }

    /// Hold an [`Arrival::Early`] message until its turn.
    fn hold(&mut self, stream_id: u16, seq: u32, ppid: u32, payload: Bytes) {
        self.streams[usize::from(stream_id)]
            .reorder
            .insert(seq, (ppid, payload));
    }

    /// After an in-order arrival: queue the held successors it unblocks.
    fn release_held(&mut self, stream_id: u16) {
        let stream = &mut self.streams[usize::from(stream_id)];
        while let Some((ppid, payload)) = stream.reorder.remove(&stream.rx_seq) {
            stream.rx_seq += 1;
            self.events.push_back(Event::Data {
                stream_id,
                ppid,
                payload,
            });
        }
    }

    /// Take the next outbound frame, if any.
    pub fn poll_egress(&mut self) -> Option<Frame> {
        self.egress.pop_front()
    }

    /// Take the next application event, if any.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump frames between two associations until both are idle.
    fn pump(a: &mut Association, b: &mut Association) {
        loop {
            let mut progressed = false;
            while let Some(f) = a.poll_egress() {
                b.handle_frame(f).unwrap();
                progressed = true;
            }
            while let Some(f) = b.poll_egress() {
                a.handle_frame(f).unwrap();
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    fn established_pair() -> (Association, Association) {
        let mut client = Association::connect(0x1111, 8);
        let mut server = Association::listen(0x2222, 8);
        pump(&mut client, &mut server);
        assert!(client.is_established());
        assert!(server.is_established());
        // Drain Established events.
        assert_eq!(client.poll_event(), Some(Event::Established));
        assert_eq!(server.poll_event(), Some(Event::Established));
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        established_pair();
    }

    #[test]
    fn data_flows_in_order_per_stream() {
        let (mut c, mut s) = established_pair();
        c.send(1, 18, Bytes::from_static(b"one")).unwrap();
        c.send(1, 18, Bytes::from_static(b"two")).unwrap();
        c.send(2, 18, Bytes::from_static(b"other-stream")).unwrap();
        pump(&mut c, &mut s);
        assert_eq!(
            s.poll_event(),
            Some(Event::Data { stream_id: 1, ppid: 18, payload: Bytes::from_static(b"one") })
        );
        assert_eq!(
            s.poll_event(),
            Some(Event::Data { stream_id: 1, ppid: 18, payload: Bytes::from_static(b"two") })
        );
        assert_eq!(
            s.poll_event(),
            Some(Event::Data {
                stream_id: 2,
                ppid: 18,
                payload: Bytes::from_static(b"other-stream")
            })
        );
    }

    #[test]
    fn send_before_established_fails() {
        let mut a = Association::connect(1, 4);
        assert!(matches!(
            a.send(0, 0, Bytes::new()).unwrap_err(),
            SctpError::BadState(_)
        ));
    }

    #[test]
    fn out_of_order_data_is_reordered() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"a")).unwrap();
        c.send(0, 18, Bytes::from_static(b"b")).unwrap();
        c.send(0, 18, Bytes::from_static(b"c")).unwrap();
        // Deliver frames in reverse.
        let mut frames = Vec::new();
        while let Some(f) = c.poll_egress() {
            frames.push(f);
        }
        for f in frames.into_iter().rev() {
            s.handle_frame(f).unwrap();
        }
        let collect: Vec<_> = std::iter::from_fn(|| s.poll_event())
            .map(|e| match e {
                Event::Data { payload, .. } => payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(collect, vec![
            Bytes::from_static(b"a"),
            Bytes::from_static(b"b"),
            Bytes::from_static(b"c"),
        ]);
    }

    #[test]
    fn duplicate_data_dropped() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"x")).unwrap();
        let frame = c.poll_egress().unwrap();
        s.handle_frame(frame.clone()).unwrap();
        s.handle_frame(frame).unwrap(); // duplicate
        assert!(matches!(s.poll_event(), Some(Event::Data { .. })));
        assert_eq!(s.poll_event(), None);
    }

    #[test]
    fn wrong_tag_rejected() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"x")).unwrap();
        let mut frame = c.poll_egress().unwrap();
        frame.tag ^= 0xffff;
        assert!(matches!(
            s.handle_frame(frame).unwrap_err(),
            SctpError::BadTag { .. }
        ));
    }

    #[test]
    fn heartbeat_roundtrip() {
        let (mut c, mut s) = established_pair();
        c.heartbeat(42).unwrap();
        pump(&mut c, &mut s);
        assert_eq!(c.poll_event(), Some(Event::HeartbeatAck { nonce: 42 }));
    }

    #[test]
    fn graceful_shutdown() {
        let (mut c, mut s) = established_pair();
        c.shutdown();
        pump(&mut c, &mut s);
        assert_eq!(s.poll_event(), Some(Event::Closed));
        assert_eq!(c.poll_event(), Some(Event::Closed));
        assert_eq!(c.state(), AssocState::Done);
        assert_eq!(s.state(), AssocState::Done);
    }

    #[test]
    fn abort_surfaces_reason() {
        let (mut c, mut s) = established_pair();
        c.abort(7);
        pump(&mut c, &mut s);
        assert_eq!(s.poll_event(), Some(Event::Aborted { reason: 7 }));
    }

    #[test]
    fn oversized_payload_rejected_before_encode() {
        let (mut c, _s) = established_pair();
        let too_big = Bytes::from(vec![0u8; crate::chunk::MAX_PAYLOAD + 1]);
        assert_eq!(
            c.send(0, 18, too_big).unwrap_err(),
            SctpError::Oversized(crate::chunk::MAX_PAYLOAD + 1)
        );
        // At the limit exactly, the frame must round-trip.
        let max = Bytes::from(vec![0u8; crate::chunk::MAX_PAYLOAD]);
        c.send(0, 18, max).unwrap();
        let frame = c.poll_egress().unwrap();
        assert_eq!(Frame::decode(frame.encode()).unwrap(), frame);
    }

    #[test]
    fn data_on_a_stream_the_handshake_did_not_open_is_refused_both_ways() {
        let mut c = Association::connect(0x1111, 8);
        let mut s = Association::listen(0x2222, 3);
        pump(&mut c, &mut s);
        assert_eq!((c.num_streams(), s.num_streams()), (3, 3), "min of the two offers");
        assert_eq!(
            c.send(3, 18, Bytes::from_static(b"x")).unwrap_err(),
            SctpError::BadStream { stream: 3, streams: 3 }
        );
        let mut wire = Vec::new();
        assert!(c.send_into(u16::MAX, 18, &mut wire, |w| w.push(1)).is_err());
        assert!(wire.is_empty(), "a refused message leaves the buffer as it was");
        // A peer that sends it anyway: an error, and no state kept.
        c.send(2, 18, Bytes::from_static(b"ok")).unwrap();
        let Frame { tag, chunk } = c.poll_egress().unwrap();
        s.handle_frame(Frame { tag, chunk: chunk.clone() }).unwrap();
        for stream_id in [3, 4, 999, u16::MAX] {
            let Chunk::Data { ppid, payload, .. } = chunk.clone() else {
                unreachable!()
            };
            let rogue = Frame {
                tag,
                chunk: Chunk::Data { stream_id, seq: 7, ppid, payload },
            };
            assert_eq!(
                s.handle_frame(rogue.clone()).unwrap_err(),
                SctpError::BadStream { stream: stream_id, streams: 3 }
            );
            let bytes = rogue.encode();
            assert!(s.handle_view(FrameView::parse(&bytes).unwrap()).is_err());
        }
        assert_eq!(s.streams.len(), 3);
    }

    #[test]
    fn frames_fed_as_views_deliver_what_owned_frames_deliver() {
        // Seq 0..6 on one stream, arriving 2, 1, 0, 0 (duplicate), 4,
        // 3, 5: in-order ones come back borrowed, held ones queued.
        let (mut c, mut owned) = established_pair();
        let (_, mut viewed) = established_pair();
        for i in 0..6u8 {
            c.send(1, 18, Bytes::from(vec![i; 3])).unwrap();
        }
        let frames: Vec<Frame> = std::iter::from_fn(|| c.poll_egress()).collect();
        let mut got = Vec::new();
        for i in [2, 1, 0, 0, 4, 3, 5] {
            owned.handle_frame(frames[i].clone()).unwrap();
            let bytes = frames[i].encode();
            if let Some(d) = viewed.handle_view(FrameView::parse(&bytes).unwrap()).unwrap() {
                got.push(Event::Data {
                    stream_id: d.stream_id,
                    ppid: d.ppid,
                    payload: Bytes::copy_from_slice(d.payload),
                });
            }
            got.extend(std::iter::from_fn(|| viewed.poll_event()));
        }
        let want: Vec<Event> = std::iter::from_fn(|| owned.poll_event()).collect();
        assert_eq!(want.len(), 6);
        assert_eq!(got, want);
    }

    #[test]
    fn send_into_writes_the_bytes_send_and_frame_into_write() {
        let (mut queued, _) = established_pair();
        let (mut direct, _) = established_pair();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for (stream, payload) in [(0u16, &b""[..]), (1, b"one"), (1, b"two"), (7, &[0x5A; 300])] {
            queued.send(stream, 18, Bytes::copy_from_slice(payload)).unwrap();
            crate::framing::frame_into(&queued.poll_egress().unwrap(), &mut want);
            direct
                .send_into(stream, 18, &mut got, |w| w.extend_from_slice(payload))
                .unwrap();
        }
        assert_eq!(got, want);
        // Too large: refused after the fact, nothing left behind, and
        // the sequence number is still the next one.
        let before = got.len();
        let err = direct.send_into(1, 18, &mut got, |w| w.resize(w.len() + MAX_PAYLOAD + 1, 0));
        assert_eq!(err.unwrap_err(), SctpError::Oversized(MAX_PAYLOAD + 1));
        assert_eq!(got.len(), before);
        queued.send(1, 18, Bytes::from_static(b"three")).unwrap();
        crate::framing::frame_into(&queued.poll_egress().unwrap(), &mut want);
        direct.send_into(1, 18, &mut got, |w| w.extend_from_slice(b"three")).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn reorder_window_overflow_is_an_error() {
        let (mut c, mut s) = established_pair();
        // Send seq 0 plus REORDER_WINDOW+1 future messages; drop seq 0 so
        // everything else is out of order.
        for _ in 0..=REORDER_WINDOW + 1 {
            c.send(0, 18, Bytes::from_static(b"m")).unwrap();
        }
        let _dropped = c.poll_egress().unwrap(); // seq 0 lost
        let mut err = None;
        while let Some(f) = c.poll_egress() {
            if let Err(e) = s.handle_frame(f) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(SctpError::SequenceGap { .. })));
    }
}
