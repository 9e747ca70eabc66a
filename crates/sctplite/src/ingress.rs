//! The receive pipeline of a link, sans-IO: bytes as a transport's
//! reads deliver them in, in-order application messages out.
//!
//! One read takes whatever the socket holds; [`Ingress::ingest`] then
//! runs every complete frame in it through the association, so what one
//! read delivered comes out together. Messages are parsed where the
//! read left them and leave in one of two forms. A consumer that
//! forwards them takes a [`ReadBatch`]: payloads as places in the read
//! buffer, nothing copied. One that keeps them takes [`StreamEvent`]s:
//! the first payload taken from a read copies the stretch of the buffer
//! holding all of that read's payloads, and every payload is a slice of
//! that one copy. Either way everything parsed is taken before the next
//! read, because the next read reuses the buffer.
//!
//! lint: hot-path

use crate::assoc::{Association, Event};
use crate::chunk::FrameView;
use crate::framing::Deframer;
use crate::tokio_transport::TransportError;
use bytes::Bytes;
use std::collections::VecDeque;
use std::ops::Range;

/// One thing a read delivered, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// An application message; its payload is `at` in
    /// [`ReadBatch::bytes`].
    Data {
        stream_id: u16,
        ppid: u32,
        at: Range<usize>,
    },
    /// An application message that arrived ahead of its turn and was
    /// held in the reorder buffer (never the case over TCP).
    Held {
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    },
    /// The peer answered a ping.
    HeartbeatAck { nonce: u64 },
}

/// Everything one read delivered, payloads still in the read buffer:
/// iterate it for the [`BatchItem`]s. Dropping it discards what was not
/// taken.
pub struct ReadBatch<'a> {
    bytes: &'a [u8],
    items: std::collections::vec_deque::Drain<'a, BatchItem>,
}

impl<'a> ReadBatch<'a> {
    /// The read buffer that [`BatchItem::Data`] spans index.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

impl Iterator for ReadBatch<'_> {
    type Item = BatchItem;

    fn next(&mut self) -> Option<BatchItem> {
        self.items.next()
    }
}

/// The [`Deframer`] a transport reads into, and what was parsed out of
/// it but not yet handed to the caller.
pub struct Ingress {
    frames: Deframer,
    ready: VecDeque<BatchItem>,
    /// For callers that take owned events: one copy of the part of the
    /// read buffer `ready`'s spans lie in, and where it starts there.
    /// Every payload of the read is a slice of it.
    shared: Option<(usize, Bytes)>,
    /// What ends the stream once `ready` is delivered: a clean close or
    /// abort, or an error met after earlier frames of the same read
    /// were already handled.
    failed: Option<TransportError>,
}

impl Default for Ingress {
    fn default() -> Self {
        Ingress::new()
    }
}

impl Ingress {
    pub fn new() -> Ingress {
        Ingress {
            frames: Deframer::new(),
            ready: VecDeque::new(),
            shared: None,
            failed: None,
        }
    }

    /// Room for the transport's next read ([`Deframer::space`]);
    /// follow with [`Ingress::filled`]. Everything parsed from the
    /// reads before must have been taken.
    pub fn space(&mut self) -> &mut [u8] {
        debug_assert!(
            !self
                .ready
                .iter()
                .any(|i| matches!(i, BatchItem::Data { .. })),
            "a span outlives its read"
        );
        self.frames.space()
    }

    /// The transport put `n` bytes into [`Ingress::space`].
    pub fn filled(&mut self, n: usize) {
        self.frames.filled(n);
    }

    /// Bytes received and not yet parsed: non-zero at end of stream
    /// means the peer died mid-frame.
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Feed every complete buffered frame to `assoc`, up to the first
    /// framing, decode or association error, and keep what they
    /// delivered for the caller. What `assoc` wants to send in response
    /// is the caller's to drain.
    pub fn ingest(&mut self, assoc: &mut Association) {
        self.shared = None;
        while self.failed.is_none() {
            let at = match self.frames.next_span() {
                Ok(Some(at)) => at,
                Ok(None) => break,
                Err(e) => {
                    self.failed = Some(e.into());
                    break;
                }
            };
            let handled = FrameView::parse(&self.frames.bytes()[at.start..at.end])
                .and_then(|f| assoc.handle_view(f));
            match handled {
                // The payload is the tail of its frame.
                Ok(Some(d)) => self.ready.push_back(BatchItem::Data {
                    stream_id: d.stream_id,
                    ppid: d.ppid,
                    at: at.end - d.payload.len()..at.end,
                }),
                Ok(None) => {}
                Err(e) => self.failed = Some(e.into()),
            }
            while let Some(ev) = assoc.poll_event() {
                match ev {
                    Event::Data {
                        stream_id,
                        ppid,
                        payload,
                    } => self.ready.push_back(BatchItem::Held {
                        stream_id,
                        ppid,
                        payload,
                    }),
                    Event::HeartbeatAck { nonce } => {
                        self.ready.push_back(BatchItem::HeartbeatAck { nonce })
                    }
                    Event::Established => {}
                    // Raised by a frame handled before any failing one,
                    // so it is what the caller must see.
                    Event::Closed => self.failed = Some(TransportError::Closed),
                    Event::Aborted { reason } => {
                        self.failed = Some(TransportError::Aborted(reason))
                    }
                }
            }
        }
    }

    /// Nothing left to hand out: time to parse what the buffer holds,
    /// and then to read.
    pub fn idle(&self) -> bool {
        self.ready.is_empty() && self.failed.is_none()
    }

    /// `item` as an owned event. The first payload taken from a read
    /// copies the stretch of the buffer that holds all of that read's
    /// payloads; the rest share it.
    fn owned(&mut self, item: BatchItem) -> StreamEvent {
        match item {
            BatchItem::Data {
                stream_id,
                ppid,
                at,
            } => {
                let (ready, frames) = (&self.ready, &self.frames);
                let (base, shared) = self.shared.get_or_insert_with(|| {
                    // Up to the last payload of this read still waiting.
                    let end = ready
                        .iter()
                        .rev()
                        .find_map(|i| match i {
                            BatchItem::Data { at, .. } => Some(at.end),
                            _ => None,
                        })
                        .unwrap_or(at.end);
                    (
                        at.start,
                        Bytes::copy_from_slice(&frames.bytes()[at.start..end]),
                    )
                });
                StreamEvent::Data {
                    stream_id,
                    ppid,
                    payload: shared.slice(at.start - *base..at.end - *base),
                }
            }
            BatchItem::Held {
                stream_id,
                ppid,
                payload,
            } => StreamEvent::Data {
                stream_id,
                ppid,
                payload,
            },
            BatchItem::HeartbeatAck { nonce } => StreamEvent::HeartbeatAck { nonce },
        }
    }

    /// The next ready event, or what ended the stream once the events
    /// before it are delivered; `None` means more bytes are needed.
    pub fn pop(&mut self) -> Option<Result<StreamEvent, TransportError>> {
        match self.ready.pop_front() {
            Some(item) => Some(Ok(self.owned(item))),
            None => self.failed.take().map(Err),
        }
    }

    /// Everything parsed and not yet taken, payloads borrowed from the
    /// read buffer; once that has been taken, what ended the stream, if
    /// something has (an [`Ingress::idle`] pipeline gives an empty
    /// batch).
    pub fn batch(&mut self) -> Result<ReadBatch<'_>, TransportError> {
        if self.ready.is_empty() {
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
        }
        Ok(ReadBatch {
            bytes: self.frames.bytes(),
            items: self.ready.drain(..),
        })
    }

    /// [`Ingress::batch`] as owned events appended to `out`.
    pub fn events(&mut self, out: &mut Vec<StreamEvent>) -> Result<(), TransportError> {
        if self.ready.is_empty() {
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
        }
        while let Some(item) = self.ready.pop_front() {
            let ev = self.owned(item);
            out.push(ev);
        }
        Ok(())
    }

    /// What ended the stream, if something has (ahead of anything still
    /// ready: for a handshake that has no use for either).
    pub(crate) fn take_failed(&mut self) -> Option<TransportError> {
        self.failed.take()
    }
}

/// What a consumer that keeps its messages takes: see
/// `SctpStream::next_event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// One application message.
    Data {
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    },
    /// The peer answered a ping.
    HeartbeatAck { nonce: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::frame_into;

    /// Both ends of an established association.
    fn pair() -> (Association, Association) {
        let (mut a, mut b) = (Association::connect(1, 2), Association::listen(2, 2));
        for _ in 0..2 {
            while let Some(f) = a.poll_egress() {
                b.handle_frame(f).unwrap();
            }
            while let Some(f) = b.poll_egress() {
                a.handle_frame(f).unwrap();
            }
        }
        while a.poll_event().is_some() {}
        while b.poll_event().is_some() {}
        assert!(a.is_established() && b.is_established());
        (a, b)
    }

    #[test]
    fn a_message_ahead_of_its_turn_comes_out_held_behind_the_one_that_was_due() {
        let (mut peer, mut near) = pair();
        let frames: Vec<_> = [&b"first"[..], b"second", b"third"]
            .iter()
            .map(|m| {
                peer.send(1, 7, Bytes::copy_from_slice(m)).unwrap();
                peer.poll_egress().unwrap()
            })
            .collect();
        // The second overtakes the first; the third is in its place.
        let mut ingress = Ingress::new();
        let mut read = Vec::new();
        for f in [&frames[1], &frames[0], &frames[2]] {
            frame_into(f, &mut read);
        }
        ingress.space()[..read.len()].copy_from_slice(&read);
        ingress.filled(read.len());
        ingress.ingest(&mut near);

        let batch = ingress.batch().unwrap();
        let bytes = batch.bytes();
        let got: Vec<(bool, Vec<u8>)> = batch
            .map(|item| match item {
                BatchItem::Data { at, .. } => (false, bytes[at].to_vec()),
                BatchItem::Held { payload, .. } => (true, payload.to_vec()),
                BatchItem::HeartbeatAck { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(
            got,
            [
                (false, b"first".to_vec()),
                (true, b"second".to_vec()),
                (false, b"third".to_vec()),
            ],
            "(held, payload) in delivery order"
        );
    }
}
