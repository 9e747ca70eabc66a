//! sctplite wire format: a message-oriented, multi-stream framing in the
//! spirit of SCTP (RFC 4960), which carries S1AP in real deployments.
//!
//! Every frame is `verification_tag(4) || chunk_type(1) || flags(1) ||
//! length(2) || chunk body`. DATA chunks carry a stream id, a per-stream
//! sequence number and a payload protocol id (PPID), exactly the SCTP
//! properties S1AP depends on: message boundaries, multiple ordered
//! streams, and liveness via heartbeats.
//!
//! Both directions touch a payload once. [`Frame::encode_into`] writes
//! the header and the body straight into the buffer the frame leaves
//! in; [`FrameView::parse`] checks a received frame where it lies and
//! hands the payload out as a slice of it, and [`Frame::decode`] is
//! that parse plus a share of the input's storage.
//!
//! lint: hot-path

use bytes::{BufMut, Bytes};
use std::fmt;

/// Chunk type codes (mirroring RFC 4960 numbering where it exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChunkType {
    Data = 0,
    Init = 1,
    InitAck = 2,
    Heartbeat = 4,
    HeartbeatAck = 5,
    Abort = 6,
    Shutdown = 7,
    ShutdownAck = 8,
}

impl ChunkType {
    fn from_code(v: u8) -> Option<Self> {
        Some(match v {
            0 => ChunkType::Data,
            1 => ChunkType::Init,
            2 => ChunkType::InitAck,
            4 => ChunkType::Heartbeat,
            5 => ChunkType::HeartbeatAck,
            6 => ChunkType::Abort,
            7 => ChunkType::Shutdown,
            8 => ChunkType::ShutdownAck,
            _ => return None,
        })
    }
}

/// Errors from frame parsing or association handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SctpError {
    Truncated(&'static str),
    UnknownChunk(u8),
    /// Frame carried the wrong verification tag (mis-delivered/corrupt).
    BadTag { got: u32, want: u32 },
    /// Association is not in a state that allows this operation.
    BadState(&'static str),
    /// Per-stream sequence gap exceeded the reorder window.
    SequenceGap { stream: u16, got: u32, expected: u32 },
    /// The reserved flags byte was non-zero (corrupt or non-canonical).
    NonzeroFlags(u8),
    /// Bytes left over after the declared chunk body, or a fixed-size
    /// chunk body longer than its wire format: a canonical encoder
    /// never produces either, so the frame is corrupt.
    TrailingBytes(&'static str),
    /// Application payload too large for the 16-bit chunk length.
    Oversized(usize),
    /// DATA on a stream the INIT handshake did not open.
    BadStream { stream: u16, streams: u16 },
}

impl fmt::Display for SctpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SctpError::Truncated(w) => write!(f, "truncated sctplite {w}"),
            SctpError::UnknownChunk(t) => write!(f, "unknown chunk type {t}"),
            SctpError::BadTag { got, want } => {
                write!(f, "bad verification tag {got:#x} (want {want:#x})")
            }
            SctpError::BadState(s) => write!(f, "operation invalid in state {s}"),
            SctpError::SequenceGap { stream, got, expected } => write!(
                f,
                "stream {stream} sequence gap: got {got}, expected {expected}"
            ),
            SctpError::NonzeroFlags(b) => write!(f, "non-zero reserved flags {b:#04x}"),
            SctpError::TrailingBytes(w) => write!(f, "trailing bytes after {w}"),
            SctpError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the 16-bit chunk length")
            }
            SctpError::BadStream { stream, streams } => {
                write!(f, "stream {stream} is not one of the {streams} negotiated")
            }
        }
    }
}

impl std::error::Error for SctpError {}

/// A parsed chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chunk {
    /// Connection request: proposes the initiator's verification tag and
    /// outbound stream count.
    Init { init_tag: u32, num_streams: u16 },
    /// Connection accept: echoes the peer and proposes our tag.
    InitAck { init_tag: u32, num_streams: u16 },
    /// One application message on one stream.
    Data {
        stream_id: u16,
        seq: u32,
        ppid: u32,
        payload: Bytes,
    },
    Heartbeat { nonce: u64 },
    HeartbeatAck { nonce: u64 },
    Shutdown,
    ShutdownAck,
    Abort { reason: u8 },
}

impl Chunk {
    fn chunk_type(&self) -> ChunkType {
        match self {
            Chunk::Data { .. } => ChunkType::Data,
            Chunk::Init { .. } => ChunkType::Init,
            Chunk::InitAck { .. } => ChunkType::InitAck,
            Chunk::Heartbeat { .. } => ChunkType::Heartbeat,
            Chunk::HeartbeatAck { .. } => ChunkType::HeartbeatAck,
            Chunk::Abort { .. } => ChunkType::Abort,
            Chunk::Shutdown => ChunkType::Shutdown,
            Chunk::ShutdownAck => ChunkType::ShutdownAck,
        }
    }
}

/// A frame: verification tag + one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub tag: u32,
    pub chunk: Chunk,
}

/// Bytes of the frame header: tag, chunk type, flags, chunk length.
pub(crate) const FRAME_HEADER: usize = 8;
/// Bytes of a DATA chunk ahead of its payload: stream, sequence, PPID.
pub(crate) const DATA_HEADER: usize = 10;

/// A received frame, parsed where it lies: a DATA payload is a slice of
/// the input. Every other chunk is a few integers and is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView<'a> {
    pub tag: u32,
    pub chunk: ChunkView<'a>,
}

/// The chunk of a [`FrameView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkView<'a> {
    /// One application message; `payload` is the tail of the frame.
    Data {
        stream_id: u16,
        seq: u32,
        ppid: u32,
        payload: &'a [u8],
    },
    /// Any chunk but DATA.
    Control(Chunk),
}

fn be_u16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// A body that must be exactly `N` bytes, as an array.
fn fixed<const N: usize>(body: &[u8], what: &'static str) -> Result<[u8; N], SctpError> {
    match body.len().cmp(&N) {
        std::cmp::Ordering::Less => Err(SctpError::Truncated(what)),
        std::cmp::Ordering::Greater => Err(SctpError::TrailingBytes(what)),
        std::cmp::Ordering::Equal => {
            let mut out = [0u8; N];
            out.copy_from_slice(body);
            Ok(out)
        }
    }
}

impl<'a> FrameView<'a> {
    /// Parse one frame. Strict and canonical: the reserved flags byte
    /// must be zero, the declared length must consume the buffer
    /// exactly, and fixed-size chunk bodies must be exactly their wire
    /// size — any successful parse re-encodes to the identical bytes.
    pub fn parse(buf: &'a [u8]) -> Result<FrameView<'a>, SctpError> {
        if buf.len() < FRAME_HEADER {
            return Err(SctpError::Truncated("frame header"));
        }
        let (head, body) = buf.split_at(FRAME_HEADER);
        let tag = be_u32(head);
        let ty_code = head[4];
        let flags = head[5];
        if flags != 0 {
            return Err(SctpError::NonzeroFlags(flags));
        }
        let len = usize::from(be_u16(&head[6..]));
        if body.len() < len {
            return Err(SctpError::Truncated("chunk body"));
        }
        if body.len() > len {
            return Err(SctpError::TrailingBytes("chunk body"));
        }
        let ty = ChunkType::from_code(ty_code).ok_or(SctpError::UnknownChunk(ty_code))?;
        let chunk = match ty {
            ChunkType::Data => {
                if body.len() < DATA_HEADER {
                    return Err(SctpError::Truncated("data header"));
                }
                ChunkView::Data {
                    stream_id: be_u16(body),
                    seq: be_u32(&body[2..]),
                    ppid: be_u32(&body[6..]),
                    payload: &body[DATA_HEADER..],
                }
            }
            ChunkType::Init | ChunkType::InitAck => {
                let b: [u8; 6] = fixed(body, "init body")?;
                let (init_tag, num_streams) = (be_u32(&b), be_u16(&b[4..]));
                ChunkView::Control(if matches!(ty, ChunkType::Init) {
                    Chunk::Init { init_tag, num_streams }
                } else {
                    Chunk::InitAck { init_tag, num_streams }
                })
            }
            ChunkType::Heartbeat | ChunkType::HeartbeatAck => {
                let nonce = u64::from_be_bytes(fixed(body, "heartbeat nonce")?);
                ChunkView::Control(if matches!(ty, ChunkType::Heartbeat) {
                    Chunk::Heartbeat { nonce }
                } else {
                    Chunk::HeartbeatAck { nonce }
                })
            }
            ChunkType::Shutdown | ChunkType::ShutdownAck => {
                if !body.is_empty() {
                    return Err(SctpError::TrailingBytes("shutdown body"));
                }
                ChunkView::Control(if matches!(ty, ChunkType::Shutdown) {
                    Chunk::Shutdown
                } else {
                    Chunk::ShutdownAck
                })
            }
            ChunkType::Abort => {
                let [reason] = fixed(body, "abort reason")?;
                ChunkView::Control(Chunk::Abort { reason })
            }
        };
        Ok(FrameView { tag, chunk })
    }
}

/// Append the frame and DATA headers of a message whose `payload_len`
/// payload bytes the caller writes next.
pub(crate) fn put_data_header(
    out: &mut Vec<u8>,
    tag: u32,
    stream_id: u16,
    seq: u32,
    ppid: u32,
    payload_len: usize,
) {
    debug_assert!(payload_len <= MAX_PAYLOAD, "oversized chunk");
    out.put_u32(tag);
    out.put_u8(ChunkType::Data as u8);
    out.put_u8(0); // flags, reserved
    out.put_u16((DATA_HEADER + payload_len) as u16);
    out.put_u16(stream_id);
    out.put_u32(seq);
    out.put_u32(ppid);
}

impl Frame {
    /// Append the encoding to `out`: header first, then the body where
    /// it stays.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let control = |out: &mut Vec<u8>, body_len: u16| {
            out.put_u32(self.tag);
            out.put_u8(self.chunk.chunk_type() as u8);
            out.put_u8(0); // flags, reserved
            out.put_u16(body_len);
        };
        match &self.chunk {
            Chunk::Data {
                stream_id,
                seq,
                ppid,
                payload,
            } => {
                put_data_header(out, self.tag, *stream_id, *seq, *ppid, payload.len());
                out.put_slice(payload);
            }
            Chunk::Init { init_tag, num_streams }
            | Chunk::InitAck { init_tag, num_streams } => {
                control(out, 6);
                out.put_u32(*init_tag);
                out.put_u16(*num_streams);
            }
            Chunk::Heartbeat { nonce } | Chunk::HeartbeatAck { nonce } => {
                control(out, 8);
                out.put_u64(*nonce);
            }
            Chunk::Shutdown | Chunk::ShutdownAck => control(out, 0),
            Chunk::Abort { reason } => {
                control(out, 1);
                out.put_u8(*reason);
            }
        }
    }

    /// Bytes [`Frame::encode_into`] appends.
    pub fn encoded_len(&self) -> usize {
        FRAME_HEADER
            + match &self.chunk {
                Chunk::Data { payload, .. } => DATA_HEADER + payload.len(),
                Chunk::Init { .. } | Chunk::InitAck { .. } => 6,
                Chunk::Heartbeat { .. } | Chunk::HeartbeatAck { .. } => 8,
                Chunk::Shutdown | Chunk::ShutdownAck => 0,
                Chunk::Abort { .. } => 1,
            }
    }

    /// Serialize to a buffer of its own.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len()); // lint: allow(alloc): the buffer returned
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// [`FrameView::parse`], with a DATA payload sharing `buf`'s
    /// storage (which is why it takes the handle, not a slice).
    #[allow(clippy::needless_pass_by_value)]
    pub fn decode(buf: Bytes) -> Result<Frame, SctpError> {
        let view = FrameView::parse(&buf)?;
        Ok(Frame {
            tag: view.tag,
            chunk: match view.chunk {
                ChunkView::Data {
                    stream_id,
                    seq,
                    ppid,
                    payload,
                } => Chunk::Data {
                    stream_id,
                    seq,
                    ppid,
                    payload: buf.slice(buf.len() - payload.len()..),
                },
                ChunkView::Control(chunk) => chunk,
            },
        })
    }
}

/// Largest application payload a DATA chunk can carry: the 16-bit
/// chunk length covers the 10-byte data header plus the payload.
pub const MAX_PAYLOAD: usize = u16::MAX as usize - 10;

/// Payload protocol identifiers carried in DATA chunks.
pub mod ppid {
    /// S1AP over sctplite (real S1AP uses SCTP PPID 18).
    pub const S1AP: u32 = 18;
    /// GTP-C tunnelled over the MLB↔MMP link.
    pub const GTPC: u32 = 100;
    /// Diameter/S6a.
    pub const DIAMETER: u32 = 46;
    /// SCALE-internal state replication and meta-data exchange.
    pub const SCALE_STATE: u32 = 200;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(chunk: Chunk) {
        let frame = Frame { tag: 0xfeed_f00d, chunk };
        let back = Frame::decode(frame.encode()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn all_chunks_roundtrip() {
        roundtrip(Chunk::Init { init_tag: 7, num_streams: 4 });
        roundtrip(Chunk::InitAck { init_tag: 9, num_streams: 4 });
        roundtrip(Chunk::Data {
            stream_id: 1,
            seq: 42,
            ppid: ppid::S1AP,
            payload: Bytes::from_static(b"nas"),
        });
        roundtrip(Chunk::Data {
            stream_id: 0,
            seq: 0,
            ppid: 0,
            payload: Bytes::new(),
        });
        roundtrip(Chunk::Heartbeat { nonce: 0xdead });
        roundtrip(Chunk::HeartbeatAck { nonce: 0xdead });
        roundtrip(Chunk::Shutdown);
        roundtrip(Chunk::ShutdownAck);
        roundtrip(Chunk::Abort { reason: 3 });
    }

    #[test]
    fn unknown_chunk_type() {
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Shutdown,
        }
        .encode()
        .to_vec();
        bytes[4] = 99;
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::UnknownChunk(99)
        );
    }

    #[test]
    fn truncation_detected() {
        assert!(Frame::decode(Bytes::from_static(&[1, 2, 3])).is_err());
        // Header claims 10 body bytes but provides none.
        let raw = [0, 0, 0, 1, 0, 0, 0, 10];
        assert_eq!(
            Frame::decode(Bytes::copy_from_slice(&raw)).unwrap_err(),
            SctpError::Truncated("chunk body")
        );
    }

    #[test]
    fn nonzero_flags_rejected() {
        let mut bytes = Frame { tag: 1, chunk: Chunk::Shutdown }.encode().to_vec();
        bytes[5] = 0x80;
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::NonzeroFlags(0x80)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Garbage appended after the declared chunk body: the decoder
        // must not silently over-read (or under-read) the buffer.
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Heartbeat { nonce: 7 },
        }
        .encode()
        .to_vec();
        bytes.push(0xaa);
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::TrailingBytes("chunk body")
        );
    }

    #[test]
    fn oversize_fixed_body_rejected() {
        // A HEARTBEAT whose declared length exceeds its wire format: a
        // canonical encoder never emits this, so it is corrupt.
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Heartbeat { nonce: 7 },
        }
        .encode()
        .to_vec();
        bytes[7] = 9; // declared body length 9 (> nonce's 8)
        bytes.push(0);
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::TrailingBytes("heartbeat nonce")
        );
        let mut shutdown = Frame { tag: 1, chunk: Chunk::Shutdown }.encode().to_vec();
        shutdown[7] = 1;
        shutdown.push(0);
        assert_eq!(
            Frame::decode(Bytes::from(shutdown)).unwrap_err(),
            SctpError::TrailingBytes("shutdown body")
        );
    }
}
