//! Length-delimited framing of sctplite frames over a byte stream,
//! sans-IO: a `u32` big-endian length word, then the frame body.
//!
//! [`Deframer`] is the receive side. The transport hands it whatever one
//! `read` returned — half a frame, one frame, fifty frames — and takes
//! complete frames back out, so the number of frames per syscall is
//! whatever the socket happened to hold. A frame comes out as the place
//! in the read buffer where it lies ([`Deframer::next_span`]): the
//! buffer is not touched again until the transport asks for room for
//! its next read, so whoever consumes the frame parses it, and may
//! forward its payload, right there. [`frame_into`] is the send side:
//! it appends one length-prefixed frame to a byte buffer the caller
//! writes out in one piece.
//!
//! lint: hot-path

use crate::chunk::{Frame, SctpError};
use bytes::Bytes;
use std::ops::Range;

/// Largest frame body a peer may announce. Checked before any buffer is
/// sized from the length word.
pub const MAX_FRAME: usize = 1 << 20;

/// Steady-state size of the read buffer. A frame that does not fit
/// grows the buffer to exactly that frame and the buffer shrinks back
/// once the frame is consumed.
pub const READ_BUF: usize = 64 * 1024;

const LEN_WORD: usize = 4;

/// Receive-side frame parser over one reused buffer.
pub struct Deframer {
    buf: Vec<u8>,
    /// `buf[start..end]` holds received, not yet parsed bytes.
    start: usize,
    end: usize,
}

impl Default for Deframer {
    fn default() -> Self {
        Deframer::new()
    }
}

impl Deframer {
    /// An empty deframer with a [`READ_BUF`]-byte buffer.
    pub fn new() -> Deframer {
        Deframer {
            buf: vec![0u8; READ_BUF], // lint: allow(alloc) — once per link
            start: 0,
            end: 0,
        }
    }

    /// Body length of the frame at the head of the buffer, once its
    /// length word is complete. A length over [`MAX_FRAME`] is rejected
    /// here, before anything is sized from it.
    fn head_len(&self) -> Result<Option<usize>, SctpError> {
        let Some(word) = self.buf[self.start..self.end].first_chunk::<LEN_WORD>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*word) as usize;
        if len > MAX_FRAME {
            return Err(SctpError::Truncated("frame length implausible"));
        }
        Ok(Some(len))
    }

    /// Where the body of the next complete frame lies in
    /// [`Deframer::bytes`]; `Ok(None)` means more bytes are needed. The
    /// span stays valid until the next [`Deframer::space`]. After an
    /// error the stream has lost frame alignment and the link must be
    /// dropped.
    pub fn next_span(&mut self) -> Result<Option<Range<usize>>, SctpError> {
        let Some(len) = self.head_len()? else {
            return Ok(None);
        };
        let body = self.start + LEN_WORD;
        if self.end - body < len {
            return Ok(None);
        }
        self.start = body + len;
        Ok(Some(body..self.start))
    }

    /// The read buffer that [`Deframer::next_span`]'s spans index.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Take the next complete frame out of the buffer as a value of its
    /// own, the one copy a payload that outlives the buffer costs;
    /// otherwise as [`Deframer::next_span`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, SctpError> {
        match self.next_span()? {
            // lint: allow(alloc): the caller asked for an owned frame
            Some(at) => Frame::decode(Bytes::copy_from_slice(&self.buf[at])).map(Some),
            None => Ok(None),
        }
    }

    /// The writable tail of the buffer for the transport's next `read`:
    /// never empty, and large enough for the frame at the head to
    /// complete. Follow with [`Deframer::filled`]. Spans handed out
    /// before this call are void after it: a drained buffer starts over
    /// at its front (and a buffer grown for one large frame is given
    /// back), a partial frame may be moved there.
    pub fn space(&mut self) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > READ_BUF {
                self.buf.truncate(READ_BUF);
                self.buf.shrink_to_fit();
            }
        }
        // A length word over the limit makes `next_span` fail before
        // the transport reads again; treating it as 0 here keeps this
        // function from ever sizing the buffer from it.
        let need = LEN_WORD + self.head_len().ok().flatten().unwrap_or(0);
        if self.start > 0 && (self.end == self.buf.len() || self.start + need > self.buf.len()) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Record that the transport wrote `n` bytes into [`Deframer::space`].
    pub fn filled(&mut self, n: usize) {
        assert!(n <= self.buf.len() - self.end, "filled past the buffer");
        self.end += n;
    }

    /// Bytes received but not yet returned as frames. Non-zero at end
    /// of stream means the peer died mid-frame.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Current size of the buffer (the adversarial suite checks that a
    /// hostile length word never grows it).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

/// Append `frame`, length-prefixed, to `out`.
pub fn frame_into(frame: &Frame, out: &mut Vec<u8>) {
    out.extend_from_slice(&(frame.encoded_len() as u32).to_be_bytes());
    frame.encode_into(out);
}
