//! Checked big-endian reader/writer shared by the NAS and S1AP codecs
//! (`scale-s1ap` re-exports this module).

use bytes::{Buf, BufMut, Bytes};
use std::fmt;

/// Decode failure for NAS/S1AP PDUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NasError {
    Truncated { what: &'static str, needed: usize },
    Invalid { what: &'static str, value: u64 },
    /// Integrity check failed on a security-protected message.
    BadMac,
    /// Message requires a security context that is not established.
    NoSecurityContext,
}

impl fmt::Display for NasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NasError::Truncated { what, needed } => {
                write!(f, "truncated while reading {what} ({needed} bytes short)")
            }
            NasError::Invalid { what, value } => write!(f, "invalid {what}: {value:#x}"),
            NasError::BadMac => write!(f, "NAS integrity check failed"),
            NasError::NoSecurityContext => write!(f, "no NAS security context established"),
        }
    }
}

impl std::error::Error for NasError {}

/// Checked reader over [`Bytes`].
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    pub fn need(&self, what: &'static str, n: usize) -> Result<(), NasError> {
        if self.buf.remaining() < n {
            Err(NasError::Truncated {
                what,
                needed: n - self.buf.remaining(),
            })
        } else {
            Ok(())
        }
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, NasError> {
        self.need(what, 1)?;
        Ok(self.buf.get_u8())
    }

    pub fn u16(&mut self, what: &'static str) -> Result<u16, NasError> {
        self.need(what, 2)?;
        Ok(self.buf.get_u16())
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, NasError> {
        self.need(what, 4)?;
        Ok(self.buf.get_u32())
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, NasError> {
        self.need(what, 8)?;
        Ok(self.buf.get_u64())
    }

    pub fn bytes(&mut self, what: &'static str, n: usize) -> Result<Bytes, NasError> {
        self.need(what, n)?;
        Ok(self.buf.copy_to_bytes(n))
    }

    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], NasError> {
        self.need(what, N)?;
        let mut out = [0u8; N];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    /// Length-prefixed (u8) byte string.
    pub fn lv(&mut self, what: &'static str) -> Result<Bytes, NasError> {
        let len = self.u8(what)? as usize;
        self.bytes(what, len)
    }

    /// Length-prefixed (u8) UTF-8 string.
    pub fn lv_str(&mut self, what: &'static str) -> Result<String, NasError> {
        let b = self.lv(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| NasError::Invalid { what, value: 0 })
    }

    pub fn rest(&mut self) -> Bytes {
        let n = self.buf.remaining();
        self.buf.copy_to_bytes(n)
    }
}

/// Checked big-endian reader over a borrowed slice: what it hands out
/// are sub-slices of the input, so a caller can look inside a message
/// — or locate the part of it to forward — without owning or copying
/// any of it.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    buf: &'a [u8],
}

impl<'a> View<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        View { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, or how many are missing.
    pub fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], NasError> {
        if self.buf.len() < n {
            return Err(NasError::Truncated {
                what,
                needed: n - self.buf.len(),
            });
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], NasError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(what, N)?);
        Ok(out)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, NasError> {
        Ok(self.array::<1>(what)?[0])
    }

    pub fn u16(&mut self, what: &'static str) -> Result<u16, NasError> {
        self.array(what).map(u16::from_be_bytes)
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, NasError> {
        self.array(what).map(u32::from_be_bytes)
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }
}

/// Big-endian writer. It appends: over a buffer that already holds
/// something — a frame header, an outer message's fields — it writes
/// behind that ([`Writer::extend`]), which is how a message is encoded
/// straight into the buffer it leaves in.
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    pub fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }

    /// Run `write` with a writer that continues `buf`: everything it
    /// writes lands behind what `buf` holds.
    pub fn extend(buf: &mut Vec<u8>, write: impl FnOnce(&mut Writer)) {
        let mut w = Writer {
            buf: std::mem::take(buf),
        };
        write(&mut w);
        *buf = w.buf;
    }

    /// Reserve a big-endian `u16` length field; [`Writer::close_u16`]
    /// fills it in once what it counts has been written behind it.
    pub fn open_u16(&mut self) -> usize {
        self.u16(0);
        self.buf.len()
    }

    /// Set the field reserved by [`Writer::open_u16`] to the number of
    /// bytes written since. Panics past 65,535: every caller's field is
    /// bounded far below by construction.
    pub fn close_u16(&mut self, opened: usize) {
        let len = self.buf.len() - opened;
        assert!(len <= usize::from(u16::MAX), "u16 length field overflow");
        self.buf[opened - 2..opened].copy_from_slice(&(len as u16).to_be_bytes());
    }

    /// [`Writer::open_u16`] for a `u32` field.
    pub fn open_u32(&mut self) -> usize {
        self.u32(0);
        self.buf.len()
    }

    /// [`Writer::close_u16`] for a `u32` field.
    pub fn close_u32(&mut self, opened: usize) {
        let len = self.buf.len() - opened;
        assert!(len <= u32::MAX as usize, "u32 length field overflow");
        self.buf[opened - 4..opened].copy_from_slice(&(len as u32).to_be_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    pub fn slice(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Length-prefixed (u8) byte string. Panics if longer than 255 —
    /// NAS variable fields are all short.
    pub fn lv(&mut self, v: &[u8]) {
        assert!(v.len() <= 255, "LV field too long");
        self.buf.put_u8(v.len() as u8);
        self.buf.put_slice(v);
    }

    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lv_roundtrip() {
        let mut w = Writer::new();
        w.lv(b"hello");
        let mut r = Reader::new(w.finish());
        assert_eq!(&r.lv("s").unwrap()[..], b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn lv_str_rejects_bad_utf8() {
        let mut w = Writer::new();
        w.lv(&[0xff, 0xfe]);
        let mut r = Reader::new(w.finish());
        assert!(r.lv_str("s").is_err());
    }

    #[test]
    fn view_reads_what_reader_reads_and_borrows_it() {
        let bytes = [7u8, 0x01, 0x02, 0xde, 0xad, 0xbe, 0xef, b'a', b'b', b'c'];
        let mut v = View::new(&bytes);
        let mut r = Reader::new(Bytes::copy_from_slice(&bytes));
        assert_eq!(v.u8("a").unwrap(), r.u8("a").unwrap());
        assert_eq!(v.u16("b").unwrap(), r.u16("b").unwrap());
        assert_eq!(v.u32("c").unwrap(), r.u32("c").unwrap());
        assert_eq!(v.take("d", 2).unwrap(), &bytes[7..9]);
        assert_eq!(
            v.u32("e").unwrap_err(),
            NasError::Truncated { what: "e", needed: 3 }
        );
        assert_eq!(v.rest(), b"c");
        assert_eq!(v.remaining(), 0);
    }

    #[test]
    fn writer_continues_a_buffer_and_backpatches_lengths() {
        let mut buf = vec![0xAA, 0xBB];
        Writer::extend(&mut buf, |w| {
            let outer = w.open_u32();
            w.u8(1);
            let inner = w.open_u16();
            w.slice(b"xyz");
            w.close_u16(inner);
            w.close_u32(outer);
        });
        assert_eq!(buf, [0xAA, 0xBB, 0, 0, 0, 6, 1, 0, 3, b'x', b'y', b'z']);
    }

    #[test]
    fn truncation_reports_deficit() {
        let mut r = Reader::new(Bytes::from_static(&[1]));
        let err = r.u32("count").unwrap_err();
        assert_eq!(err, NasError::Truncated { what: "count", needed: 3 });
    }
}
