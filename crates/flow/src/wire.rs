//! Shared wire-format plumbing for the NetFlow/IPFIX codecs.
//!
//! Following the smoltcp/tokio-framing idiom, decoding is split into a cheap
//! `check`-style validation (enough bytes? sane lengths?) and the actual
//! field extraction, both operating on a borrowed byte slice through a
//! cursor — no allocation happens while walking packet bytes.

use std::fmt;

/// Errors that can arise while encoding or decoding flow export packets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // enum-internal fields are described per variant
pub enum WireError {
    /// The buffer ended before a complete structure was read.
    Truncated {
        /// What was being parsed.
        what: &'static str,
        /// Bytes needed beyond what was available.
        needed: usize,
    },
    /// A version field did not match the expected protocol version.
    BadVersion { expected: u16, found: u16 },
    /// A length or count field is inconsistent with the packet contents.
    BadLength { what: &'static str, value: usize },
    /// A data set referenced a template that has not been seen.
    UnknownTemplate { id: u16 },
    /// A field value is semantically invalid.
    BadField { what: &'static str },
    /// A value its field cannot carry (an unknown id, an hour past 23).
    OutOfRange { what: &'static str, value: u64 },
    /// A count of entries that the bytes left cannot hold.
    TooMany {
        what: &'static str,
        count: u64,
        left: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, needed } => {
                write!(f, "truncated {what}: {needed} more byte(s) needed")
            }
            WireError::BadVersion { expected, found } => {
                write!(f, "bad version: expected {expected}, found {found}")
            }
            WireError::BadLength { what, value } => write!(f, "bad length for {what}: {value}"),
            WireError::UnknownTemplate { id } => write!(f, "unknown template id {id}"),
            WireError::BadField { what } => write!(f, "invalid field: {what}"),
            WireError::OutOfRange { what, value } => write!(f, "{what} {value} out of range"),
            WireError::TooMany { what, count, left } => {
                write!(f, "implausible {what}: {count} entries in {left} bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for codec operations.
pub type WireResult<T> = Result<T, WireError>;

/// A non-allocating big-endian read cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at offset 0 of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with a `Truncated` error unless `n` bytes remain.
    pub(crate) fn require(&self, n: usize, what: &'static str) -> WireResult<()> {
        if self.remaining() < n {
            Err(WireError::Truncated {
                what,
                needed: n - self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    pub fn read_u8(&mut self, what: &'static str) -> WireResult<u8> {
        self.require(1, what)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian `u16`.
    pub fn read_u16(&mut self, what: &'static str) -> WireResult<u16> {
        self.require(2, what)?;
        let v = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    /// Read a big-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> WireResult<u32> {
        self.require(4, what)?;
        let b = &self.buf[self.pos..self.pos + 4];
        self.pos += 4;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> WireResult<u64> {
        self.require(8, what)?;
        let b = &self.buf[self.pos..self.pos + 8];
        self.pos += 8;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an unsigned integer of 1, 2, 4 or 8 bytes (IPFIX reduced-size
    /// encoding permits shorter-than-natural field lengths).
    pub(crate) fn read_uint(&mut self, len: usize, what: &'static str) -> WireResult<u64> {
        self.require(len, what)?;
        if len == 0 || len > 8 {
            return Err(WireError::BadLength { what, value: len });
        }
        let mut v: u64 = 0;
        for _ in 0..len {
            v = (v << 8) | u64::from(self.buf[self.pos]);
            self.pos += 1;
        }
        Ok(v)
    }

    /// Borrow `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize, what: &'static str) -> WireResult<&'a [u8]> {
        self.require(n, what)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `count` entries of at least `min_entry` bytes each, as a `usize`,
    /// if the bytes left can hold them: a corrupt count is `TooMany`
    /// before anything is allocated for it.
    pub fn fit(&self, count: u64, min_entry: usize, what: &'static str) -> WireResult<usize> {
        let left = self.remaining();
        if count > (left / min_entry.max(1)) as u64 {
            return Err(WireError::TooMany { what, count, left });
        }
        Ok(count as usize)
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize, what: &'static str) -> WireResult<()> {
        self.require(n, what)?;
        self.pos += n;
        Ok(())
    }

    /// A sub-cursor over the next `n` bytes, advancing this cursor past them.
    pub fn sub(&mut self, n: usize, what: &'static str) -> WireResult<Cursor<'a>> {
        let bytes = self.read_bytes(n, what)?;
        Ok(Cursor::new(bytes))
    }
}

/// `len` rounded up to the 32-bit alignment v9 FlowSets and IPFIX Sets keep.
pub(crate) fn padded(len: usize) -> usize {
    len.next_multiple_of(4)
}

/// The largest payload one UDP datagram carries over IPv4: the 16-bit IP
/// total length less the IP (20) and UDP (8) headers. An exporter never
/// builds a message longer than this.
pub const MAX_UDP_PAYLOAD: usize = 65_507;

/// Big-endian append helpers over a `Vec<u8>` used by the encoders.
#[allow(missing_docs)] // four symmetric append methods
pub trait PutBe {
    fn put_u8_be(&mut self, v: u8);
    fn put_u16_be(&mut self, v: u16);
    fn put_u32_be(&mut self, v: u32);
    fn put_u64_be(&mut self, v: u64);
}

impl PutBe for Vec<u8> {
    fn put_u8_be(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_be(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32_be(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64_be(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads() {
        let buf = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.read_u8("a").unwrap(), 1);
        assert_eq!(c.read_u16("b").unwrap(), 0x0203);
        assert_eq!(c.read_u32("c").unwrap(), 0x0405_0607);
        assert_eq!(c.remaining(), 2);
        assert!(matches!(
            c.read_u32("d"),
            Err(WireError::Truncated { needed: 2, .. })
        ));
    }

    #[test]
    fn cursor_uint_reduced_size() {
        let buf = [0xAB, 0xCD, 0xEF];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.read_uint(3, "x").unwrap(), 0x00AB_CDEF);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.read_uint(0, "x"),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn cursor_sub() {
        let buf = [1, 2, 3, 4, 5];
        let mut c = Cursor::new(&buf);
        let mut inner = c.sub(3, "set").unwrap();
        assert_eq!(inner.read_u16("f").unwrap(), 0x0102);
        assert_eq!(inner.remaining(), 1);
        assert_eq!(c.remaining(), 2);
        assert_eq!(c.read_u16("rest").unwrap(), 0x0405);
    }

    #[test]
    fn fit_bounds_a_count_by_the_bytes_left() {
        let c = Cursor::new(&[0u8; 10]);
        assert_eq!(c.fit(2, 5, "pairs").unwrap(), 2);
        assert_eq!(c.fit(0, 0, "none").unwrap(), 0);
        let err = c.fit(u64::MAX, 5, "pairs").unwrap_err();
        assert_eq!(
            err.to_string(),
            "implausible pairs: 18446744073709551615 entries in 10 bytes"
        );
    }

    #[test]
    fn put_be_roundtrip() {
        let mut v = Vec::new();
        v.put_u8_be(7);
        v.put_u16_be(0x1234);
        v.put_u32_be(0xDEAD_BEEF);
        v.put_u64_be(42);
        let mut c = Cursor::new(&v);
        assert_eq!(c.read_u8("a").unwrap(), 7);
        assert_eq!(c.read_u16("b").unwrap(), 0x1234);
        assert_eq!(c.read_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.read_u64("d").unwrap(), 42);
    }

    #[test]
    fn error_display() {
        let e = WireError::UnknownTemplate { id: 300 };
        assert_eq!(e.to_string(), "unknown template id 300");
        let e = WireError::BadVersion {
            expected: 9,
            found: 5,
        };
        assert!(e.to_string().contains("expected 9"));
    }
}
