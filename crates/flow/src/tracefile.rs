//! On-disk container for exported flow datagrams.
//!
//! Collectors archive raw export packets for replay and offline analysis
//! (the paper's IRB setup kept all raw data on-premises and re-ran
//! analyses over stored flows). This is a minimal, self-describing,
//! length-prefixed container:
//!
//! ```text
//! magic "LKDN" | version u16 | flags u16          (8-byte header)
//! repeat: len u32 | recv_time u64 | payload [len]  (one record per datagram)
//! ```
//!
//! All integers big-endian, consistent with the flow protocols themselves.
//! The reader is incremental and validates structure without touching
//! payloads, so a trace can be replayed straight into a
//! [`crate::collector::Collector`].

use crate::time::Timestamp;
use crate::wire::{Cursor, WireError, WireResult};

/// File magic.
pub const MAGIC: [u8; 4] = *b"LKDN";
/// Current format version.
pub(crate) const VERSION: u16 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 8;

/// Append the workspace's shared 8-byte container header
/// (`magic | version u16 | flags u16`) used by every on-disk format —
/// trace files here and the columnar archive's segments and manifest in
/// `lockdown-store`.
pub fn write_container_header(buf: &mut Vec<u8>, magic: [u8; 4], version: u16, flags: u16) {
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(&version.to_be_bytes());
    buf.extend_from_slice(&flags.to_be_bytes());
}

/// Validate the shared container header at the cursor, returning the flags
/// word. Rejects a foreign magic and any version other than `version`, so
/// every container format fails fast on the wrong file kind.
pub fn read_container_header(
    cursor: &mut Cursor<'_>,
    magic: [u8; 4],
    version: u16,
) -> WireResult<u16> {
    let found = cursor.read_bytes(4, "container magic")?;
    if found != magic {
        return Err(WireError::BadField {
            what: "container magic",
        });
    }
    let v = cursor.read_u16("container version")?;
    if v != version {
        return Err(WireError::BadVersion {
            expected: version,
            found: v,
        });
    }
    cursor.read_u16("container flags")
}
/// Sanity cap on datagram size (64 KiB, the UDP maximum).
pub(crate) const MAX_DATAGRAM: usize = 65_535;

/// Incremental trace writer over any `Vec<u8>`-like sink.
#[derive(Debug, Default)]
pub struct TraceWriter {
    buf: Vec<u8>,
    count: usize,
}

impl TraceWriter {
    /// Start a new trace.
    pub fn new() -> TraceWriter {
        let mut buf = Vec::with_capacity(4_096);
        write_container_header(&mut buf, MAGIC, VERSION, 0); // flags: reserved
        TraceWriter { buf, count: 0 }
    }

    /// Append one datagram received at `recv_time`.
    pub fn push(&mut self, recv_time: Timestamp, payload: &[u8]) -> WireResult<()> {
        if payload.len() > MAX_DATAGRAM {
            return Err(WireError::BadLength {
                what: "trace datagram",
                value: payload.len(),
            });
        }
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(&recv_time.unix().to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.count += 1;
        Ok(())
    }

    /// Number of datagrams written.
    pub fn datagrams(&self) -> usize {
        self.count
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// One replayed datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord<'a> {
    /// Receive timestamp.
    pub recv_time: Timestamp,
    /// Raw datagram bytes.
    pub payload: &'a [u8],
}

/// Zero-copy trace reader.
#[derive(Debug)]
pub struct TraceReader<'a> {
    cursor: Cursor<'a>,
}

impl<'a> TraceReader<'a> {
    /// Open a trace, validating the header.
    pub fn open(bytes: &'a [u8]) -> WireResult<TraceReader<'a>> {
        let mut cursor = Cursor::new(bytes);
        read_container_header(&mut cursor, MAGIC, VERSION)?;
        Ok(TraceReader { cursor })
    }

    /// Read the next record; `Ok(None)` at a clean end of file.
    pub(crate) fn next_record(&mut self) -> WireResult<Option<TraceRecord<'a>>> {
        if self.cursor.remaining() == 0 {
            return Ok(None);
        }
        let len = self.cursor.read_u32("record length")? as usize;
        if len > MAX_DATAGRAM {
            return Err(WireError::BadLength {
                what: "trace datagram",
                value: len,
            });
        }
        let recv_time = Timestamp::from_unix(self.cursor.read_u64("record time")?);
        let payload = self.cursor.read_bytes(len, "record payload")?;
        Ok(Some(TraceRecord { recv_time, payload }))
    }
}

impl<'a> Iterator for TraceReader<'a> {
    type Item = WireResult<TraceRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Date;

    #[test]
    fn roundtrip() {
        let t0 = Date::new(2020, 3, 25).at_hour(12);
        let mut w = TraceWriter::new();
        w.push(t0, b"hello").unwrap();
        w.push(t0.add_secs(1), b"").unwrap();
        w.push(t0.add_secs(2), &[0xAB; 1_500]).unwrap();
        assert_eq!(w.datagrams(), 3);
        let bytes = w.finish();

        let mut r = TraceReader::open(&bytes).unwrap();
        let a = r.next_record().unwrap().unwrap();
        assert_eq!(a.recv_time, t0);
        assert_eq!(a.payload, b"hello");
        let b = r.next_record().unwrap().unwrap();
        assert!(b.payload.is_empty());
        let c = r.next_record().unwrap().unwrap();
        assert_eq!(c.payload.len(), 1_500);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn iterator_interface() {
        let t0 = Date::new(2020, 3, 25).at_hour(12);
        let mut w = TraceWriter::new();
        for i in 0..10u8 {
            w.push(t0.add_secs(u64::from(i)), &[i]).unwrap();
        }
        let bytes = w.finish();
        let r = TraceReader::open(&bytes).unwrap();
        let payloads: Vec<u8> = r.map(|rec| rec.unwrap().payload[0]).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOPE\x00\x01\x00\x00";
        assert!(matches!(
            TraceReader::open(bytes),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut w = TraceWriter::new().finish();
        w[5] = 9;
        assert!(matches!(
            TraceReader::open(&w),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn truncation_detected_mid_record() {
        let t0 = Date::new(2020, 3, 25).at_hour(12);
        let mut w = TraceWriter::new();
        w.push(t0, &[7; 100]).unwrap();
        let bytes = w.finish();
        let mut r = TraceReader::open(&bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(r.next_record(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversized_datagram_rejected_on_write() {
        let t0 = Date::new(2020, 3, 25).at_hour(12);
        let mut w = TraceWriter::new();
        assert!(w.push(t0, &vec![0; MAX_DATAGRAM + 1]).is_err());
    }

    #[test]
    fn shared_header_helper_roundtrips_flags() {
        let mut buf = Vec::new();
        write_container_header(&mut buf, *b"TEST", 3, 0xBEEF);
        let mut c = Cursor::new(&buf);
        assert_eq!(read_container_header(&mut c, *b"TEST", 3).unwrap(), 0xBEEF);
        assert_eq!(c.remaining(), 0);
        // Foreign magic and wrong version are both rejected.
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            read_container_header(&mut c, *b"NOPE", 3),
            Err(WireError::BadField { .. })
        ));
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            read_container_header(&mut c, *b"TEST", 4),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn empty_trace_is_valid() {
        let bytes = TraceWriter::new().finish();
        assert_eq!(bytes.len(), HEADER_LEN);
        let mut r = TraceReader::open(&bytes).unwrap();
        assert!(r.next_record().unwrap().is_none());
    }
}
