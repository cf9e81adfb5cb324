//! Byte-level primitives for the columnar segment format: LEB128 varints
//! and the zigzag signed mapping. (The CRC every segment and manifest
//! carries is `lockdown_base::crc::crc32`.)
//!
//! Column arrays are sequences of small deltas most of the time, so LEB128
//! keeps the common case at one byte while still carrying full `u64` range.

use lockdown_flow::wire::{Cursor, WireError, WireResult};

/// Append `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read one LEB128 varint; rejects encodings longer than 10 bytes.
pub fn get_varint(cursor: &mut Cursor<'_>, what: &'static str) -> WireResult<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = cursor.read_u8(what)?;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            // The 10th byte may only carry the single remaining bit.
            if shift == 63 && byte > 1 {
                return Err(WireError::BadField { what });
            }
            return Ok(v);
        }
    }
    Err(WireError::BadField { what })
}

/// Map a signed delta onto unsigned so small magnitudes of either sign
/// stay small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(get_varint(&mut c, "v").unwrap(), v);
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut c = Cursor::new(&buf);
        assert!(get_varint(&mut c, "v").is_err());
        // A 10-byte encoding whose last byte overflows 64 bits.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            get_varint(&mut c, "v"),
            Err(WireError::BadField { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
