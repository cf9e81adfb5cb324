//! Byte-level primitives of the archive's index entries and segment
//! footers: LEB128 varints and the zigzag signed mapping. (The CRC every
//! segment and manifest carries is `lockdown_base::crc::crc32`; segment
//! columns are bit-packed in `segment`.)
//!
//! Counts, offsets and zone bounds are small most of the time, so LEB128
//! keeps the common case at a byte or two while still carrying full `u64`
//! range.

use lockdown_flow::wire::{Cursor, WireError, WireResult};

/// Append `v` as an LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Read the LEB128 varint at `bytes[*pos..]`, advancing `pos` past every
/// byte it looked at. Accepts exactly what [`put_varint`] writes: `None`
/// when the bytes end mid-varint, run past ten bytes, overflow 64 bits in
/// the tenth, or end in a redundant zero byte (`0x80 0x00` is not 0), so
/// a decoded value re-encodes to the same bytes.
#[inline]
fn varint_at(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            // The 10th byte may only carry the single remaining bit.
            let canonical = shift == 0 || (byte != 0 && (shift < 63 || byte == 1));
            return canonical.then_some(v);
        }
    }
    None
}

/// Read one LEB128 varint through [`varint_at`]: `Truncated` when the
/// cursor ends mid-varint, `BadField` for any other encoding
/// [`put_varint`] never writes.
pub(crate) fn get_varint(cursor: &mut Cursor<'_>, what: &'static str) -> WireResult<u64> {
    let rest = cursor.clone().read_bytes(cursor.remaining(), what)?;
    let mut pos = 0;
    match varint_at(rest, &mut pos) {
        Some(v) => {
            cursor.skip(pos, what)?;
            Ok(v)
        }
        None if rest[..pos].last().is_none_or(|b| b & 0x80 != 0) => {
            Err(WireError::Truncated { what, needed: 1 })
        }
        None => Err(WireError::BadField { what }),
    }
}

/// Map a signed value onto unsigned so small magnitudes of either sign
/// stay small.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
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
    fn varint_rejects_a_redundant_zero_byte_and_names_truncation() {
        for bad in [
            &[0x80, 0x00][..],
            &[0xFF, 0x80, 0x00],
            &[0x81, 0x80, 0x80, 0x00],
        ] {
            let mut c = Cursor::new(bad);
            assert!(
                matches!(get_varint(&mut c, "v"), Err(WireError::BadField { .. })),
                "{bad:02x?}"
            );
        }
        for cut in [&[][..], &[0x80], &[0xFF, 0xFF]] {
            let mut c = Cursor::new(cut);
            assert!(
                matches!(get_varint(&mut c, "v"), Err(WireError::Truncated { .. })),
                "{cut:02x?}"
            );
        }
        // A lone zero byte is 0, and a read stops at its varint's end.
        let mut c = Cursor::new(&[0x00, 0x85, 0x01, 0x07]);
        assert_eq!(get_varint(&mut c, "v").unwrap(), 0);
        assert_eq!(get_varint(&mut c, "v").unwrap(), 133);
        assert_eq!(c.remaining(), 1);
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
