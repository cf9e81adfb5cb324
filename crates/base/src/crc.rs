//! CRC-32 (IEEE 802.3 polynomial, reflected — the one zlib, PNG and
//! Ethernet use), table-driven, sixteen bytes per step.
//!
//! Every segment, manifest, consumer-state frame and shard frame carries
//! it over its own bytes. It exists to make "one flipped byte anywhere"
//! detectable, not to resist adversaries. It runs over every byte of
//! every segment on the archive replay and serve paths, where the
//! byte-at-a-time walk (one dependent table load per byte) was most of
//! the store's decode time; slicing-by-16 does sixteen independent loads
//! per step, so only one dependent fold per sixteen bytes remains, and
//! yields the same value for every input.

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 16] = crc_tables();
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        // Byte `i` of the step is followed by `15 - i` bytes of it.
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][w[4] as usize]
            ^ TABLES[10][w[5] as usize]
            ^ TABLES[9][w[6] as usize]
            ^ TABLES[8][w[7] as usize]
            ^ TABLES[7][w[8] as usize]
            ^ TABLES[6][w[9] as usize]
            ^ TABLES[5][w[10] as usize]
            ^ TABLES[4][w[11] as usize]
            ^ TABLES[3][w[12] as usize]
            ^ TABLES[2][w[13] as usize]
            ^ TABLES[1][w[14] as usize]
            ^ TABLES[0][w[15] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix;

    /// The definition, one bit at a time, sharing nothing with the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn sliced_crc_equals_the_bitwise_definition_at_every_length_and_offset() {
        let mut rng = SplitMix::new(0x16);
        let buf: Vec<u8> = (0..96).map(|_| rng.next_u64() as u8).collect();
        // Lengths 0..=79 cover zero to four whole steps and every
        // remainder; offsets 0..16 cover every alignment of the first step.
        for offset in 0..16 {
            for len in 0..=79 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
