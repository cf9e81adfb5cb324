//! CRC-32 (IEEE 802.3 polynomial, reflected — the one zlib, PNG and
//! Ethernet use), table-driven, three lanes of sixteen bytes per step.
//!
//! Every segment, manifest, consumer-state frame and shard frame carries
//! it over its own bytes. It exists to make "one flipped byte anywhere"
//! detectable, not to resist adversaries. It runs over every byte of
//! every segment on the archive replay and serve paths, so its speed is
//! the store's read speed.
//!
//! Slicing-by-16 does sixteen independent table loads per step, leaving
//! one dependent fold per sixteen bytes; a single stream of those folds
//! is bound by their latency. So a long input is cut into blocks of
//! three `LANE`-byte lanes, each lane folded from its own state (the
//! first from the running CRC, the others from zero) in one interleaved
//! loop, three independent chains at once. CRC is linear over GF(2): the
//! state after a lane and then `LANE` more bytes is the first lane's state
//! advanced over `LANE` zero bytes, xor the second lane's, so one table
//! lookup per state byte (`ADVANCE`) joins the lanes. Short
//! inputs and the tail run the plain slicing-by-16 loop, and every input
//! yields the value the byte-at-a-time definition gives.

/// Bytes in each of a block's three lanes; a multiple of the sixteen-byte
/// step.
const LANE: usize = 128;
/// Bytes in a block of three lanes.
const BLOCK: usize = 3 * LANE;

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes.
const TABLES: [[u32; 256]; 16] = crc_tables();
/// `ADVANCE[k][b]` is the state `b << 8k` advanced over [`LANE`] zero
/// bytes.
const ADVANCE: [[u32; 256]; 4] = crc_advance_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut sa, mut sb, mut sc) = (crc, 0, 0);
        for ((wa, wb), wc) in a
            .chunks_exact(16)
            .zip(b.chunks_exact(16))
            .zip(c.chunks_exact(16))
        {
            sa = step(sa, wa);
            sb = step(sb, wb);
            sc = step(sc, wc);
        }
        crc = advance(advance(sa) ^ sb) ^ sc;
    }
    !sliced(crc, blocks.remainder())
}

/// Fold `bytes` into the state `crc`, sixteen bytes a step, then byte by
/// byte.
#[inline(always)]
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        crc = step(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// One sixteen-byte step: byte `i` of `w` is followed by `15 - i` bytes of
/// it.
#[inline(always)]
fn step(crc: u32, w: &[u8]) -> u32 {
    let w: &[u8; 16] = w.try_into().expect("16 bytes");
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    TABLES[15][(lo & 0xFF) as usize]
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
        ^ TABLES[0][w[15] as usize]
}

/// The state `crc` advanced over [`LANE`] zero bytes.
#[inline(always)]
fn advance(crc: u32) -> u32 {
    ADVANCE[0][(crc & 0xFF) as usize]
        ^ ADVANCE[1][((crc >> 8) & 0xFF) as usize]
        ^ ADVANCE[2][((crc >> 16) & 0xFF) as usize]
        ^ ADVANCE[3][(crc >> 24) as usize]
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

/// The [`LANE`]-zero-byte advance as four byte tables: each entry is its
/// state byte, at its place, run through [`LANE`] zero bytes.
const fn crc_advance_tables() -> [[u32; 256]; 4] {
    let table = crc_tables();
    let mut advance = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut crc = (b as u32) << (8 * k);
            let mut zero = 0;
            while zero < LANE {
                crc = (crc >> 8) ^ table[0][(crc & 0xFF) as usize];
                zero += 1;
            }
            advance[k][b] = crc;
            b += 1;
        }
        k += 1;
    }
    advance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix;
    use crate::prop::cases;

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
        let buf: Vec<u8> = (0..1_216).map(|_| rng.next_u64() as u8).collect();
        // Lengths 0..=1200 cover zero to three whole blocks of lanes, every
        // step remainder after each, and the sixteen-byte steps alone
        // below one block; offsets 0..16 cover every alignment of the
        // first step.
        for offset in 0..16 {
            for len in 0..=1_200 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc_equals_the_bitwise_definition_up_to_64_kib() {
        cases(48, |rng, size| {
            let most = (64 * 1024 * size / 100) as u64;
            let bytes: Vec<u8> = (0..rng.below(most + 1))
                .map(|_| rng.next_u64() as u8)
                .collect();
            assert_eq!(
                crc32(&bytes),
                crc32_bitwise(&bytes),
                "length {}",
                bytes.len()
            );
        });
    }
}
