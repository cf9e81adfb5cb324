//! Prefix-preserving IP address anonymization.
//!
//! The paper's ethics section (§2.1) states that "IP addresses are hashed to
//! prevent information leakage". For the pipeline to keep working after
//! anonymization, the hash must preserve *prefix structure* — otherwise
//! IP-to-AS attribution (longest-prefix match) and unique-IP counting per
//! prefix break. This module implements a Crypto-PAn-style prefix-preserving
//! scheme: bit *i* of the output is bit *i* of the input XORed with a keyed
//! pseudo-random function of bits `0..i`. Two addresses sharing a k-bit
//! prefix therefore map to outputs sharing exactly a k-bit prefix.
//!
//! The PRF is a splitmix64-based keyed mixer — deterministic, fast and
//! adequate for a research pipeline (this is an anonymization substrate for
//! a simulation, not a cryptographic product; the structure, not the cipher
//! strength, is what the reproduction needs).

use lockdown_base::hash::splitmix64;
use std::net::Ipv4Addr;

/// A keyed prefix-preserving anonymizer for IPv4 addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anonymizer {
    key: u64,
}

impl Anonymizer {
    /// Create an anonymizer from a secret key. The same key always yields
    /// the same mapping (the deterministic property the pipeline relies on
    /// for joining flows across files).
    pub fn new(key: u64) -> Anonymizer {
        Anonymizer { key }
    }

    /// Anonymize one address, preserving prefix relationships.
    pub fn anonymize(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let a = u32::from(addr);
        let mut out = 0u32;
        for i in 0..32 {
            // The i high bits of the input, right-aligned, with a sentinel
            // length marker so "prefix 0 of length 2" differs from
            // "prefix 0 of length 3".
            let prefix = if i == 0 { 0 } else { (a >> (32 - i)) as u64 };
            let material = splitmix64(self.key ^ prefix.wrapping_mul(0x100).wrapping_add(i as u64));
            let flip = (material & 1) as u32;
            let bit = (a >> (31 - i)) & 1;
            out = (out << 1) | (bit ^ flip);
        }
        Ipv4Addr::from(out)
    }

    /// Length (in bits) of the longest common prefix of two addresses.
    pub fn common_prefix_len(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
        (u32::from(a) ^ u32::from(b)).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let anon = Anonymizer::new(42);
        let a = Ipv4Addr::new(192, 0, 2, 55);
        assert_eq!(anon.anonymize(a), anon.anonymize(a));
    }

    #[test]
    fn different_keys_differ() {
        let a = Ipv4Addr::new(198, 51, 100, 7);
        assert_ne!(
            Anonymizer::new(1).anonymize(a),
            Anonymizer::new(2).anonymize(a)
        );
    }

    #[test]
    fn injective_on_sample() {
        // Prefix preservation implies injectivity; verify on a dense sample.
        let anon = Anonymizer::new(0xDEAD_BEEF);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u32 {
            let addr = Ipv4Addr::from(i * 1_048_573); // spread over the space
            assert!(seen.insert(anon.anonymize(addr)), "collision at {addr}");
        }
    }

    #[test]
    fn preserves_prefix_lengths_exactly() {
        let anon = Anonymizer::new(7);
        let base = Ipv4Addr::new(10, 20, 30, 40);
        for k in 0..32u32 {
            // Flip exactly bit k: common prefix is exactly k bits.
            let flipped = Ipv4Addr::from(u32::from(base) ^ (1 << (31 - k)));
            let (ea, eb) = (anon.anonymize(base), anon.anonymize(flipped));
            assert_eq!(
                Anonymizer::common_prefix_len(ea, eb),
                k,
                "prefix length not preserved at bit {k}"
            );
        }
    }

    #[test]
    fn common_prefix_len_basics() {
        let a = Ipv4Addr::new(192, 168, 0, 0);
        assert_eq!(Anonymizer::common_prefix_len(a, a), 32);
        assert_eq!(
            Anonymizer::common_prefix_len(a, Ipv4Addr::new(192, 168, 128, 0)),
            16
        );
        assert_eq!(
            Anonymizer::common_prefix_len(Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(128, 0, 0, 0)),
            0
        );
    }
}
