//! The paper's hypergiant list (Appendix A, Table 2).
//!
//! The paper adopts the hypergiant classification of Böttger et al. and
//! lists 15 ASes responsible for about 75% of the traffic delivered to the
//! Central-European ISP's end users. The list is reproduced verbatim here
//! and is the ground truth for the hypergiant/other split of §3.2 (Fig. 4).

use crate::asn::Asn;

/// One hypergiant entry from Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergiant {
    /// Organization name as printed in Table 2.
    pub name: &'static str,
    /// AS number from Table 2.
    pub asn: Asn,
}

/// Table 2, verbatim.
pub const HYPERGIANTS: [Hypergiant; 15] = [
    Hypergiant {
        name: "Apple Inc",
        asn: Asn(714),
    },
    Hypergiant {
        name: "Amazon.com",
        asn: Asn(16509),
    },
    Hypergiant {
        name: "Facebook",
        asn: Asn(32934),
    },
    Hypergiant {
        name: "Google Inc.",
        asn: Asn(15169),
    },
    Hypergiant {
        name: "Akamai Technologies",
        asn: Asn(20940),
    },
    Hypergiant {
        name: "Yahoo!",
        asn: Asn(10310),
    },
    Hypergiant {
        name: "Netflix",
        asn: Asn(2906),
    },
    Hypergiant {
        name: "Hurricane Electric",
        asn: Asn(6939),
    },
    Hypergiant {
        name: "OVH",
        asn: Asn(16276),
    },
    Hypergiant {
        name: "Limelight Networks Global",
        asn: Asn(22822),
    },
    Hypergiant {
        name: "Microsoft",
        asn: Asn(8075),
    },
    Hypergiant {
        name: "Twitter, Inc.",
        asn: Asn(13414),
    },
    Hypergiant {
        name: "Twitch",
        asn: Asn(46489),
    },
    Hypergiant {
        name: "Cloudflare",
        asn: Asn(13335),
    },
    Hypergiant {
        name: "Verizon Digital Media Services",
        asn: Asn(15133),
    },
];

/// Words of [`MEMBERS`]: enough for the largest ASN of Table 2.
const WORDS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < HYPERGIANTS.len() {
        if HYPERGIANTS[i].asn.0 > max {
            max = HYPERGIANTS[i].asn.0;
        }
        i += 1;
    }
    max as usize / 64 + 1
};

/// Table 2 as a bitset over ASNs, one bit each, built from [`HYPERGIANTS`]
/// at compile time (5.8 KB).
const MEMBERS: [u64; WORDS] = members();

const fn members() -> [u64; WORDS] {
    let mut bits = [0u64; WORDS];
    let mut i = 0;
    while i < HYPERGIANTS.len() {
        let asn = HYPERGIANTS[i].asn.0 as usize;
        bits[asn / 64] |= 1 << (asn % 64);
        i += 1;
    }
    bits
}

/// Whether an ASN is one of the paper's 15 hypergiants: one bitset read,
/// with no branch on the ASN (an ASN past the set reads its last word and
/// is masked out).
#[inline]
pub fn is_hypergiant(asn: Asn) -> bool {
    let word = asn.0 as usize / 64;
    let bits = MEMBERS[word.min(WORDS - 1)];
    (word < WORDS) & (bits >> (asn.0 % 64) & 1 == 1)
}

/// Look up a hypergiant by ASN.
pub fn hypergiant(asn: Asn) -> Option<&'static Hypergiant> {
    HYPERGIANTS.iter().find(|h| h.asn == asn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_entries() {
        assert_eq!(HYPERGIANTS.len(), 15);
    }

    #[test]
    fn membership() {
        assert!(is_hypergiant(Asn(15_169))); // Google
        assert!(is_hypergiant(Asn(2_906))); // Netflix
        assert!(is_hypergiant(Asn(13_335))); // Cloudflare
        assert!(!is_hypergiant(Asn(3_320))); // Deutsche Telekom: eyeball, not HG
        assert!(!is_hypergiant(Asn(0)));
    }

    #[test]
    fn bitset_matches_the_table() {
        let listed = |asn: u32| HYPERGIANTS.iter().any(|h| h.asn.0 == asn);
        for asn in (0..70_000).chain([u32::MAX, u32::MAX - 63, 1 << 31, 46_489 + 64]) {
            assert_eq!(is_hypergiant(Asn(asn)), listed(asn), "AS{asn}");
        }
    }

    #[test]
    fn lookup_by_asn() {
        assert_eq!(hypergiant(Asn(8_075)).unwrap().name, "Microsoft");
        assert!(hypergiant(Asn(1)).is_none());
    }

    #[test]
    fn asns_unique() {
        let mut asns: Vec<u32> = HYPERGIANTS.iter().map(|h| h.asn.0).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), 15);
    }
}
