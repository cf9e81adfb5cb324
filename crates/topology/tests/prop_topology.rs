//! Property tests for the topology substrate: the LPM trie must agree with
//! a linear scan on arbitrary prefix sets, and prefixes must behave like
//! the sets they denote.

use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_topology::prefix::{Ipv4Prefix, LpmTable};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn prefix(rng: &mut SplitMix) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(rng.next_u64() as u32), rng.below(33) as u8)
}

/// The reference the trie is checked against: scan every entry for the
/// longest prefix containing `addr`. Two distinct prefixes of one length
/// are disjoint, so the longest match is unambiguous.
fn assert_matches_linear_scan(
    trie: &LpmTable<u32>,
    entries: &BTreeMap<Ipv4Prefix, u32>,
    addr: Ipv4Addr,
) {
    let want = entries
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, v)| *v);
    assert_eq!(trie.lookup(addr).copied(), want, "mismatch at {addr}");
}

/// The trie and a linear scan agree on every lookup: first over nested
/// prefixes under a default route, probed at each level, then over
/// arbitrary sets. Duplicated prefixes resolve to the *last* insert in the
/// trie; the scan reads deduplicated last-wins entries to match.
#[test]
fn trie_matches_linear_oracle() {
    let nested: BTreeMap<Ipv4Prefix, u32> = [
        ("10.0.0.0/8", 1),
        ("10.1.0.0/16", 2),
        ("172.16.0.0/12", 3),
        ("192.0.2.0/24", 4),
        ("0.0.0.0/0", 5),
    ]
    .into_iter()
    .map(|(p, v)| (p.parse().unwrap(), v))
    .collect();
    let mut trie = LpmTable::new();
    for (p, v) in &nested {
        trie.insert(*p, *v);
    }
    for addr in [
        Ipv4Addr::new(10, 1, 2, 3),
        Ipv4Addr::new(10, 99, 0, 1),
        Ipv4Addr::new(172, 20, 1, 1),
        Ipv4Addr::new(192, 0, 2, 77),
        Ipv4Addr::new(203, 0, 113, 1),
    ] {
        assert_matches_linear_scan(&trie, &nested, addr);
    }

    cases(256, |rng, size| {
        let mut trie = LpmTable::new();
        let mut last = BTreeMap::new();
        for _ in 0..rng.below(size.min(60) as u64) {
            let (p, v) = (prefix(rng), rng.next_u64() as u32);
            trie.insert(p, v);
            last.insert(p, v);
        }
        let inserted: Vec<Ipv4Prefix> = last.keys().copied().collect();
        for _ in 0..rng.below(size as u64) {
            // Half the probes fall inside an inserted prefix, however long.
            let (inside, raw) = (rng.chance(0.5), rng.next_u64());
            let addr = if inside && !inserted.is_empty() {
                rng.pick(&inserted).nth_addr(raw)
            } else {
                Ipv4Addr::from(raw as u32)
            };
            assert_matches_linear_scan(&trie, &last, addr);
        }
    });
}

/// contains() is consistent with nth_addr() and size().
#[test]
fn prefix_membership() {
    cases(256, |rng, _| {
        let p = prefix(rng);
        let member = p.nth_addr(rng.next_u64());
        assert!(p.contains(member));
        // The address one past the prefix (when it exists) is outside.
        if p.len() > 0 {
            let beyond = u32::from(p.network()) as u64 + p.size();
            if beyond <= u32::MAX as u64 {
                assert!(!p.contains(Ipv4Addr::from(beyond as u32)));
            }
        }
    });
}

/// covers() is a partial order consistent with membership.
#[test]
fn covers_transitivity() {
    cases(256, |rng, _| {
        // `b` is cut from inside `a` half the time, so that `covers` holds.
        let (a, other) = (prefix(rng), prefix(rng));
        let longer = rng.range(u64::from(a.len())..33) as u8;
        let inner = Ipv4Prefix::new(a.nth_addr(rng.next_u64()), longer);
        let b = rng.pick(&[inner, other]);
        if a.covers(b) {
            let addr = b.nth_addr(rng.next_u64());
            assert!(b.contains(addr));
            assert!(a.contains(addr), "{a} covers {b} but not {addr}");
        }
    });
}

/// Exact-match get() returns what was inserted (last wins).
#[test]
fn get_returns_last_insert() {
    cases(256, |rng, _| {
        let (p, v1, v2) = (prefix(rng), rng.next_u64() as u32, rng.next_u64() as u32);
        let mut t = LpmTable::new();
        t.insert(p, v1);
        assert_eq!(
            t.insert(p, v2),
            Some(v1),
            "the identical prefix is replaced"
        );
        assert_eq!(t.get(p), Some(&v2));
    });
}

/// Lookup of an address inside an inserted prefix never returns None.
#[test]
fn inserted_prefix_always_matches() {
    cases(256, |rng, _| {
        let (p, v) = (prefix(rng), rng.next_u64() as u32);
        let mut t = LpmTable::new();
        t.insert(p, v);
        assert_eq!(t.lookup(p.nth_addr(rng.next_u64())), Some(&v));
    });
}
