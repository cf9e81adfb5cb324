//! Property tests for the topology substrate: the LPM trie must agree with
//! the linear-scan oracle on arbitrary prefix sets, and prefixes must
//! behave like the sets they denote.

use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_topology::prefix::{Ipv4Prefix, LinearPrefixTable, LpmTable};
use std::net::Ipv4Addr;

fn prefix(rng: &mut SplitMix) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(rng.next_u64() as u32), rng.below(33) as u8)
}

/// The trie and the linear oracle agree on every lookup. Duplicated
/// prefixes resolve to the *last* insert in the trie; feed the oracle
/// deduplicated last-wins entries to match.
#[test]
fn trie_matches_linear_oracle() {
    cases(256, |rng, size| {
        let mut trie = LpmTable::new();
        let mut last: std::collections::BTreeMap<Ipv4Prefix, u32> = Default::default();
        for _ in 0..rng.below(size.min(60) as u64) {
            let (p, v) = (prefix(rng), rng.next_u64() as u32);
            trie.insert(p, v);
            last.insert(p, v);
        }
        let mut linear = LinearPrefixTable::new();
        for (p, v) in &last {
            linear.insert(*p, *v);
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
            let got = trie.lookup(addr).copied();
            // The linear oracle needs the longest match among last-wins
            // entries; LinearPrefixTable already returns that, but when
            // several distinct prefixes share a length and contain the
            // address they cannot (disjoint equal-length prefixes can't
            // both contain one address, so it's unambiguous).
            let want = linear.lookup(addr).copied();
            assert_eq!(got, want, "mismatch at {}", addr);
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
