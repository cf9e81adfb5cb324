//! IPv4 prefixes and the longest-prefix-match table.
//!
//! Flow pipelines attribute traffic to autonomous systems by looking up the
//! source/destination address in a BGP-derived prefix table. The paper's
//! analyses (hypergiant split §3.2, remote-work ASes §3.4, app classes §5)
//! all depend on that attribution, so the substrate implements a real LPM
//! structure: a binary trie keyed on address bits, with exact longest-match
//! semantics.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct a prefix; host bits below the mask are cleared.
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Prefix {
        assert!(len <= 32, "prefix length out of range: {len}");
        let raw = u32::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        Ipv4Prefix { addr: masked, len }
    }

    /// Network address.
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a bit count, not a container
    pub fn len(self) -> u8 {
        self.len
    }

    /// Number of addresses covered (2^(32-len)).
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.len);
        (u32::from(addr) & mask) == self.addr
    }

    /// The `i`-th address within the prefix (wraps modulo the prefix size) —
    /// the generator's way of picking deterministic host addresses.
    pub fn nth_addr(self, i: u64) -> Ipv4Addr {
        Ipv4Addr::from(self.addr.wrapping_add((i % self.size()) as u32))
    }

    /// Whether `other` is fully contained in `self`.
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        other.len >= self.len && self.contains(other.network())
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Error parsing a prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(pub String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Ipv4Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| ParsePrefixError(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError(s.to_string()))?;
        if len > 32 {
            return Err(ParsePrefixError(s.to_string()));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

/// A longest-prefix-match table mapping prefixes to values (ASNs here).
///
/// Implemented as a binary trie over address bits. Insertion is O(len);
/// lookup walks at most 32 nodes and returns the value of the deepest
/// matching prefix.
#[derive(Debug, Clone)]
pub struct LpmTable<V> {
    nodes: Vec<Node<V>>,
}

#[derive(Debug, Clone)]
struct Node<V> {
    children: [Option<u32>; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn empty() -> Node<V> {
        Node {
            children: [None, None],
            value: None,
        }
    }
}

impl<V: Clone> Default for LpmTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> LpmTable<V> {
    /// An empty table.
    pub fn new() -> LpmTable<V> {
        LpmTable {
            nodes: vec![Node::empty()],
        }
    }

    /// Insert a prefix→value mapping. Replaces (and returns) any existing
    /// value for the identical prefix.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: V) -> Option<V> {
        let bits = u32::from(prefix.network());
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = ((bits >> (31 - i)) & 1) as usize;
            node = match self.nodes[node].children[bit] {
                Some(next) => next as usize,
                None => {
                    let next = self.nodes.len();
                    self.nodes.push(Node::empty());
                    self.nodes[node].children[bit] = Some(next as u32);
                    next
                }
            };
        }
        self.nodes[node].value.replace(value)
    }

    /// Longest-prefix-match lookup: the value of the most specific prefix
    /// containing `addr`, or `None`.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&V> {
        let bits = u32::from(addr);
        let mut node = 0usize;
        let mut best = self.nodes[0].value.as_ref();
        for i in 0..32 {
            let bit = ((bits >> (31 - i)) & 1) as usize;
            match self.nodes[node].children[bit] {
                Some(next) => {
                    node = next as usize;
                    if let Some(v) = self.nodes[node].value.as_ref() {
                        best = Some(v);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Exact-match retrieval of a stored prefix's value.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&V> {
        let bits = u32::from(prefix.network());
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = ((bits >> (31 - i)) & 1) as usize;
            node = self.nodes[node].children[bit]? as usize;
        }
        self.nodes[node].value.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_basics() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(192, 168, 17, 200), 16);
        assert_eq!(p.network(), Ipv4Addr::new(192, 168, 0, 0)); // host bits cleared
        assert_eq!(p.len(), 16);
        assert_eq!(p.size(), 65_536);
        assert!(p.contains(Ipv4Addr::new(192, 168, 255, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 169, 0, 0)));
        assert_eq!(p.to_string(), "192.168.0.0/16");
    }

    #[test]
    fn prefix_parse() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(p, Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8));
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("hello/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn default_route() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(p.size(), 1 << 32);
    }

    #[test]
    fn nth_addr_wraps() {
        let p: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        assert_eq!(p.nth_addr(0), Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(p.nth_addr(255), Ipv4Addr::new(198, 51, 100, 255));
        assert_eq!(p.nth_addr(256), Ipv4Addr::new(198, 51, 100, 0));
        assert!(p.contains(p.nth_addr(1_000_003)));
    }

    #[test]
    fn covers() {
        let big: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let small: Ipv4Prefix = "10.42.0.0/16".parse().unwrap();
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(big.covers(big));
    }

    #[test]
    fn lpm_longest_match_wins() {
        let mut t = LpmTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), 1u32);
        t.insert("10.1.0.0/16".parse().unwrap(), 2);
        t.insert("10.1.2.0/24".parse().unwrap(), 3);
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(&3));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 99, 1)), Some(&2));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 200, 0, 1)), Some(&1));
        assert_eq!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn lpm_replace() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert("10.0.0.0/8".parse().unwrap(), 1u32), None);
        assert_eq!(t.insert("10.0.0.0/8".parse().unwrap(), 9), Some(1));
        assert_eq!(t.get("10.0.0.0/8".parse().unwrap()), Some(&9));
    }

    #[test]
    fn lpm_default_route() {
        let mut t = LpmTable::new();
        t.insert("0.0.0.0/0".parse().unwrap(), 0u32);
        t.insert("192.0.2.0/24".parse().unwrap(), 7);
        assert_eq!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(&0));
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 200)), Some(&7));
    }

    #[test]
    fn lpm_host_routes() {
        let mut t = LpmTable::new();
        t.insert("192.0.2.1/32".parse().unwrap(), 1u32);
        t.insert("192.0.2.0/24".parse().unwrap(), 2);
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 1)), Some(&1));
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 2)), Some(&2));
    }
}
