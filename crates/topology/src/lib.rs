//! # lockdown-topology
//!
//! The AS-level Internet model underneath the `lockdown` reproduction.
//!
//! The paper attributes flows to autonomous systems and slices every result
//! by AS identity: hypergiants vs. the rest (§3.2, Fig. 4), remote-work
//! relevant ASes (§3.4, Fig. 6), per-class provider ASes (§5, Table 1), and
//! IXP members with physical port capacities (§3.3, Fig. 5). The real
//! inputs — WHOIS, PeeringDB, BGP tables, IXP member lists — are
//! proprietary or unavailable, so this crate synthesizes an Internet with
//! the same categorical structure:
//!
//! * [`asn`] — ASNs, business categories, regions;
//! * [`hypergiants`] — the paper's Table 2, verbatim;
//! * [`prefix`] — CIDR prefixes and a longest-prefix-match trie;
//! * [`registry`] — the deterministic synthetic AS registry with prefix
//!   allocations and IP→AS attribution;
//! * [`dns`] — the CT-log/forward-DNS corpus over that registry and §6's
//!   `*vpn*` domain identification;
//! * [`vantage`] — the paper's seven observation networks;
//! * [`ixp`] — IXP member fabrics with port capacities and the pandemic
//!   capacity upgrades of §3.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod asn;
pub mod dns;
pub mod hypergiants;
pub mod ixp;
pub mod prefix;
pub mod registry;
pub mod vantage;
