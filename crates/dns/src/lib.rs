//! # lockdown-dns
//!
//! The DNS substrate behind §6's headline methodological claim: port-based
//! VPN identification "vastly undercounts actual VPN traffic", and
//! domain-based identification over TCP/443 recovers the missing share.
//!
//! * [`domain`] — domain names with public-suffix handling (the `*vpn*`
//!   label search scans labels *left of the public suffix*);
//! * [`corpus`] — a synthetic CT-log/forward-DNS/toplist corpus with
//!   VPN gateways, www-shared addresses, decoys, and the ground truth the
//!   generator and tests use;
//! * [`vpn`] — the paper's identification procedure verbatim, including
//!   the conservative `www.`-collision elimination step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod corpus;
pub mod domain;
pub mod vpn;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::corpus::{synthesize, Corpus};
    pub use crate::vpn::identify_vpn_ips;
}
