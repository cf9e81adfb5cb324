//! The DNS substrate behind §6's headline methodological claim: port-based
//! VPN identification "vastly undercounts actual VPN traffic", and
//! domain-based identification over TCP/443 recovers the missing share.
//!
//! * [`domain`] — domain names with public-suffix handling (the `*vpn*`
//!   label search scans labels *left of the public suffix*);
//! * [`corpus`] — a synthetic CT-log/forward-DNS/toplist corpus, built
//!   from the [registry](crate::registry::Registry), with VPN gateways,
//!   www-shared addresses, decoys, and the ground truth the generator and
//!   tests use;
//! * [`vpn`] — the paper's identification procedure verbatim, including
//!   the conservative `www.`-collision elimination step.

pub mod corpus;
pub mod domain;
pub mod vpn;
