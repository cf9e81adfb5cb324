//! Domain names and public-suffix handling.
//!
//! §6 of the paper identifies VPN gateways by "searching for `*vpn*` in any
//! domain label left of the public suffix (e.g.
//! `companyvpn3.example.com`)". That requires a public-suffix notion; the
//! real pipeline uses Mozilla's Public Suffix List, and this substrate
//! embeds the subset of rules the synthetic corpus uses (including
//! two-level rules like `co.uk`, exercising the same matching logic).

use std::fmt;
use std::str::FromStr;

/// A fully-qualified domain name, stored as lower-case labels in
/// left-to-right order (`www.example.com` → `["www", "example", "com"]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    labels: Vec<String>,
}

/// Error parsing a domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDomainError(pub String);

impl fmt::Display for ParseDomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid domain name: {}", self.0)
    }
}

impl std::error::Error for ParseDomainError {}

impl DomainName {
    /// Construct from labels (left to right). Labels are lower-cased.
    pub(crate) fn from_labels<I, S>(labels: I) -> Result<DomainName, ParseDomainError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let labels: Vec<String> = labels
            .into_iter()
            .map(|l| l.as_ref().to_ascii_lowercase())
            .collect();
        if labels.is_empty() {
            return Err(ParseDomainError(String::new()));
        }
        for l in &labels {
            if l.is_empty()
                || l.len() > 63
                || !l
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(ParseDomainError(labels.join(".")));
            }
        }
        Ok(DomainName { labels })
    }

    /// Length (in labels) of this domain's public suffix.
    ///
    /// Two-level rules (`co.uk`, `ac.uk`, `com.es`) are checked before
    /// one-level TLDs; unknown TLDs default to a one-label suffix, the same
    /// fallback the PSL prescribes.
    pub(crate) fn public_suffix_len(&self) -> usize {
        const TWO_LEVEL: [[&str; 2]; 6] = [
            ["co", "uk"],
            ["ac", "uk"],
            ["com", "es"],
            ["org", "es"],
            ["edu", "es"],
            ["com", "br"],
        ];
        let n = self.labels.len();
        if n >= 2 {
            let last2 = [self.labels[n - 2].as_str(), self.labels[n - 1].as_str()];
            if TWO_LEVEL.contains(&last2) {
                return 2;
            }
        }
        1
    }

    /// Labels left of the public suffix (the part §6's `*vpn*` search
    /// scans). Empty for a bare public suffix.
    pub(crate) fn labels_left_of_suffix(&self) -> &[String] {
        let ps = self.public_suffix_len();
        &self.labels[..self.labels.len().saturating_sub(ps)]
    }

    /// The registrable domain (public suffix plus one label), if any.
    pub(crate) fn registrable(&self) -> Option<DomainName> {
        let ps = self.public_suffix_len();
        if self.labels.len() <= ps {
            return None;
        }
        Some(DomainName {
            labels: self.labels[self.labels.len() - ps - 1..].to_vec(),
        })
    }

    /// Whether any label left of the public suffix contains `vpn`
    /// (§6's candidate condition).
    pub(crate) fn has_vpn_label(&self) -> bool {
        self.labels_left_of_suffix()
            .iter()
            .any(|l| l.contains("vpn"))
    }

    /// Whether the leftmost label is exactly `www` (§6 excludes domains
    /// "labeled … as www.").
    pub(crate) fn is_www(&self) -> bool {
        self.labels.first().map(String::as_str) == Some("www")
    }

    /// The `www.` name on the same registrable domain
    /// (`companyvpn3.example.com` → `www.example.com`), used by §6's
    /// shared-IP elimination step.
    pub(crate) fn www_sibling(&self) -> Option<DomainName> {
        let reg = self.registrable()?;
        let mut labels = Vec::with_capacity(reg.labels.len() + 1);
        labels.push("www".to_string());
        labels.extend(reg.labels.iter().cloned());
        Some(DomainName { labels })
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.labels.join("."))
    }
}

impl FromStr for DomainName {
    type Err = ParseDomainError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        DomainName::from_labels(trimmed.split('.'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(d("WWW.Example.COM").to_string(), "www.example.com");
        assert_eq!(d("example.com.").labels, ["example", "com"]);
        assert!("".parse::<DomainName>().is_err());
        assert!("foo..bar".parse::<DomainName>().is_err());
        assert!("exa mple.com".parse::<DomainName>().is_err());
    }

    #[test]
    fn public_suffixes() {
        assert_eq!(d("example.com").public_suffix_len(), 1);
        assert_eq!(d("example.co.uk").public_suffix_len(), 2);
        assert_eq!(d("uni.edu.es").public_suffix_len(), 2);
        assert_eq!(d("example.de").public_suffix_len(), 1);
    }

    #[test]
    fn registrable_domain() {
        assert_eq!(d("a.b.example.com").registrable(), Some(d("example.com")));
        assert_eq!(d("vpn.firm.co.uk").registrable(), Some(d("firm.co.uk")));
        assert_eq!(d("com").registrable(), None);
        assert_eq!(d("co.uk").registrable(), None);
    }

    #[test]
    fn vpn_label_matching() {
        // The paper's example.
        assert!(d("companyvpn3.example.com").has_vpn_label());
        assert!(d("vpn.example.de").has_vpn_label());
        assert!(d("my-openvpn-gw.firm.co.uk").has_vpn_label());
        // vpn only in the registrable label still counts (left of suffix).
        assert!(d("host.vpnprovider.com").has_vpn_label());
        // No match: vpn in the public suffix can't happen; vps ≠ vpn.
        assert!(!d("vps1.example.com").has_vpn_label());
        assert!(!d("www.example.com").has_vpn_label());
    }

    #[test]
    fn www_detection_and_sibling() {
        assert!(d("www.example.com").is_www());
        assert!(!d("wwwvpn.example.com").is_www());
        assert_eq!(
            d("companyvpn3.example.com").www_sibling(),
            Some(d("www.example.com"))
        );
        assert_eq!(
            d("gw-vpn.firm.co.uk").www_sibling(),
            Some(d("www.firm.co.uk"))
        );
        assert_eq!(d("com").www_sibling(), None);
    }

    #[test]
    fn labels_left_of_suffix() {
        assert_eq!(
            d("a.b.example.co.uk").labels_left_of_suffix(),
            &["a".to_string(), "b".to_string(), "example".to_string()][..]
        );
        assert!(d("co.uk").labels_left_of_suffix().is_empty());
    }
}
