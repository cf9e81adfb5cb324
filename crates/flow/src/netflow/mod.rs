//! NetFlow export formats.
//!
//! * [`v5`] — the fixed-layout classic used by the ISP vantage point.
//! * [`v9`] — the templated format (RFC 3954) that IPFIX evolved from.
//!
//! Field-type numbers are shared between NetFlow v9 and IPFIX information
//! elements for the fields this pipeline uses, so the constants and the
//! [`Template`] machinery live here and are reused by [`crate::ipfix`].

pub mod options;
pub mod v5;
pub mod v9;

use crate::wire::{WireError, WireResult};

/// Field-type / information-element numbers used by the templates in this
/// workspace (identical in NetFlow v9 and the IANA IPFIX registry).
#[allow(missing_docs)] // each constant is annotated with its IE name inline
pub mod field {
    pub const IN_BYTES: u16 = 1; // octetDeltaCount
    pub const IN_PKTS: u16 = 2; // packetDeltaCount
    pub const PROTOCOL: u16 = 4; // protocolIdentifier
    pub const TCP_FLAGS: u16 = 6; // tcpControlBits
    pub const L4_SRC_PORT: u16 = 7; // sourceTransportPort
    pub const IPV4_SRC_ADDR: u16 = 8; // sourceIPv4Address
    pub const INPUT_SNMP: u16 = 10; // ingressInterface
    pub const L4_DST_PORT: u16 = 11; // destinationTransportPort
    pub const IPV4_DST_ADDR: u16 = 12; // destinationIPv4Address
    pub const OUTPUT_SNMP: u16 = 14; // egressInterface
    pub const SRC_AS: u16 = 16; // bgpSourceAsNumber
    pub const DST_AS: u16 = 17; // bgpDestinationAsNumber
    pub const LAST_SWITCHED: u16 = 21; // v9: uptime ms of last packet
    pub const FIRST_SWITCHED: u16 = 22; // v9: uptime ms of first packet
    pub const DIRECTION: u16 = 61; // flowDirection (0 ingress, 1 egress)
    pub const FLOW_START_SECONDS: u16 = 150; // IPFIX absolute start
    pub const FLOW_END_SECONDS: u16 = 151; // IPFIX absolute end
}

/// One `(field type, encoded length)` pair inside a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field-type / information-element number.
    pub field_type: u16,
    /// Encoded length in bytes.
    pub length: u16,
}

/// A flow template: the schema a data set is decoded against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Template id; data FlowSet/Set ids ≥ 256 reference this.
    pub id: u16,
    /// Ordered field specifications.
    pub fields: Vec<FieldSpec>,
}

impl Template {
    /// Create a template; ids below 256 are reserved for
    /// template/option sets in both v9 and IPFIX.
    pub fn new(id: u16, fields: Vec<FieldSpec>) -> WireResult<Template> {
        if id < 256 {
            return Err(WireError::BadField {
                what: "template id must be >= 256",
            });
        }
        if fields.is_empty() {
            return Err(WireError::BadField {
                what: "template must have at least one field",
            });
        }
        Ok(Template { id, fields })
    }

    /// Total encoded record length in bytes.
    pub fn record_len(&self) -> usize {
        self.fields.iter().map(|f| f.length as usize).sum()
    }

    /// The standard template this workspace's exporters use for
    /// [`crate::record::FlowRecord`], with v9-style relative timestamps.
    pub fn standard_v9(id: u16) -> Template {
        Template::new(id, STANDARD_V9.to_vec()).expect("standard template is valid")
    }

    /// The standard IPFIX template: absolute second timestamps
    /// (`flowStartSeconds`/`flowEndSeconds`) instead of uptime offsets.
    pub fn standard_ipfix(id: u16) -> Template {
        Template::new(id, STANDARD_IPFIX.to_vec()).expect("standard template is valid")
    }

    /// The fixed record layout this template's data records have, if its
    /// field list is one of the two standard ones: they differ only in how
    /// the timestamp pair is carried. Decided from the field list alone,
    /// once per data set, so a template learned off the wire and one built
    /// by [`Template::standard_ipfix`] are told apart by nothing else; any
    /// other list (permuted, reduced-size, foreign elements) is `None` and
    /// takes the per-field walk.
    pub(crate) fn fixed_times(&self) -> Option<FixedTimes> {
        if self.fields == STANDARD_IPFIX {
            Some(FixedTimes::Seconds)
        } else if self.fields == STANDARD_V9 {
            Some(FixedTimes::Uptime)
        } else {
            None
        }
    }
}

/// How the standard 51-byte record carries its timestamp pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FixedTimes {
    /// `flowStartSeconds`/`flowEndSeconds`: absolute Unix seconds.
    Seconds,
    /// `FIRST_SWITCHED`/`LAST_SWITCHED`: wrapped uptime milliseconds.
    Uptime,
}

const STANDARD_V9: [FieldSpec; 15] = standard_fields(field::FIRST_SWITCHED, field::LAST_SWITCHED);
const STANDARD_IPFIX: [FieldSpec; 15] =
    standard_fields(field::FLOW_START_SECONDS, field::FLOW_END_SECONDS);

/// The standard field list around the given 4-byte timestamp pair.
const fn standard_fields(start: u16, end: u16) -> [FieldSpec; 15] {
    use field::*;
    const fn spec(field_type: u16, length: u16) -> FieldSpec {
        FieldSpec { field_type, length }
    }
    [
        spec(IPV4_SRC_ADDR, 4),
        spec(IPV4_DST_ADDR, 4),
        spec(L4_SRC_PORT, 2),
        spec(L4_DST_PORT, 2),
        spec(PROTOCOL, 1),
        spec(TCP_FLAGS, 1),
        spec(INPUT_SNMP, 2),
        spec(OUTPUT_SNMP, 2),
        spec(IN_BYTES, 8),
        spec(IN_PKTS, 8),
        spec(start, 4),
        spec(end, 4),
        spec(SRC_AS, 4),
        spec(DST_AS, 4),
        spec(DIRECTION, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_validation() {
        assert!(Template::new(
            255,
            vec![FieldSpec {
                field_type: 1,
                length: 4
            }]
        )
        .is_err());
        assert!(Template::new(256, vec![]).is_err());
        assert!(Template::new(
            256,
            vec![FieldSpec {
                field_type: 1,
                length: 4
            }]
        )
        .is_ok());
    }

    #[test]
    fn standard_template_lengths() {
        let t = Template::standard_v9(300);
        assert_eq!(
            t.record_len(),
            4 + 4 + 2 + 2 + 1 + 1 + 2 + 2 + 8 + 8 + 4 + 4 + 4 + 4 + 1
        );
        let t = Template::standard_ipfix(300);
        assert_eq!(t.record_len(), 51);
    }
}
