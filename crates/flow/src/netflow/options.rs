//! Options templates: exporter metadata carried in-band (RFC 3954 §6.1,
//! RFC 7011 §3.4.2.2).
//!
//! Routers announce their packet-sampling configuration through options
//! records — `samplingInterval` (IE 34) and `samplingAlgorithm` (IE 35)
//! scoped to the exporting system. A collector that sees the announcement
//! renormalizes sampled counters by the interval; one that missed it
//! under-reports, which is precisely why the announcement is resent with
//! every template refresh.
//!
//! This module holds the format-independent pieces; the v9 and IPFIX
//! codecs encode/decode the surrounding sets (v9 separates scope and
//! option field counts by *byte length*, IPFIX by *field count* — both
//! are handled by the respective callers).

use super::FieldSpec;
use crate::wire::{Cursor, WireError, WireResult};

/// Scope field type: System (the whole exporter).
pub(crate) const SCOPE_SYSTEM: u16 = 1;
/// Information element: samplingInterval (1-in-N).
pub(crate) const SAMPLING_INTERVAL: u16 = 34;
/// Information element: samplingAlgorithm (1 = deterministic, 2 = random).
pub(crate) const SAMPLING_ALGORITHM: u16 = 35;

/// A parsed options template: scope fields plus option fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OptionsTemplate {
    /// Template id (shares the ≥256 space with data templates).
    pub id: u16,
    /// Scope field specifications.
    pub scope_fields: Vec<FieldSpec>,
    /// Option field specifications.
    pub option_fields: Vec<FieldSpec>,
}

impl OptionsTemplate {
    /// The standard sampling announcement used by this workspace's
    /// exporters: System scope + (interval, algorithm).
    pub(crate) fn sampling(id: u16) -> OptionsTemplate {
        OptionsTemplate {
            id,
            scope_fields: vec![FieldSpec {
                field_type: SCOPE_SYSTEM,
                length: 4,
            }],
            option_fields: vec![
                FieldSpec {
                    field_type: SAMPLING_INTERVAL,
                    length: 4,
                },
                FieldSpec {
                    field_type: SAMPLING_ALGORITHM,
                    length: 1,
                },
            ],
        }
    }

    /// Total encoded record length in bytes.
    pub(crate) fn record_len(&self) -> usize {
        self.scope_fields
            .iter()
            .chain(&self.option_fields)
            .map(|f| f.length as usize)
            .sum()
    }
}

/// Sampling state announced by an exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingInfo {
    /// 1-in-N sampling interval.
    pub interval: u32,
    /// Algorithm code (1 deterministic, 2 random).
    pub algorithm: u8,
}

impl SamplingInfo {
    /// Unsampled export.
    pub(crate) fn unsampled() -> SamplingInfo {
        SamplingInfo {
            interval: 1,
            algorithm: 1,
        }
    }
}

/// Parse one options data record against its template, extracting
/// sampling information if the template carries it.
pub(crate) fn parse_options_record(
    cursor: &mut Cursor<'_>,
    template: &OptionsTemplate,
) -> WireResult<Option<SamplingInfo>> {
    let mut interval: Option<u32> = None;
    let mut algorithm: Option<u8> = None;
    for f in template.scope_fields.iter().chain(&template.option_fields) {
        let v = cursor.read_uint(f.length as usize, "options field")?;
        match f.field_type {
            SAMPLING_INTERVAL => interval = Some(v as u32),
            SAMPLING_ALGORITHM => algorithm = Some(v as u8),
            _ => {}
        }
    }
    Ok(interval.map(|interval| {
        if interval == 0 {
            // A zero interval is nonsense; treat as unsampled rather than
            // dividing by zero downstream.
            return SamplingInfo::unsampled();
        }
        SamplingInfo {
            interval,
            algorithm: algorithm.unwrap_or(1),
        }
    }))
}

/// Validate an options template's structure.
pub(crate) fn validate(template: &OptionsTemplate) -> WireResult<()> {
    if template.id < 256 {
        return Err(WireError::BadField {
            what: "options template id must be >= 256",
        });
    }
    if template.scope_fields.is_empty() && template.option_fields.is_empty() {
        return Err(WireError::BadField {
            what: "options template must have fields",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_template_shape() {
        let t = OptionsTemplate::sampling(400);
        assert_eq!(t.record_len(), 4 + 4 + 1);
        assert!(validate(&t).is_ok());
    }

    #[test]
    fn invalid_templates_rejected() {
        let mut t = OptionsTemplate::sampling(100);
        assert!(validate(&t).is_err());
        t.id = 300;
        t.scope_fields.clear();
        t.option_fields.clear();
        assert!(validate(&t).is_err());
    }

    #[test]
    fn parse_extracts_sampling() {
        let t = OptionsTemplate::sampling(300);
        // scope system id (4) | interval = 1000 (4) | algorithm = 2 (1)
        let bytes = [0, 0, 0, 7, 0, 0, 0x03, 0xE8, 2];
        let mut c = Cursor::new(&bytes);
        let info = parse_options_record(&mut c, &t).unwrap().unwrap();
        assert_eq!(info.interval, 1_000);
        assert_eq!(info.algorithm, 2);
    }

    #[test]
    fn zero_interval_is_unsampled() {
        let t = OptionsTemplate::sampling(300);
        let bytes = [0, 0, 0, 7, 0, 0, 0, 0, 2];
        let mut c = Cursor::new(&bytes);
        let info = parse_options_record(&mut c, &t).unwrap().unwrap();
        assert_eq!(info, SamplingInfo::unsampled());
    }

    #[test]
    fn template_without_sampling_yields_none() {
        let t = OptionsTemplate {
            id: 300,
            scope_fields: vec![FieldSpec {
                field_type: SCOPE_SYSTEM,
                length: 4,
            }],
            option_fields: vec![FieldSpec {
                field_type: 99,
                length: 2,
            }],
        };
        let bytes = [0, 0, 0, 1, 0, 5];
        let mut c = Cursor::new(&bytes);
        assert!(parse_options_record(&mut c, &t).unwrap().is_none());
    }
}
