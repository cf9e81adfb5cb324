//! The predicate language: what a dashboard may ask the archive.
//!
//! A [`QueryPlan`] is a conjunction of optional predicates over the flow
//! columns the paper's analyses filter on: a half-open time window over
//! flow starts, one stream (vantage point, ISP transit or EDU), one
//! application class, one AS number, one transport port (matched on
//! either end, like the §4 port analyses) and one direction. Parsing is
//! from decoded `key=value` pairs — the same surface whether they came
//! from `GET /query?...` or from `lockdown query` flags.

use lockdown_analysis::appclass::PaperClass;
use lockdown_flow::record::{Direction, FlowRecord};
use lockdown_flow::time::Date;
use lockdown_store::TimeRange;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::Stream;

/// A conjunction of column predicates, compiled against the manifest by
/// [`crate::engine::QueryEngine::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryPlan {
    /// First admitted flow-start second (inclusive).
    pub from: Option<u64>,
    /// First excluded flow-start second (exclusive).
    pub to: Option<u64>,
    /// Restrict to one stream.
    pub stream: Option<Stream>,
    /// Restrict to one application class (Table 1 filter inventory).
    pub class: Option<PaperClass>,
    /// Restrict to flows with this AS on either end.
    pub asn: Option<u32>,
    /// Restrict to flows with this port on either end.
    pub port: Option<u16>,
    /// Restrict to one direction (meaningful for the EDU stream).
    pub direction: Option<Direction>,
}

/// Class keys accepted by `class=`, one per [`PaperClass::ALL`] entry.
pub const CLASS_KEYS: [(&str, PaperClass); 9] = [
    ("webconf", PaperClass::WebConf),
    ("vod", PaperClass::Vod),
    ("gaming", PaperClass::Gaming),
    ("social", PaperClass::SocialMedia),
    ("messaging", PaperClass::Messaging),
    ("email", PaperClass::Email),
    ("educational", PaperClass::Educational),
    ("collab", PaperClass::CollabWorking),
    ("cdn", PaperClass::Cdn),
];

/// Stream keys accepted by `vantage=`: every vantage label (lowercased),
/// plus the two non-vantage streams.
pub fn stream_keys() -> Vec<(String, Stream)> {
    let mut keys: Vec<(String, Stream)> = VantagePoint::ALL
        .iter()
        .map(|&vp| (vp.label().to_ascii_lowercase(), Stream::Vantage(vp)))
        .collect();
    keys.push(("isp-transit".into(), Stream::IspTransit));
    keys.push(("edu-directional".into(), Stream::Edu));
    keys
}

fn parse_time(value: &str, what: &str) -> Result<u64, String> {
    if let Ok(secs) = value.parse::<u64>() {
        return Ok(secs);
    }
    let date = Date::parse_iso(value)
        .map_err(|e| format!("bad {what} '{value}': {e} (or give unix seconds)"))?;
    if date.day_number() < 0 {
        return Err(format!("bad {what} '{value}': before 1970-01-01"));
    }
    Ok(date.midnight().unix())
}

impl QueryPlan {
    /// Parse a plan from decoded `key=value` pairs. Unknown keys and
    /// unparseable values are errors naming the culprit — the HTTP layer
    /// maps them to 400, the CLI to exit 1.
    pub fn parse<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<QueryPlan, String> {
        let mut plan = QueryPlan::default();
        for (key, value) in pairs {
            match key {
                "from" => plan.from = Some(parse_time(value, "from")?),
                // A date given as `to` means "up to the end of the day
                // before": the exclusive midnight boundary.
                "to" => plan.to = Some(parse_time(value, "to")?),
                "vantage" => {
                    let want = value.to_ascii_lowercase();
                    plan.stream = Some(
                        stream_keys()
                            .into_iter()
                            .find(|(k, _)| *k == want)
                            .map(|(_, s)| s)
                            .ok_or_else(|| {
                                format!(
                                    "unknown vantage '{value}': want one of {}",
                                    stream_keys()
                                        .into_iter()
                                        .map(|(k, _)| k)
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                )
                            })?,
                    );
                }
                "class" => {
                    plan.class = Some(
                        CLASS_KEYS
                            .iter()
                            .find(|(k, _)| *k == value)
                            .map(|&(_, c)| c)
                            .ok_or_else(|| {
                                format!(
                                    "unknown class '{value}': want one of {}",
                                    CLASS_KEYS.map(|(k, _)| k).join(", ")
                                )
                            })?,
                    );
                }
                "as" => {
                    plan.asn = Some(
                        value
                            .parse::<u32>()
                            .map_err(|_| format!("bad as '{value}': want an AS number"))?,
                    );
                }
                "port" => {
                    plan.port = Some(
                        value
                            .parse::<u16>()
                            .map_err(|_| format!("bad port '{value}': want 0..=65535"))?,
                    );
                }
                "direction" => {
                    plan.direction = Some(match value {
                        "ingress" => Direction::Ingress,
                        "egress" => Direction::Egress,
                        "unknown" => Direction::Unknown,
                        other => {
                            return Err(format!(
                                "bad direction '{other}': want ingress, egress or unknown"
                            ))
                        }
                    });
                }
                other => return Err(format!("unknown query key '{other}'")),
            }
        }
        if plan.time_range().is_empty() {
            return Err("empty time range: from must be before to".into());
        }
        Ok(plan)
    }

    /// The plan's time window, unbounded ends filled in.
    pub fn time_range(&self) -> TimeRange {
        TimeRange {
            from: self.from.unwrap_or(0),
            to: self.to.unwrap_or(u64::MAX),
        }
    }

    /// Whether the window is the plan's only per-record predicate: then
    /// every record of a segment whose starts the window holds matches.
    pub(crate) fn window_only(&self) -> bool {
        self.class.is_none()
            && self.asn.is_none()
            && self.port.is_none()
            && self.direction.is_none()
    }

    /// Whether a decoded record passes every per-record predicate. The
    /// class predicate is evaluated by the caller (it needs the
    /// classifier); everything else is column comparisons.
    pub fn admits_record(&self, r: &FlowRecord) -> bool {
        self.time_range().admits_start(r.start.unix())
            && self
                .port
                .is_none_or(|p| r.key.src_port == p || r.key.dst_port == p)
            && self.asn.is_none_or(|a| r.src_as == a || r.dst_as == a)
            && self.direction.is_none_or(|d| r.direction == d)
    }

    /// Render back to a canonical query string (no percent-escaping
    /// needed: every key and value is URL-safe by construction).
    /// lockbench's client uses this to build its seeded request mix.
    pub fn to_query_string(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(f) = self.from {
            parts.push(format!("from={f}"));
        }
        if let Some(t) = self.to {
            parts.push(format!("to={t}"));
        }
        if let Some(s) = self.stream {
            let key = stream_keys()
                .into_iter()
                .find(|&(_, k)| k == s)
                .map(|(k, _)| k)
                .expect("every stream has a key");
            parts.push(format!("vantage={key}"));
        }
        if let Some(c) = self.class {
            let key = CLASS_KEYS
                .iter()
                .find(|&&(_, k)| k == c)
                .map(|&(k, _)| k)
                .expect("every class has a key");
            parts.push(format!("class={key}"));
        }
        if let Some(a) = self.asn {
            parts.push(format!("as={a}"));
        }
        if let Some(p) = self.port {
            parts.push(format!("port={p}"));
        }
        if let Some(d) = self.direction {
            parts.push(format!(
                "direction={}",
                match d {
                    Direction::Ingress => "ingress",
                    Direction::Egress => "egress",
                    Direction::Unknown => "unknown",
                }
            ));
        }
        parts.join("&")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_predicate() {
        let plan = QueryPlan::parse([
            ("from", "2020-03-01"),
            ("to", "2020-04-01"),
            ("vantage", "isp-ce"),
            ("class", "webconf"),
            ("as", "64501"),
            ("port", "443"),
            ("direction", "ingress"),
        ])
        .unwrap();
        assert_eq!(plan.from, Some(Date::new(2020, 3, 1).midnight().unix()));
        assert_eq!(plan.to, Some(Date::new(2020, 4, 1).midnight().unix()));
        assert_eq!(plan.stream, Some(Stream::Vantage(VantagePoint::IspCe)));
        assert_eq!(plan.class, Some(PaperClass::WebConf));
        assert_eq!(plan.asn, Some(64501));
        assert_eq!(plan.port, Some(443));
        assert_eq!(plan.direction, Some(Direction::Ingress));
    }

    #[test]
    fn round_trips_through_query_string() {
        let plan = QueryPlan::parse([
            ("from", "1583020800"),
            ("vantage", "isp-transit"),
            ("port", "3389"),
        ])
        .unwrap();
        let qs = plan.to_query_string();
        let pairs: Vec<(&str, &str)> = qs
            .split('&')
            .map(|kv| kv.split_once('=').unwrap())
            .collect();
        assert_eq!(QueryPlan::parse(pairs).unwrap(), plan);
    }

    #[test]
    fn rejects_unknowns_and_empty_windows() {
        assert!(QueryPlan::parse([("frobnicate", "1")])
            .unwrap_err()
            .contains("unknown query key"));
        assert!(QueryPlan::parse([("vantage", "moon")])
            .unwrap_err()
            .contains("unknown vantage"));
        assert!(QueryPlan::parse([("from", "10"), ("to", "10")])
            .unwrap_err()
            .contains("empty time range"));
        // Dates that `Date::new` or `midnight` would panic on are plain
        // errors naming the value: this is input from a URL.
        for bad in ["2020-02-31", "2020-13-01", "1969-01-01", "2020-01-01x"] {
            let err = QueryPlan::parse([("from", bad)]).unwrap_err();
            assert!(err.contains("bad from") && err.contains(bad), "{err}");
        }
    }
}
