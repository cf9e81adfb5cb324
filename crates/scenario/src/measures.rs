//! Declarative scenario specifications: dated measures + discrete events.
//!
//! This module is the data the rest of the crate interprets. A
//! [`ScenarioSpec`] describes one intervention regime — per-region dated
//! measures (awareness, restrictions, stay-at-home orders, reopenings by
//! percentage), the educational-system closure, a baseline organic-growth
//! drift, and discrete [`MeasureEvent`]s (resolution reductions, provider
//! outages, flash crowds). Specs come from scenario files only: the default
//! calibration is the shipped `scenarios/covid-spring-2020.toml`, compiled
//! in ([`ScenarioSpec::covid_spring_2020`]).
//!
//! Scenario files are parsed by the in-crate TOML subset parser
//! ([`crate::toml`]); every rule is checked once, while parsing, and every
//! error names the offending source line.

use crate::toml::{self, Entry, Table, Value};
use lockdown_base::hash::splitmix64;
use lockdown_flow::time::Date;
use lockdown_topology::asn::Region;
use lockdown_topology::vantage::{VantageKind, VantagePoint};

use crate::apps::AppClass;

/// A scenario-file error, carrying the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<toml::ParseError> for SpecError {
    fn from(e: toml::ParseError) -> SpecError {
        SpecError {
            line: e.line,
            message: e.message,
        }
    }
}

fn spec_err<T>(line: usize, message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        message: message.into(),
    })
}

/// Baseline (non-intervention) drift parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineSpec {
    /// Anchor date of the organic-growth power curve.
    pub organic_anchor: Date,
    /// Week-over-week organic growth factor (1.0035 ≈ the paper's drifting
    /// pre-outbreak baseline, §9's ~30% annual growth).
    pub organic_weekly: f64,
}

/// One region's dated measures and curve parameters.
///
/// The four dates are strictly ordered (awareness < restrictions <
/// stay-at-home < reopening); `RegionMeasures::phase` and
/// [`RegionMeasures::intensity`] (in [`crate::phases`]) interpret them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionMeasures {
    /// The region these measures apply to.
    pub region: Region,
    /// Outbreak becomes publicly salient; awareness starts building.
    pub awareness: Date,
    /// Intensity reached by the end of the awareness build-up.
    pub awareness_gain: f64,
    /// First closures/advisories (schools, large events).
    pub restrictions: Date,
    /// Additional intensity gained across the restrictions window.
    pub restrictions_gain: f64,
    /// Stay-at-home order in force.
    pub stay_home: Date,
    /// Intensity on the order's first day.
    pub stay_home_from: f64,
    /// Additional intensity gained over the stay-at-home ramp.
    pub stay_home_gain: f64,
    /// Days the stay-at-home ramp takes to saturate.
    pub stay_home_ramp_days: f64,
    /// First partial reopening.
    pub reopening: Date,
    /// Intensity released across the reopening window.
    pub reopening_release: f64,
    /// Days the reopening decay runs before flooring.
    pub reopening_days: f64,
    /// Intensity floor during reopening.
    pub reopening_floor: f64,
    /// Residential reversion fraction once reopening starts (§3.1).
    pub reversion: f64,
    /// Days over which the residential reversion saturates.
    pub reversion_days: f64,
}

/// The educational-system measures (§7's campus model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EduSpec {
    /// Region whose timeline the campus follows.
    pub region: Region,
    /// Campus closure date (announced Mar 9, effective Mar 11, §7).
    pub closure: Date,
    /// Campus-presence loss per day after the closure.
    pub winddown_per_day: f64,
    /// Skeleton-crew presence floor.
    pub presence_floor: f64,
    /// Days for teaching to move fully online.
    pub remote_ramp_days: f64,
}

/// A discrete multiplicative event: an outage, a resolution reduction, a
/// flash crowd. Applies its `factor` to the demanded volume of every
/// matching (vantage point, application class, date).
///
/// Empty scope lists match everything; a populated list restricts the
/// event to its members. `start` is inclusive, `until` exclusive; `None`
/// leaves that end open. Events multiply in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureEvent {
    /// Event name (kebab-case by convention; shown in listings).
    pub name: String,
    /// First day the event applies (inclusive); open start when `None`.
    pub start: Option<Date>,
    /// First day the event no longer applies (exclusive); open end when
    /// `None`.
    pub until: Option<Date>,
    /// Volume multiplier (< 1 = outage/degradation, > 1 = flash crowd).
    pub factor: f64,
    /// Application classes in scope (empty = all).
    pub classes: Vec<AppClass>,
    /// Regions in scope (empty = all).
    pub regions: Vec<Region>,
    /// Vantage kinds in scope (empty = all).
    pub kinds: Vec<VantageKind>,
    /// Specific vantage points in scope (empty = all).
    pub vantages: Vec<VantagePoint>,
}

impl MeasureEvent {
    /// Whether the event applies to this (vantage, class, date).
    pub(crate) fn applies(&self, vp: VantagePoint, app: AppClass, date: Date) -> bool {
        (self.classes.is_empty() || self.classes.contains(&app)) && self.covers(vp, date)
    }

    /// Whether the event is in force at this vantage point on this date,
    /// whatever the class — the part of the scope that is a fact of the day.
    pub(crate) fn covers(&self, vp: VantagePoint, date: Date) -> bool {
        self.start.is_none_or(|s| date >= s)
            && self.until.is_none_or(|u| date < u)
            && (self.regions.is_empty() || self.regions.contains(&vp.region()))
            && (self.kinds.is_empty() || self.kinds.contains(&vp.kind()))
            && (self.vantages.is_empty() || self.vantages.contains(&vp))
    }
}

/// A complete scenario: baseline drift, per-region measures, the campus
/// closure, and discrete events.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (kebab-case by convention).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// Baseline drift parameters.
    pub baseline: BaselineSpec,
    /// Per-region measures — exactly one entry per [`Region`].
    pub regions: Vec<RegionMeasures>,
    /// Educational-system measures.
    pub edu: EduSpec,
    /// Discrete events, applied in order.
    pub events: Vec<MeasureEvent>,
}

impl ScenarioSpec {
    /// The shipped spring-2020 calibration: `scenarios/covid-spring-2020.toml`,
    /// compiled in and parsed on every call (once per context, in
    /// microseconds). The file's comments carry the paper's narrative
    /// behind each date.
    pub fn covid_spring_2020() -> ScenarioSpec {
        ScenarioSpec::parse_toml(include_str!("../../../scenarios/covid-spring-2020.toml"))
            .expect("the shipped covid-spring-2020.toml parses")
    }

    /// The measures for a region. Panics when absent — every parse
    /// guarantees one entry per region.
    pub fn region(&self, region: Region) -> &RegionMeasures {
        self.regions
            .iter()
            .find(|m| m.region == region)
            .unwrap_or_else(|| panic!("scenario {:?} lacks region {region:?}", self.name))
    }

    /// A stable fingerprint over everything *behavioural* in the spec.
    ///
    /// Folds every date (as a day number), every curve parameter (as f64
    /// bits), every event (factor, window, scopes — order-sensitive) with
    /// a splitmix64 chain. `name` and `description` are deliberately
    /// excluded: renaming a scenario must not invalidate its archived
    /// cells, but any behavioural edit must.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x5CE9_A810_2020_0001;
        let mut fold = |v: u64| h = splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let fold_date = |f: &mut dyn FnMut(u64), d: Date| f(d.day_number() as u64);
        let fold_f64 = |f: &mut dyn FnMut(u64), x: f64| f(x.to_bits());

        fold_date(&mut fold, self.baseline.organic_anchor);
        fold_f64(&mut fold, self.baseline.organic_weekly);
        for region in Region::ALL {
            let m = self.region(region);
            fold(region_index(region) as u64);
            for d in [m.awareness, m.restrictions, m.stay_home, m.reopening] {
                fold_date(&mut fold, d);
            }
            for x in [
                m.awareness_gain,
                m.restrictions_gain,
                m.stay_home_from,
                m.stay_home_gain,
                m.stay_home_ramp_days,
                m.reopening_release,
                m.reopening_days,
                m.reopening_floor,
                m.reversion,
                m.reversion_days,
            ] {
                fold_f64(&mut fold, x);
            }
        }
        fold(region_index(self.edu.region) as u64);
        fold_date(&mut fold, self.edu.closure);
        for x in [
            self.edu.winddown_per_day,
            self.edu.presence_floor,
            self.edu.remote_ramp_days,
        ] {
            fold_f64(&mut fold, x);
        }
        fold(self.events.len() as u64);
        for e in &self.events {
            // +1 so "no bound" and "day 0" cannot collide.
            fold(e.start.map_or(0, |d| d.day_number() as u64 + 1));
            fold(e.until.map_or(0, |d| d.day_number() as u64 + 1));
            fold_f64(&mut fold, e.factor);
            fold(e.classes.len() as u64);
            for c in &e.classes {
                fold(class_index(*c) as u64);
            }
            fold(e.regions.len() as u64);
            for r in &e.regions {
                fold(region_index(*r) as u64);
            }
            fold(e.kinds.len() as u64);
            for k in &e.kinds {
                fold(kind_index(*k) as u64);
            }
            fold(e.vantages.len() as u64);
            for v in &e.vantages {
                fold(vantage_index(*v) as u64);
            }
        }
        h
    }

    /// Render the spec as a scenario file. Floats are rendered so they
    /// parse back bit-identically; `parse_toml(to_toml(s)) == s`.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", toml::quote(&self.name));
        let _ = writeln!(out, "description = {}", toml::quote(&self.description));
        let _ = writeln!(out, "\n[baseline]");
        let _ = writeln!(
            out,
            "organic-anchor = {}",
            self.baseline.organic_anchor.iso()
        );
        let _ = writeln!(
            out,
            "organic-weekly-growth = {}",
            toml::render_float(self.baseline.organic_weekly)
        );
        for region in Region::ALL {
            let m = self.region(region);
            let f = toml::render_float;
            let _ = writeln!(out, "\n[[region]]");
            let _ = writeln!(out, "name = {}", toml::quote(region_name(region)));
            let _ = writeln!(out, "\n[[region.measure]]");
            let _ = writeln!(out, "kind = \"awareness\"");
            let _ = writeln!(out, "date = {}", m.awareness.iso());
            let _ = writeln!(out, "gain = {}", f(m.awareness_gain));
            let _ = writeln!(out, "\n[[region.measure]]");
            let _ = writeln!(out, "kind = \"restrictions\"");
            let _ = writeln!(out, "date = {}", m.restrictions.iso());
            let _ = writeln!(out, "gain = {}", f(m.restrictions_gain));
            let _ = writeln!(out, "\n[[region.measure]]");
            let _ = writeln!(out, "kind = \"stay-at-home\"");
            let _ = writeln!(out, "date = {}", m.stay_home.iso());
            let _ = writeln!(out, "from = {}", f(m.stay_home_from));
            let _ = writeln!(out, "gain = {}", f(m.stay_home_gain));
            let _ = writeln!(out, "ramp-days = {}", f(m.stay_home_ramp_days));
            let _ = writeln!(out, "\n[[region.measure]]");
            let _ = writeln!(out, "kind = \"reopening\"");
            let _ = writeln!(out, "date = {}", m.reopening.iso());
            let _ = writeln!(out, "release = {}", f(m.reopening_release));
            let _ = writeln!(out, "over-days = {}", f(m.reopening_days));
            let _ = writeln!(out, "floor = {}", f(m.reopening_floor));
            let _ = writeln!(out, "reversion = {}", f(m.reversion));
            let _ = writeln!(out, "reversion-days = {}", f(m.reversion_days));
        }
        let _ = writeln!(out, "\n[edu]");
        let _ = writeln!(
            out,
            "region = {}",
            toml::quote(region_name(self.edu.region))
        );
        let _ = writeln!(out, "closure = {}", self.edu.closure.iso());
        let _ = writeln!(
            out,
            "winddown-per-day = {}",
            toml::render_float(self.edu.winddown_per_day)
        );
        let _ = writeln!(
            out,
            "presence-floor = {}",
            toml::render_float(self.edu.presence_floor)
        );
        let _ = writeln!(
            out,
            "remote-ramp-days = {}",
            toml::render_float(self.edu.remote_ramp_days)
        );
        for e in &self.events {
            let _ = writeln!(out, "\n[[event]]");
            let _ = writeln!(out, "name = {}", toml::quote(&e.name));
            if let Some(s) = e.start {
                let _ = writeln!(out, "start = {}", s.iso());
            }
            if let Some(u) = e.until {
                let _ = writeln!(out, "until = {}", u.iso());
            }
            let _ = writeln!(out, "factor = {}", toml::render_float(e.factor));
            if !e.classes.is_empty() {
                let names: Vec<String> = e
                    .classes
                    .iter()
                    .map(|c| toml::quote(class_name(*c)))
                    .collect();
                let _ = writeln!(out, "classes = [{}]", names.join(", "));
            }
            if !e.regions.is_empty() {
                let names: Vec<String> = e
                    .regions
                    .iter()
                    .map(|r| toml::quote(region_name(*r)))
                    .collect();
                let _ = writeln!(out, "regions = [{}]", names.join(", "));
            }
            if !e.kinds.is_empty() {
                let names: Vec<String> =
                    e.kinds.iter().map(|k| toml::quote(kind_name(*k))).collect();
                let _ = writeln!(out, "kinds = [{}]", names.join(", "));
            }
            if !e.vantages.is_empty() {
                let names: Vec<String> = e
                    .vantages
                    .iter()
                    .map(|v| toml::quote(&vantage_name(*v)))
                    .collect();
                let _ = writeln!(out, "vantages = [{}]", names.join(", "));
            }
        }
        out
    }

    /// Parse a scenario file, validating as it goes; every error names
    /// the offending source line.
    pub fn parse_toml(text: &str) -> Result<ScenarioSpec, SpecError> {
        let doc = toml::parse(text)?;
        let mut name: Option<String> = None;
        let mut description = String::new();
        let mut baseline: Option<BaselineSpec> = None;
        let mut edu: Option<EduSpec> = None;
        let mut regions: Vec<RegionBuilder> = Vec::new();
        let mut events: Vec<MeasureEvent> = Vec::new();

        for t in &doc.tables {
            let path: Vec<&str> = t.path.iter().map(String::as_str).collect();
            match (path.as_slice(), t.is_array) {
                ([], _) => {
                    return spec_err(t.entries[0].line, "top-level keys must live in a table");
                }
                (["scenario"], false) => {
                    let n = req_str(t, "name")?;
                    if n.is_empty() {
                        return spec_err(entry_line(t, "name"), "scenario name must not be empty");
                    }
                    name = Some(n);
                    description = opt_str(t, "description")?.unwrap_or_default();
                    reject_unknown(t, &["name", "description"])?;
                }
                (["baseline"], false) => {
                    let weekly = req_float(t, "organic-weekly-growth")?;
                    if !(weekly.is_finite() && weekly > 0.0) {
                        return spec_err(
                            entry_line(t, "organic-weekly-growth"),
                            "organic-weekly-growth must be a positive number",
                        );
                    }
                    baseline = Some(BaselineSpec {
                        organic_anchor: req_date(t, "organic-anchor")?,
                        organic_weekly: weekly,
                    });
                    reject_unknown(t, &["organic-anchor", "organic-weekly-growth"])?;
                }
                (["region"], true) => {
                    let rn = req_str(t, "name")?;
                    let region = parse_region(&rn, entry_line(t, "name"))?;
                    if regions.iter().any(|r| r.region == region) {
                        return spec_err(t.line, format!("region {rn:?} defined twice"));
                    }
                    reject_unknown(t, &["name"])?;
                    regions.push(RegionBuilder::new(region, t.line));
                }
                (["region", "measure"], true) => {
                    let Some(rb) = regions.last_mut() else {
                        return spec_err(
                            t.line,
                            "[[region.measure]] must follow a [[region]] table",
                        );
                    };
                    rb.add_measure(t)?;
                }
                (["edu"], false) => {
                    let rn = req_str(t, "region")?;
                    edu = Some(EduSpec {
                        region: parse_region(&rn, entry_line(t, "region"))?,
                        closure: req_date(t, "closure")?,
                        winddown_per_day: req_fraction(t, "winddown-per-day")?,
                        presence_floor: req_fraction(t, "presence-floor")?,
                        remote_ramp_days: req_positive(t, "remote-ramp-days")?,
                    });
                    reject_unknown(
                        t,
                        &[
                            "region",
                            "closure",
                            "winddown-per-day",
                            "presence-floor",
                            "remote-ramp-days",
                        ],
                    )?;
                }
                (["event"], true) => {
                    events.push(parse_event(t)?);
                }
                _ => {
                    return spec_err(t.line, format!("unknown table: [{}]", t.path.join(".")));
                }
            }
        }

        // What the file never defines is reported at its last line, where
        // the parser noticed.
        let end = text.lines().count().max(1);
        let Some(name) = name else {
            return spec_err(end, "missing [scenario] table with a name");
        };
        let Some(baseline) = baseline else {
            return spec_err(end, "missing [baseline] table");
        };
        let Some(edu) = edu else {
            return spec_err(end, "missing [edu] table");
        };
        let mut built = Vec::with_capacity(regions.len());
        for rb in regions {
            built.push(rb.finish()?);
        }
        for region in Region::ALL {
            if !built.iter().any(|m: &RegionMeasures| m.region == region) {
                return spec_err(
                    end,
                    format!("scenario must define region {}", region_name(region)),
                );
            }
        }
        Ok(ScenarioSpec {
            name,
            description,
            baseline,
            regions: built,
            edu,
            events,
        })
    }
}

// ---------------------------------------------------------------------------
// Name maps (the DSL's vocabulary).

/// Scenario-file name of a region.
pub(crate) fn region_name(region: Region) -> &'static str {
    match region {
        Region::CentralEurope => "central-europe",
        Region::SouthernEurope => "southern-europe",
        Region::UsEast => "us-east",
    }
}

fn parse_region(s: &str, line: usize) -> Result<Region, SpecError> {
    Region::ALL
        .into_iter()
        .find(|r| region_name(*r) == s)
        .ok_or_else(|| SpecError {
            line,
            message: format!(
                "unknown region {s:?} (known: central-europe, southern-europe, us-east)"
            ),
        })
}

fn region_index(region: Region) -> usize {
    Region::ALL.iter().position(|r| *r == region).unwrap()
}

/// Scenario-file name of a vantage kind.
pub(crate) fn kind_name(kind: VantageKind) -> &'static str {
    match kind {
        VantageKind::Isp => "isp",
        VantageKind::Ixp => "ixp",
        VantageKind::Edu => "edu",
        VantageKind::Mobile => "mobile",
        VantageKind::Roaming => "roaming",
    }
}

const ALL_KINDS: [VantageKind; 5] = [
    VantageKind::Isp,
    VantageKind::Ixp,
    VantageKind::Edu,
    VantageKind::Mobile,
    VantageKind::Roaming,
];

fn parse_kind(s: &str, line: usize) -> Result<VantageKind, SpecError> {
    ALL_KINDS
        .into_iter()
        .find(|k| kind_name(*k) == s)
        .ok_or_else(|| SpecError {
            line,
            message: format!("unknown vantage kind {s:?} (known: isp, ixp, edu, mobile, roaming)"),
        })
}

fn kind_index(kind: VantageKind) -> usize {
    ALL_KINDS.iter().position(|k| *k == kind).unwrap()
}

/// Scenario-file name of a vantage point (its report label, lowercased).
pub(crate) fn vantage_name(vp: VantagePoint) -> String {
    vp.label().to_ascii_lowercase()
}

fn parse_vantage(s: &str, line: usize) -> Result<VantagePoint, SpecError> {
    VantagePoint::ALL
        .into_iter()
        .find(|v| v.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| SpecError {
            line,
            message: format!("unknown vantage point {s:?} (known: isp-ce, ixp-ce, ixp-se, ixp-us, edu, mobile-ce, ipx)"),
        })
}

fn vantage_index(vp: VantagePoint) -> usize {
    VantagePoint::ALL.iter().position(|v| *v == vp).unwrap()
}

/// Scenario-file name of an application class.
pub(crate) fn class_name(app: AppClass) -> &'static str {
    match app {
        AppClass::Web => "web",
        AppClass::Quic => "quic",
        AppClass::AltHttp => "alt-http",
        AppClass::WebConf => "web-conf",
        AppClass::Vod => "vod",
        AppClass::TvStreaming => "tv-streaming",
        AppClass::Gaming => "gaming",
        AppClass::SocialMedia => "social-media",
        AppClass::Messaging => "messaging",
        AppClass::Email => "email",
        AppClass::Educational => "educational",
        AppClass::CollabWork => "collab-work",
        AppClass::Cdn => "cdn",
        AppClass::VpnUser => "vpn-user",
        AppClass::VpnSiteToSite => "vpn-site-to-site",
        AppClass::VpnTls => "vpn-tls",
        AppClass::CloudflareLb => "cloudflare-lb",
        AppClass::UnknownHosting => "unknown-hosting",
        AppClass::PushNotif => "push-notif",
        AppClass::RemoteDesktop => "remote-desktop",
        AppClass::Ssh => "ssh",
        AppClass::MusicStreaming => "music-streaming",
        AppClass::Other => "other",
    }
}

fn parse_class(s: &str, line: usize) -> Result<AppClass, SpecError> {
    AppClass::ALL
        .into_iter()
        .find(|c| class_name(*c) == s)
        .ok_or_else(|| SpecError {
            line,
            message: format!("unknown application class {s:?} (e.g. web, quic, vod, gaming)"),
        })
}

fn class_index(app: AppClass) -> usize {
    AppClass::ALL.iter().position(|c| *c == app).unwrap()
}

// ---------------------------------------------------------------------------
// Semantic checks.

fn check_fraction(line: usize, what: &str, x: f64) -> Result<(), SpecError> {
    if x.is_finite() && (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        spec_err(line, format!("{what} = {x} is outside [0, 1]"))
    }
}

fn check_positive(line: usize, what: &str, x: f64) -> Result<(), SpecError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        spec_err(line, format!("{what} = {x} must be positive"))
    }
}

fn check_factor(line: usize, x: f64) -> Result<(), SpecError> {
    if x.is_finite() && x >= 0.0 {
        Ok(())
    } else {
        spec_err(line, format!("event factor = {x} must be finite and >= 0"))
    }
}

fn check_measure_order(line: usize, m: &RegionMeasures) -> Result<(), SpecError> {
    let seq = [
        ("awareness", m.awareness),
        ("restrictions", m.restrictions),
        ("stay-at-home", m.stay_home),
        ("reopening", m.reopening),
    ];
    for w in seq.windows(2) {
        if w[0].1 >= w[1].1 {
            return spec_err(
                line,
                format!(
                    "overlapping measure dates in {}: {} ({}) must come after {} ({})",
                    region_name(m.region),
                    w[1].0,
                    w[1].1.iso(),
                    w[0].0,
                    w[0].1.iso()
                ),
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Typed table access.

fn entry_line(t: &Table, key: &str) -> usize {
    t.get(key).map_or(t.line, |e| e.line)
}

fn req<'a>(t: &'a Table, key: &str) -> Result<&'a Entry, SpecError> {
    t.get(key).ok_or_else(|| SpecError {
        line: t.line,
        message: format!("missing key {key:?} in [{}]", t.path.join(".")),
    })
}

fn req_str(t: &Table, key: &str) -> Result<String, SpecError> {
    let e = req(t, key)?;
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        v => spec_err(
            e.line,
            format!("{key} must be a string, got {}", v.type_name()),
        ),
    }
}

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(e) => match &e.value {
            Value::Str(s) => Ok(Some(s.clone())),
            v => spec_err(
                e.line,
                format!("{key} must be a string, got {}", v.type_name()),
            ),
        },
    }
}

fn req_date(t: &Table, key: &str) -> Result<Date, SpecError> {
    let e = req(t, key)?;
    match e.value {
        Value::Date(d) => Ok(d),
        ref v => spec_err(
            e.line,
            format!("{key} must be a YYYY-MM-DD date, got {}", v.type_name()),
        ),
    }
}

fn opt_date(t: &Table, key: &str) -> Result<Option<Date>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(e) => match e.value {
            Value::Date(d) => Ok(Some(d)),
            ref v => spec_err(
                e.line,
                format!("{key} must be a YYYY-MM-DD date, got {}", v.type_name()),
            ),
        },
    }
}

fn req_float(t: &Table, key: &str) -> Result<f64, SpecError> {
    let e = req(t, key)?;
    match e.value {
        Value::Float(f) => Ok(f),
        Value::Int(i) => Ok(i as f64),
        ref v => spec_err(
            e.line,
            format!("{key} must be a number, got {}", v.type_name()),
        ),
    }
}

fn req_fraction(t: &Table, key: &str) -> Result<f64, SpecError> {
    let x = req_float(t, key)?;
    check_fraction(entry_line(t, key), key, x)?;
    Ok(x)
}

fn req_positive(t: &Table, key: &str) -> Result<f64, SpecError> {
    let x = req_float(t, key)?;
    check_positive(entry_line(t, key), key, x)?;
    Ok(x)
}

fn str_array(t: &Table, key: &str) -> Result<Vec<(String, usize)>, SpecError> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(e) => match &e.value {
            Value::StrArray(items) => Ok(items.iter().map(|s| (s.clone(), e.line)).collect()),
            v => spec_err(
                e.line,
                format!("{key} must be an array of strings, got {}", v.type_name()),
            ),
        },
    }
}

fn reject_unknown(t: &Table, known: &[&str]) -> Result<(), SpecError> {
    for e in &t.entries {
        if !known.contains(&e.key.as_str()) {
            return spec_err(
                e.line,
                format!("unknown key {:?} in [{}]", e.key, t.path.join(".")),
            );
        }
    }
    Ok(())
}

fn parse_event(t: &Table) -> Result<MeasureEvent, SpecError> {
    reject_unknown(
        t,
        &[
            "name", "start", "until", "factor", "classes", "regions", "kinds", "vantages",
        ],
    )?;
    let factor = req_float(t, "factor")?;
    check_factor(entry_line(t, "factor"), factor)?;
    let start = opt_date(t, "start")?;
    let until = opt_date(t, "until")?;
    if let (Some(s), Some(u)) = (start, until) {
        if s >= u {
            return spec_err(
                entry_line(t, "until"),
                format!(
                    "event window is empty: start ({}) must precede until ({})",
                    s.iso(),
                    u.iso()
                ),
            );
        }
    }
    let mut classes = Vec::new();
    for (s, line) in str_array(t, "classes")? {
        classes.push(parse_class(&s, line)?);
    }
    let mut regions = Vec::new();
    for (s, line) in str_array(t, "regions")? {
        regions.push(parse_region(&s, line)?);
    }
    let mut kinds = Vec::new();
    for (s, line) in str_array(t, "kinds")? {
        kinds.push(parse_kind(&s, line)?);
    }
    let mut vantages = Vec::new();
    for (s, line) in str_array(t, "vantages")? {
        vantages.push(parse_vantage(&s, line)?);
    }
    let name = req_str(t, "name")?;
    if name.is_empty() {
        return spec_err(entry_line(t, "name"), "event name must not be empty");
    }
    Ok(MeasureEvent {
        name,
        start,
        until,
        factor,
        classes,
        regions,
        kinds,
        vantages,
    })
}

/// Accumulates one `[[region]]` and its `[[region.measure]]` tables.
struct RegionBuilder {
    region: Region,
    header_line: usize,
    awareness: Option<(Date, f64, usize)>,
    restrictions: Option<(Date, f64, usize)>,
    stay_home: Option<(Date, f64, f64, f64, usize)>,
    reopening: Option<(Date, f64, f64, f64, f64, f64, usize)>,
}

impl RegionBuilder {
    fn new(region: Region, header_line: usize) -> RegionBuilder {
        RegionBuilder {
            region,
            header_line,
            awareness: None,
            restrictions: None,
            stay_home: None,
            reopening: None,
        }
    }

    fn add_measure(&mut self, t: &Table) -> Result<(), SpecError> {
        let kind = req_str(t, "kind")?;
        let date_line = entry_line(t, "date");
        let dup = |slot: bool| -> Result<(), SpecError> {
            if slot {
                spec_err(
                    t.line,
                    format!(
                        "duplicate {kind:?} measure for region {}",
                        region_name(self.region)
                    ),
                )
            } else {
                Ok(())
            }
        };
        match kind.as_str() {
            "awareness" => {
                dup(self.awareness.is_some())?;
                reject_unknown(t, &["kind", "date", "gain"])?;
                self.awareness = Some((req_date(t, "date")?, req_fraction(t, "gain")?, date_line));
            }
            "restrictions" => {
                dup(self.restrictions.is_some())?;
                reject_unknown(t, &["kind", "date", "gain"])?;
                self.restrictions =
                    Some((req_date(t, "date")?, req_fraction(t, "gain")?, date_line));
            }
            "stay-at-home" => {
                dup(self.stay_home.is_some())?;
                reject_unknown(t, &["kind", "date", "from", "gain", "ramp-days"])?;
                self.stay_home = Some((
                    req_date(t, "date")?,
                    req_fraction(t, "from")?,
                    req_fraction(t, "gain")?,
                    req_positive(t, "ramp-days")?,
                    date_line,
                ));
            }
            "reopening" => {
                dup(self.reopening.is_some())?;
                reject_unknown(
                    t,
                    &[
                        "kind",
                        "date",
                        "release",
                        "over-days",
                        "floor",
                        "reversion",
                        "reversion-days",
                    ],
                )?;
                self.reopening = Some((
                    req_date(t, "date")?,
                    req_fraction(t, "release")?,
                    req_positive(t, "over-days")?,
                    req_fraction(t, "floor")?,
                    req_fraction(t, "reversion")?,
                    req_positive(t, "reversion-days")?,
                    date_line,
                ));
            }
            other => {
                return spec_err(
                    entry_line(t, "kind"),
                    format!(
                        "unknown measure kind {other:?} \
                         (known: awareness, restrictions, stay-at-home, reopening)"
                    ),
                );
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<RegionMeasures, SpecError> {
        let name = region_name(self.region);
        let missing = |what: &str| SpecError {
            line: self.header_line,
            message: format!("region {name} lacks a {what:?} measure"),
        };
        let (awareness, awareness_gain, _) = self.awareness.ok_or_else(|| missing("awareness"))?;
        let (restrictions, restrictions_gain, restr_line) =
            self.restrictions.ok_or_else(|| missing("restrictions"))?;
        let (stay_home, stay_home_from, stay_home_gain, stay_home_ramp_days, stay_line) =
            self.stay_home.ok_or_else(|| missing("stay-at-home"))?;
        let (
            reopening,
            reopening_release,
            reopening_days,
            reopening_floor,
            reversion,
            reversion_days,
            reopen_line,
        ) = self.reopening.ok_or_else(|| missing("reopening"))?;
        let m = RegionMeasures {
            region: self.region,
            awareness,
            awareness_gain,
            restrictions,
            restrictions_gain,
            stay_home,
            stay_home_from,
            stay_home_gain,
            stay_home_ramp_days,
            reopening,
            reopening_release,
            reopening_days,
            reopening_floor,
            reversion,
            reversion_days,
        };
        // Attribute an ordering violation to the *later* date's line.
        if m.awareness >= m.restrictions {
            return check_measure_order(restr_line, &m).map(|_| m);
        }
        if m.restrictions >= m.stay_home {
            return check_measure_order(stay_line, &m).map(|_| m);
        }
        check_measure_order(reopen_line, &m)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matches_the_paper_dates() {
        let spec = ScenarioSpec::covid_spring_2020();
        assert_eq!(spec.name, "covid-spring-2020");
        let ce = spec.region(Region::CentralEurope);
        assert_eq!(ce.stay_home, Date::new(2020, 3, 16));
        assert_eq!(
            spec.region(Region::SouthernEurope).stay_home,
            Date::new(2020, 3, 14)
        );
        assert_eq!(
            spec.region(Region::UsEast).stay_home,
            Date::new(2020, 3, 22)
        );
        assert_eq!(spec.edu.closure, Date::new(2020, 3, 11));
    }

    #[test]
    fn builtin_events_match_the_old_predicates() {
        let spec = ScenarioSpec::covid_spring_2020();
        let factor = |vp, app, date| -> f64 {
            spec.events
                .iter()
                .filter(|e| e.applies(vp, app, date))
                .map(|e| e.factor)
                .product()
        };
        // Pre-adoption conferencing: EU ISP only, before Mar 9.
        assert_eq!(
            factor(
                VantagePoint::IspCe,
                AppClass::WebConf,
                Date::new(2020, 2, 1)
            ),
            0.55
        );
        assert_eq!(
            factor(
                VantagePoint::IxpCe,
                AppClass::WebConf,
                Date::new(2020, 2, 1)
            ),
            1.0
        );
        assert_eq!(
            factor(
                VantagePoint::IspCe,
                AppClass::WebConf,
                Date::new(2020, 3, 9)
            ),
            1.0
        );
        // Resolution reduction: EU VoD/QUIC, Mar 19 .. May 12.
        assert_eq!(
            factor(VantagePoint::IxpCe, AppClass::Vod, Date::new(2020, 4, 1)),
            0.88
        );
        assert_eq!(
            factor(VantagePoint::IxpUs, AppClass::Vod, Date::new(2020, 4, 1)),
            1.0
        );
        assert_eq!(
            factor(VantagePoint::IxpCe, AppClass::Vod, Date::new(2020, 5, 12)),
            1.0
        );
        // Gaming outage: IXP-SE, Mar 16–17 only.
        assert_eq!(
            factor(
                VantagePoint::IxpSe,
                AppClass::Gaming,
                Date::new(2020, 3, 17)
            ),
            0.15
        );
        assert_eq!(
            factor(
                VantagePoint::IxpSe,
                AppClass::Gaming,
                Date::new(2020, 3, 18)
            ),
            1.0
        );
        assert_eq!(
            factor(
                VantagePoint::IxpCe,
                AppClass::Gaming,
                Date::new(2020, 3, 16)
            ),
            1.0
        );
    }

    #[test]
    fn fingerprint_ignores_naming_but_not_behaviour() {
        let spec = ScenarioSpec::covid_spring_2020();
        let mut renamed = spec.clone();
        renamed.name = "renamed".into();
        renamed.description = "other".into();
        assert_eq!(spec.fingerprint(), renamed.fingerprint());
        let mut tweaked = spec.clone();
        tweaked.events[0].factor = 0.56;
        assert_ne!(spec.fingerprint(), tweaked.fingerprint());
        let mut moved = spec.clone();
        moved.regions[0].stay_home = Date::new(2020, 3, 17);
        assert_ne!(spec.fingerprint(), moved.fingerprint());
    }

    #[test]
    fn toml_roundtrip_is_exact() {
        let spec = ScenarioSpec::covid_spring_2020();
        let text = spec.to_toml();
        let back = ScenarioSpec::parse_toml(&text).expect("rendered spec parses");
        assert_eq!(spec, back);
        assert_eq!(spec.fingerprint(), back.fingerprint());
    }

    #[test]
    fn scope_name_maps_roundtrip() {
        for r in Region::ALL {
            assert_eq!(parse_region(region_name(r), 1).unwrap(), r);
        }
        for k in ALL_KINDS {
            assert_eq!(parse_kind(kind_name(k), 1).unwrap(), k);
        }
        for c in AppClass::ALL {
            assert_eq!(parse_class(class_name(c), 1).unwrap(), c);
        }
        for v in VantagePoint::ALL {
            assert_eq!(parse_vantage(&vantage_name(v), 1).unwrap(), v);
        }
    }
}
