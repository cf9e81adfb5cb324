//! Shared generation plan: deduplicated trace cells across demands.
//!
//! The figure drivers overlap heavily in the trace slices they consume —
//! Fig. 1/2 alone cover 120+ days that Figs. 3–10 re-cover week by week.
//! A [`TracePlan`] collects every requested `(stream, window)` demand,
//! merges the overlaps, and enumerates each distinct generation cell
//! exactly once. A [`TraceEmitter`] then materializes any cell on demand;
//! because every cell is independently seeded, the deduplicated enumeration
//! is bit-identical to per-figure regeneration.

use crate::config::GeneratorConfig;
use crate::edu_gen::EduGenerator;
use crate::generate::TrafficGenerator;
use lockdown_base::hash::fold;
use lockdown_dns::corpus::Corpus;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::registry::Registry;
use lockdown_topology::vantage::VantagePoint;
use std::collections::{BTreeMap, BTreeSet};

/// One of the generator's independent flow streams.
///
/// Regular vantage points share one generator; the ISP transit view (§3.4)
/// and the EDU network (§7) are separately modelled streams with their own
/// seeding, so they are distinct cells even on overlapping dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stream {
    /// The standard per-vantage-point trace.
    Vantage(VantagePoint),
    /// ISP-CE including transit (per-AS residential + B2B flows).
    IspTransit,
    /// The educational metropolitan network's directional trace.
    Edu,
}

impl Stream {
    /// Short label for stats and reports.
    pub fn label(self) -> &'static str {
        match self {
            Stream::Vantage(vp) => vp.label(),
            Stream::IspTransit => "ISP-CE (transit)",
            Stream::Edu => "EDU (directional)",
        }
    }

    /// Stable small integer identifying this stream on the wire, used to
    /// derive observation-domain ids and per-cell fault seeds in wire mode.
    /// Values are part of the deterministic-output contract: do not reorder.
    pub fn wire_id(self) -> u32 {
        match self {
            Stream::Vantage(vp) => {
                1 + VantagePoint::ALL
                    .iter()
                    .position(|&v| v == vp)
                    .expect("vantage point missing from ALL") as u32
            }
            Stream::IspTransit => 62,
            Stream::Edu => 63,
        }
    }

    /// Inverse of [`Stream::wire_id`]: `None` for ids no stream carries.
    /// Archive manifests persist streams by wire id, so reopening one has
    /// to map the ids back.
    pub fn from_wire_id(id: u32) -> Option<Stream> {
        match id {
            62 => Some(Stream::IspTransit),
            63 => Some(Stream::Edu),
            _ => VantagePoint::ALL
                .get(id.checked_sub(1)? as usize)
                .map(|&vp| Stream::Vantage(vp)),
        }
    }
}

/// Initial constant of every archive-key fingerprint (plan shape,
/// generator configuration, scenario content), folded with
/// `lockdown_base::hash::fold`. Historical: archive `StoreKey`s are
/// pinned to it, so fingerprints stay comparable across builds. (Pi
/// digits, nothing up the sleeve.)
pub const FINGERPRINT_INIT: u64 = 0x243F_6A88_85A3_08D3;

/// One deduplicated generation cell: a single hour of a single stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Which flow stream the cell belongs to.
    pub stream: Stream,
    /// The cell's date.
    pub date: Date,
    /// The cell's hour of day, `0..24`.
    pub hour: u8,
}

/// The union of requested `(stream, window)` demands.
///
/// Demands are recorded verbatim (so the dedup ratio can be reported) and
/// merged into per-stream date sets; [`TracePlan::cells`] enumerates each
/// distinct cell exactly once, in a deterministic order (stream, date,
/// hour).
#[derive(Debug, Clone, Default)]
pub struct TracePlan {
    demands: Vec<(Stream, Date, Date)>,
    dates: BTreeMap<Stream, BTreeSet<Date>>,
}

impl TracePlan {
    /// An empty plan.
    pub(crate) fn new() -> TracePlan {
        TracePlan::default()
    }

    /// Demand an inclusive date window of one stream.
    pub fn demand(&mut self, stream: Stream, start: Date, end: Date) {
        self.demands.push((stream, start, end));
        let dates = self.dates.entry(stream).or_default();
        for date in start.range_inclusive(end) {
            dates.insert(date);
        }
    }

    /// Total cells requested across all demands, counting overlap
    /// multiplicity — what per-figure regeneration would materialize.
    pub fn cells_demanded(&self) -> u64 {
        self.demands
            .iter()
            .map(|&(_, start, end)| (start.days_until(end) + 1) as u64 * 24)
            .sum()
    }

    /// Number of distinct cells the plan will generate.
    pub(crate) fn cell_count(&self) -> u64 {
        self.dates.values().map(|d| d.len() as u64 * 24).sum()
    }

    /// Stable fingerprint of the deduplicated cell set. Two plans hash
    /// equal exactly when they generate the same cells, regardless of how
    /// their demands overlapped; archives record it so a replay knows the
    /// stored segments came from the same plan shape.
    pub fn plan_hash(&self) -> u64 {
        fold(
            FINGERPRINT_INIT,
            self.dates.iter().flat_map(|(stream, dates)| {
                let id = u64::from(stream.wire_id());
                dates
                    .iter()
                    .map(move |d| fold(FINGERPRINT_INIT, [id, d.day_number() as u64]))
            }),
        )
    }

    /// Enumerate every distinct cell exactly once, ordered by
    /// `(stream, date, hour)`.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.cell_count() as usize);
        for (&stream, dates) in &self.dates {
            for &date in dates {
                for hour in 0..24 {
                    out.push(Cell { stream, date, hour });
                }
            }
        }
        out
    }
}

/// Materializes any [`Cell`] of any stream. Build one per pass; all
/// methods take `&self`, so one emitter is shared across worker threads.
#[derive(Debug)]
pub struct TraceEmitter<'a> {
    vantage: TrafficGenerator<'a>,
    edu: EduGenerator<'a>,
}

impl<'a> TraceEmitter<'a> {
    /// Build an emitter over a registry and DNS corpus, calibrated to the
    /// default scenario, the shipped `scenarios/covid-spring-2020.toml`.
    pub fn new(registry: &'a Registry, corpus: &'a Corpus, config: GeneratorConfig) -> Self {
        TraceEmitter {
            vantage: TrafficGenerator::new(registry, corpus, config),
            edu: EduGenerator::new(registry, config),
        }
    }

    /// Build an emitter whose demand and EDU models interpret `spec`
    /// instead of the default calibration. With
    /// [`ScenarioSpec::covid_spring_2020`] this is byte-identical to
    /// [`TraceEmitter::new`].
    pub fn with_scenario(
        registry: &'a Registry,
        corpus: &'a Corpus,
        config: GeneratorConfig,
        spec: &ScenarioSpec,
    ) -> Self {
        TraceEmitter {
            vantage: TrafficGenerator::with_scenario(registry, corpus, config, spec),
            edu: EduGenerator::with_scenario(registry, config, spec),
        }
    }

    /// Generate one cell's flows into `out` (cleared first).
    pub fn generate_cell(&self, cell: Cell, out: &mut Vec<FlowRecord>) {
        match cell.stream {
            Stream::Edu => {
                out.clear();
                self.edu.hour_into(cell.date, cell.hour, out);
            }
            _ => self.vantage.generate_cell(cell, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_dns::corpus::synthesize;

    fn plan_basic() -> TracePlan {
        let mut plan = TracePlan::new();
        plan.demand(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 10),
        );
        plan.demand(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 2, 5),
            Date::new(2020, 2, 14),
        );
        plan
    }

    #[test]
    fn overlapping_demands_dedupe() {
        let plan = plan_basic();
        assert_eq!(plan.cells_demanded(), 20 * 24);
        assert_eq!(plan.cell_count(), 14 * 24);
        let cells = plan.cells();
        assert_eq!(cells.len(), 14 * 24);
        // No duplicates, sorted order.
        let mut sorted = cells.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, cells);
    }

    #[test]
    fn wire_id_roundtrips_and_rejects_unknown() {
        for stream in VantagePoint::ALL
            .into_iter()
            .map(Stream::Vantage)
            .chain([Stream::IspTransit, Stream::Edu])
        {
            assert_eq!(Stream::from_wire_id(stream.wire_id()), Some(stream));
        }
        assert_eq!(Stream::from_wire_id(0), None);
        assert_eq!(Stream::from_wire_id(40), None);
        assert_eq!(Stream::from_wire_id(u32::MAX), None);
    }

    #[test]
    fn plan_hash_tracks_the_cell_set_not_the_demands() {
        let a = plan_basic();
        // A differently-overlapped route to the same cell set.
        let mut b = TracePlan::new();
        b.demand(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 2, 1),
            Date::new(2020, 2, 14),
        );
        b.demand(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 2, 3),
            Date::new(2020, 2, 3),
        );
        assert_eq!(a.plan_hash(), b.plan_hash());
        // One extra day or a different stream changes the fingerprint.
        let mut c = plan_basic();
        c.demand(
            Stream::Vantage(VantagePoint::IspCe),
            Date::new(2020, 2, 15),
            Date::new(2020, 2, 15),
        );
        assert_ne!(a.plan_hash(), c.plan_hash());
        let mut d = TracePlan::new();
        d.demand(Stream::Edu, Date::new(2020, 2, 1), Date::new(2020, 2, 14));
        assert_ne!(a.plan_hash(), d.plan_hash());
    }

    #[test]
    fn distinct_streams_do_not_merge() {
        let mut plan = TracePlan::new();
        let d = Date::new(2020, 3, 1);
        plan.demand(Stream::Vantage(VantagePoint::IspCe), d, d);
        plan.demand(Stream::IspTransit, d, d);
        plan.demand(Stream::Edu, d, d);
        assert_eq!(plan.cell_count(), 3 * 24);
    }

    #[test]
    fn emitter_matches_standalone_generators() {
        let registry = Registry::synthesize();
        let corpus = synthesize(&registry, 7);
        let config = GeneratorConfig::coarse(11);
        let emitter = TraceEmitter::new(&registry, &corpus, config);
        let generator = TrafficGenerator::new(&registry, &corpus, config);
        let edu = EduGenerator::new(&registry, config);
        let date = Date::new(2020, 3, 2);

        let mut buf = Vec::new();
        emitter.generate_cell(
            Cell {
                stream: Stream::Vantage(VantagePoint::IxpCe),
                date,
                hour: 9,
            },
            &mut buf,
        );
        assert_eq!(buf, generator.generate_hour(VantagePoint::IxpCe, date, 9));

        let transit = Cell {
            stream: Stream::IspTransit,
            date,
            hour: 9,
        };
        let mut expected = Vec::new();
        generator.generate_cell(transit, &mut expected);
        emitter.generate_cell(transit, &mut buf);
        assert_eq!(buf, expected);

        emitter.generate_cell(
            Cell {
                stream: Stream::Edu,
                date,
                hour: 9,
            },
            &mut buf,
        );
        assert_eq!(buf, edu.generate_hour(date, 9));
    }
}
