//! Query-plane integration: predicate pushdown must be *observable*
//! (strictly fewer segments decoded than a full scan, `query_*` counters
//! moving), the cache must serve repeats without re-decoding, query
//! aggregates must match an independent engine-pass oracle, and the live
//! HTTP server must hand `loadgen` the very sections the pass
//! that wrote the archive rendered. (That figures served from an archive
//! equal the in-memory suite is the `serve::render_figure` row of
//! `tests/equivalence.rs`.)

use lockdown::app::build_handler;
use lockdown::core::experiments::suite;
use lockdown::core::serve::figure_names;
use lockdown::core::{Context, Fidelity};
use lockdown::query::{loadgen, QueryEngine, QueryPlan, Server};
use lockdown::store::{ArchiveWriter, StoreKey, StoreMetrics};
use lockdown_analysis::appclass::{Classifier, PaperClass};
use lockdown_analysis::codec::{CodecError, ConsumerTag, StateReader};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_core::engine::{self, EnginePlan};
use lockdown_flow::record::HourRun;
use lockdown_flow::time::Date;
use lockdown_flow::wire::PutBe;
use lockdown_topology::registry::Registry;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The hour-run stress slices of the consumer contract tests.
#[path = "../crates/analysis/tests/support/mod.rs"]
mod hour_slices;

/// One shared test-fidelity archive for the whole file — its directory
/// and the sections the pass that wrote it rendered: built by the first
/// test that needs it, reused (read-only) by the rest.
fn archive() -> &'static (PathBuf, Vec<String>) {
    static ARCHIVE: OnceLock<(PathBuf, Vec<String>)> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("lockdown-queryplane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context::new(Fidelity::Test);
        let cold = suite::run_all_archived(&ctx, None, &dir).expect("cold archived suite pass");
        (dir, cold.renders())
    })
}

fn open_engine() -> QueryEngine {
    QueryEngine::open(&archive().0, 256 * 1024 * 1024)
        .expect("archive opens")
        .expect("archive has a manifest")
}

#[test]
fn pushdown_prunes_strictly_fewer_segments_than_full_scan() {
    let engine = open_engine();
    let total = engine.reader().segment_count() as u64;

    // Narrow query first, against the cold cache: one vantage, one week,
    // one port. Pushdown must skip segments before decode — and the port
    // predicate must reach the zone-map footers (a cached segment would
    // skip the footer read, so cold-cache order matters here).
    let plan = QueryPlan::parse([
        ("vantage", "isp-ce"),
        ("from", "2020-03-09"),
        ("to", "2020-03-16"),
        ("port", "443"),
    ])
    .expect("plan parses");
    let narrow = engine.execute(&plan).expect("narrow scan");
    assert!(narrow.segments_pruned > 0, "pruning must be observable");
    assert_eq!(narrow.segments_scanned + narrow.segments_pruned, total);
    assert!(
        engine.metrics().footer_reads.get() > 0,
        "zone maps were consulted"
    );

    // Full scan: no predicates, everything is admitted.
    let full = engine.execute(&QueryPlan::default()).expect("full scan");
    assert_eq!(full.segments_scanned + full.segments_pruned, total);
    assert!(full.flows > 0);
    assert!(
        narrow.segments_scanned < full.segments_scanned,
        "pushdown must decode strictly fewer segments ({} vs {})",
        narrow.segments_scanned,
        full.segments_scanned
    );
    // A time+stream-only query admits exactly the week of hourly cells.
    let week = QueryPlan::parse([
        ("vantage", "isp-ce"),
        ("from", "2020-03-09"),
        ("to", "2020-03-16"),
    ])
    .expect("plan parses");
    assert_eq!(
        engine.execute(&week).expect("week scan").segments_scanned,
        7 * 24
    );

    // The global counters saw all of it.
    assert!(engine.metrics().segments_pruned.get() > 0);
}

/// A query with no record predicate reads none of a week of whole-hour
/// segments: every one is answered from its manifest entry.
#[test]
fn a_plain_week_is_summed_without_decoding() {
    let engine = open_engine();
    let week = QueryPlan::parse([
        ("vantage", "isp-ce"),
        ("from", "2020-03-09"),
        ("to", "2020-03-16"),
    ])
    .expect("plan parses");
    let out = engine.execute(&week).expect("week scan");
    assert_eq!(
        (out.segments_summed, out.segments_scanned),
        (7 * 24, 7 * 24)
    );
    assert_eq!(out.segments_cached, 0);
    assert_eq!(out.hourly.len(), 7 * 24);
    assert_eq!(engine.metrics().segments_decoded.get(), 0);
    assert_eq!(engine.metrics().segments_summed.get(), 7 * 24);
}

#[test]
fn cache_serves_repeat_queries_without_redecoding() {
    let engine = open_engine();
    // A port predicate: a plain query would sum its segments, not decode.
    let plan = QueryPlan::parse([
        ("vantage", "ixp-ce"),
        ("from", "2020-03-16"),
        ("to", "2020-03-19"),
        ("port", "443"),
    ])
    .expect("plan parses");

    let cold = engine.execute(&plan).expect("cold query");
    assert_eq!(cold.segments_cached, 0, "first touch decodes");
    let decoded_after_cold = engine.metrics().segments_decoded.get();

    let warm = engine.execute(&plan).expect("warm query");
    assert_eq!(warm, QueryOutputExpect::identical(&cold), "same answer");
    assert_eq!(
        warm.segments_cached, warm.segments_scanned,
        "every repeat segment comes from the cache"
    );
    assert_eq!(
        engine.metrics().segments_decoded.get(),
        decoded_after_cold,
        "no re-decode on the warm path"
    );
    assert!(engine.metrics().cache_hits.get() >= warm.segments_cached);
}

/// Equality helper: the scan-shape fields legitimately differ between a
/// cold and a warm execution (cached counts), so compare the answer.
struct QueryOutputExpect;
impl QueryOutputExpect {
    fn identical(cold: &lockdown::query::QueryOutput) -> lockdown::query::QueryOutput {
        lockdown::query::QueryOutput {
            segments_cached: cold.segments_scanned,
            ..cold.clone()
        }
    }
}

/// Engine-pass oracle: subscribe to the raw flows of the queried stream
/// and apply the same predicates consumer-side — fresh generation, no
/// archive, no pushdown. The query plane must agree exactly.
struct FilteredAggregate {
    plan: QueryPlan,
    classifier: Arc<Classifier>,
    flows: u64,
    bytes: u64,
    packets: u64,
    hourly: BTreeMap<u64, u64>,
}

impl FlowConsumer for FilteredAggregate {
    fn observe_run(&mut self, run: &HourRun<'_>) {
        for r in run.records {
            if !self.plan.admits_record(r) {
                continue;
            }
            if self
                .plan
                .class
                .is_some_and(|c| self.classifier.classify(r) != Some(c))
            {
                continue;
            }
            self.flows += 1;
            self.bytes += r.bytes;
            self.packets += r.packets;
            *self.hourly.entry(r.start.floor_hour().unix()).or_insert(0) += r.bytes;
        }
    }

    fn state_tag(&self) -> ConsumerTag {
        ConsumerTag {
            id: 201,
            name: "FilteredAggregate",
        }
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        for v in [
            self.flows,
            self.bytes,
            self.packets,
            self.hourly.len() as u64,
        ] {
            out.put_u64_be(v);
        }
        for (&h, &b) in &self.hourly {
            out.put_u64_be(h);
            out.put_u64_be(b);
        }
    }

    fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        self.flows += r.u64("flows")?;
        self.bytes += r.u64("bytes")?;
        self.packets += r.u64("packets")?;
        for _ in 0..r.u64("hours")? {
            let h = r.u64("hour")?;
            *self.hourly.entry(h).or_insert(0) += r.u64("hour bytes")?;
        }
        Ok(())
    }
}

impl FilteredAggregate {
    fn new(plan: QueryPlan) -> FilteredAggregate {
        static CLASSIFIER: OnceLock<Arc<Classifier>> = OnceLock::new();
        let classifier =
            CLASSIFIER.get_or_init(|| Arc::new(Classifier::from_registry(&Registry::synthesize())));
        FilteredAggregate {
            plan,
            classifier: Arc::clone(classifier),
            flows: 0,
            bytes: 0,
            packets: 0,
            hourly: BTreeMap::new(),
        }
    }
}

/// The filter loop takes a decoded segment an hour run at a time; over
/// segments that interleave hours, cross midnight and carry zero-byte or
/// unclassified flows it must still answer like the record-at-a-time
/// oracle, down to which hours have a bin.
#[test]
fn execute_filters_by_hour_run_like_the_per_record_oracle() {
    let dir = std::env::temp_dir().join(format!("lockdown-queryruns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = StoreKey {
        seed: 1,
        scenario_hash: 2,
        plan_hash: 3,
    };
    let eleven = hour_slices::DAY.at_hour(11).unix();
    let plans = [
        QueryPlan::default(),
        QueryPlan {
            class: Some(PaperClass::Email),
            ..QueryPlan::default()
        },
        QueryPlan {
            class: Some(PaperClass::WebConf),
            port: Some(8_801),
            ..QueryPlan::default()
        },
        QueryPlan {
            asn: Some(hour_slices::EYEBALL),
            ..QueryPlan::default()
        },
        // A window that opens and closes inside an hour.
        QueryPlan {
            from: Some(eleven + 600),
            to: Some(eleven + 3_600 + 1_800),
            ..QueryPlan::default()
        },
    ];
    for seed in hour_slices::SEEDS {
        // One segment per slice; the cell is only its name in the manifest.
        let slices = hour_slices::slices(seed);
        let writer = ArchiveWriter::create(&dir, key, StoreMetrics::new()).expect("create");
        for (i, (_, slice)) in slices.iter().enumerate() {
            let cell = Cell {
                stream: Stream::Vantage(VantagePoint::IspCe),
                date: hour_slices::DAY.add_days(i as i64),
                hour: 0,
            };
            writer.spill(cell, slice).expect("spill");
        }
        writer.finish().expect("finish");
        let engine = QueryEngine::open(&dir, 1 << 20)
            .expect("archive opens")
            .expect("archive has a manifest");

        for plan in plans {
            let got = engine.execute(&plan).expect("query");
            let mut oracle = FilteredAggregate::new(plan);
            for (_, slice) in &slices {
                for r in slice {
                    oracle.observe_all(std::slice::from_ref(r));
                }
            }
            assert_eq!(
                (got.flows, got.bytes, got.packets, &got.hourly),
                (oracle.flows, oracle.bytes, oracle.packets, &oracle.hourly),
                "{plan:?} (seed {seed:#x})"
            );
        }
    }
    // The oracle keeps the consumer contract over the same slices.
    for plan in plans {
        hour_slices::assert_runs_match_records(|| FilteredAggregate::new(plan));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn execute_matches_engine_pass_oracle() {
    let engine = open_engine();
    let plan = QueryPlan::parse([
        ("vantage", "isp-ce"),
        ("from", "2020-03-09"),
        ("to", "2020-03-12"),
        ("port", "443"),
        ("class", "vod"),
    ])
    .expect("plan parses");
    let got = engine.execute(&plan).expect("query");

    let ctx = Context::new(Fidelity::Test);
    let mut eplan = EnginePlan::new();
    let oracle_plan = plan;
    let d = eplan.subscribe(
        Stream::Vantage(VantagePoint::IspCe),
        Date::new(2020, 3, 9),
        Date::new(2020, 3, 11),
        move || FilteredAggregate::new(oracle_plan),
    );
    let mut out = engine::run(&ctx, eplan).expect("oracle pass");
    let oracle = out.take(d);

    assert!(got.flows > 0, "the window must not be degenerate");
    assert_eq!(got.flows, oracle.flows);
    assert_eq!(got.bytes, oracle.bytes);
    assert_eq!(got.packets, oracle.packets);
    assert_eq!(got.hourly, oracle.hourly);
}

/// Minimal HTTP/1.1 GET over a raw socket (Connection: close).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn http_server_serves_queries_figures_and_metrics() {
    let ctx = Arc::new(Context::new(Fidelity::Test));
    let engine = Arc::new(open_engine());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handler = build_handler(Arc::clone(&engine), Arc::clone(&ctx));
    let server =
        Server::start(listener, 64, Arc::clone(engine.metrics()), handler).expect("server starts");
    let addr = server.addr();

    // Catalog, one figure, a pushdown query, and the metrics page.
    let (status, body) = http_get(addr, "/figures");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"fig9:ISP-CE\""),
        "catalog lists fig9 panels"
    );

    let (status, body) = http_get(addr, "/figures/table2");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"table2\""));

    let (status, body) = http_get(
        addr,
        "/query?vantage=isp-ce&from=2020-03-09&to=2020-03-12&port=443",
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"segments_pruned\":"));

    // 4xx paths: unknown endpoint, unknown figure, bad query key, and an
    // empty window — none of them may take the server down.
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(http_get(addr, "/figures/fig99").0, 404);
    assert_eq!(http_get(addr, "/query?frobnicate=1").0, 400);
    assert_eq!(http_get(addr, "/query?from=10&to=10").0, 400);
    // Impossible and pre-epoch dates are the client's error (400), not a
    // caught handler panic (500).
    assert_eq!(http_get(addr, "/query?from=2020-02-31").0, 400);
    assert_eq!(http_get(addr, "/query?from=1969-01-01").0, 400);

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for family in [
        "query_requests_total",
        "query_responses_2xx_total",
        "query_responses_4xx_total",
        "query_segments_pruned_total",
        "query_segments_decoded_total",
        "query_cache_bytes",
        "query_latency_us_count",
        "store_segments_read_total",
    ] {
        assert!(metrics.contains(family), "metrics page misses {family}");
    }
    let value = |family: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(family) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no value for {family}"))
    };
    assert!(value("query_requests_total") >= 8);
    assert!(value("query_responses_4xx_total") >= 4);
    assert!(
        value("query_segments_pruned_total") > 0,
        "pruning visible on /metrics"
    );

    // `loadgen` against the live server: the served catalog
    // must reassemble to the archiving pass's stdout (zero mismatches).
    let mut expected = String::new();
    for section in &archive().1 {
        expected.push_str(section);
        expected.push('\n');
    }
    let report = loadgen::run(&addr.to_string(), &expected).expect("loadgen runs");
    assert_eq!(report.mismatches, 0, "served figures diverge");
    assert_eq!(report.figures_verified, figure_names().len() as u64);

    server.shutdown(Duration::from_secs(5));
}
