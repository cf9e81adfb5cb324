//! The name registry: every workload and metric this benchmark emits.
//! `BENCHMARK.json` at the root of the repository lists exactly these (a
//! test compares the two), and later issues quote these names and bounds.

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The five workloads. Each stresses a different layer, and for every layer
/// another one bypasses it. The store's write path has no workload of its
/// own: it is the set-up of the three archive workloads (README.md says why).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "suite_mem",
        why: "in-memory suite pass: generation and consumers do all the work and flow, collect, store and query none, so it is the bypass for every codec, store and query change",
    },
    Workload {
        name: "suite_wire",
        why: "suite pass through the IPFIX wire plane (4 exporters, 4 shards, zero faults): the only workload where flow encode/decode and collect run",
    },
    Workload {
        name: "archive_replay",
        why: "warm suite pass over a covering archive, zero cells generated: the store read path plus consumers; generation does nothing, and set-up pays the store write path",
    },
    Workload {
        name: "serve_fit",
        why: "HTTP serve with a 512 MiB segment cache that holds the whole decoded archive: once warm, the manifest walk, filter, classifier and HTTP write are the cost",
    },
    Workload {
        name: "serve_scan",
        why: "the same requests with a 32 MiB cache, an eighth of the working set: almost every admitted segment is decoded again, so store decode through the cache dominates",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric with its regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload emits every one of them; README.md
/// says what each means on a batch workload and on a serve workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "flows_per_s",
        unit: "flows/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric (no bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of the traced run. A layer is a crate; each timing
/// is one public entry point called from outside over the same seeded cell
/// sample. `trace.*` come from the spans of the workload's own traced pass
/// and are zero for a stage the workload does not run.
pub const PER_LAYER: [Layer; 67] = [
    lower("proc.peak_rss_mb", "MiB"),
    lower("core.context_ms", "ms"),
    lower("core.renders_ms", "ms"),
    lower("core.render_self_ms", "ms"),
    lower("scenario.volume_ns", "ns"),
    lower("traffic.generate_ns_per_flow", "ns/flow"),
    higher("traffic.cells", "count"),
    higher("traffic.flows", "count"),
    lower("flow.v5_encode_ns_per_flow", "ns/flow"),
    lower("flow.v5_decode_ns_per_flow", "ns/flow"),
    lower("flow.v9_encode_ns_per_flow", "ns/flow"),
    lower("flow.v9_decode_ns_per_flow", "ns/flow"),
    lower("flow.ipfix_encode_ns_per_flow", "ns/flow"),
    lower("flow.ipfix_decode_ns_per_flow", "ns/flow"),
    lower("collect.process_cell_ns_per_flow", "ns/flow"),
    lower("collect.export_ns_per_flow", "ns/flow"),
    lower("collect.transport_ns_per_datagram", "ns/datagram"),
    lower("collect.ingest_ns_per_flow", "ns/flow"),
    lower("collect.datagrams", "count"),
    lower("collect.wire_bytes_per_flow", "B/flow"),
    lower("topology.lpm_ns_per_lookup", "ns"),
    lower("analysis.classify_ns_per_flow", "ns/flow"),
    lower("analysis.observe_ns_per_flow.hourly_volume", "ns/flow"),
    lower("analysis.observe_ns_per_flow.port", "ns/flow"),
    lower("analysis.observe_ns_per_flow.hypergiant", "ns/flow"),
    lower("analysis.observe_ns_per_flow.as_totals", "ns/flow"),
    lower("analysis.observe_ns_per_flow.heatmap", "ns/flow"),
    lower("analysis.observe_ns_per_flow.class_usage", "ns/flow"),
    lower("analysis.observe_ns_per_flow.edu", "ns/flow"),
    lower("analysis.state_encode_us", "us"),
    lower("analysis.state_merge_us", "us"),
    lower("store.encode_ns_per_flow", "ns/flow"),
    lower("store.decode_ns_per_flow", "ns/flow"),
    lower("store.spill_us_per_cell", "us/cell"),
    lower("store.read_us_per_cell", "us/cell"),
    lower("store.footer_us_per_cell", "us/cell"),
    lower("store.open_ms", "ms"),
    lower("store.finish_ms", "ms"),
    lower("store.segments", "count"),
    lower("store.bytes_per_flow", "B/flow"),
    higher("store.replay_mb_per_s", "MB/s"),
    lower("query.parse_ns", "ns"),
    lower("query.execute_hit_us", "us"),
    lower("query.execute_miss_us", "us"),
    lower("query.http_floor_us", "us"),
    higher("query.cache_hit_ratio", "share"),
    higher("query.pruned_share", "share"),
    lower("query.decoded_per_request", "segments/req"),
    higher("serve.requests_per_s", "req/s"),
    lower("serve.p50_ms", "ms"),
    lower("serve.tail_ms", "ms"),
    higher("serve.checksum_flows", "count"),
    higher("serve.checksum_bytes", "count"),
    lower("trace.pass_ms", "ms"),
    lower("trace.generate_ns_per_flow", "ns/flow"),
    lower("trace.wire_ns_per_flow", "ns/flow"),
    lower("trace.spill_ns_per_flow", "ns/flow"),
    lower("trace.read_ns_per_flow", "ns/flow"),
    lower("trace.query_read_ns_per_flow", "ns/flow"),
    lower("trace.render_self_ns_per_flow", "ns/flow"),
    higher("trace.generate_share", "share"),
    higher("trace.wire_share", "share"),
    higher("trace.read_share", "share"),
    higher("trace.query_read_share", "share"),
    higher("trace.render_self_share", "share"),
    higher("trace.coverage", "share"),
    lower("trace.overhead_share", "share"),
];

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// The whole of `BENCHMARK.json`, from this registry. `lockbench manifest`
/// prints it; a test holds the committed file to it.
pub fn benchmark_json() -> String {
    let quote = crate::json::quote;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"lockbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"lockbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Unit and direction of a metric, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_committed_benchmark_json_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        let committed = crate::json::parse(&committed).expect("BENCHMARK.json parses");
        let registry = crate::json::parse(&benchmark_json()).expect("registry JSON parses");
        assert_eq!(committed, registry);
        let keys: Vec<&String> = committed.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn bounds_stay_within_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }
}
