//! Atomic metrics registry with one Prometheus-style text renderer.
//!
//! Every metric is a plain [`AtomicU64`] updated with relaxed ordering:
//! all increments are sums of per-cell, content-derived event counts, so a
//! snapshot taken after an engine run is identical regardless of how many
//! worker threads processed the cells.
//!
//! A plane declares its family with [`metrics_family!`](crate::metrics_family),
//! which names each metric once — field, kind, exposition name, help —
//! and generates the struct, its constructor and its rendering.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether a metric is a monotonically increasing counter or a
/// last-write/maximum gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count (rendered as `counter`).
    Counter,
    /// Point-in-time value (rendered as `gauge`).
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One named metric backed by an atomic value.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    value: AtomicU64,
}

impl Metric {
    /// Counter or gauge.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Add `v` to the metric.
    #[inline]
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Add one to the metric.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Set a gauge to `v` unconditionally.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise a gauge to `v` if larger (commutative, so safe across workers).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An ordered collection of metrics, rendered sorted by name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<Arc<Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a counter and return a shared handle to it.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> Arc<Metric> {
        self.register(name, help, MetricKind::Counter)
    }

    /// Register a gauge and return a shared handle to it.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> Arc<Metric> {
        self.register(name, help, MetricKind::Gauge)
    }

    fn register(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> Arc<Metric> {
        assert!(
            self.find(name).is_none(),
            "duplicate metric registration: {name}"
        );
        let m = Arc::new(Metric {
            name,
            help,
            kind,
            value: AtomicU64::new(0),
        });
        self.metrics.push(Arc::clone(&m));
        m
    }

    /// Look up a metric by name.
    pub(crate) fn find(&self, name: &str) -> Option<&Arc<Metric>> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Render a Prometheus-style text snapshot, sorted by metric name so the
    /// output is stable regardless of registration order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append this registry's snapshot to `out`. Lets callers that hold
    /// several registries (the query plane's plus the archive store's)
    /// compose one combined snapshot.
    pub fn render_into(&self, out: &mut String) {
        let mut sorted: Vec<&Arc<Metric>> = self.metrics.iter().collect();
        sorted.sort_by_key(|m| m.name);
        for m in sorted {
            // Writing to a `String` cannot fail.
            let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
            let _ = writeln!(out, "{} {}", m.name, m.get());
        }
    }
}

/// Declare a metrics family, naming each metric once.
///
/// ```
/// lockdown_base::metrics_family! {
///     /// The `demo_*` family.
///     pub struct DemoMetrics {
///         /// (any status).
///         requests: counter("demo_requests_total", "Requests accepted"),
///         workers: gauge("demo_workers", "Configured workers"),
///         buckets: counter[2](["demo_le_10", "demo_le_100"], "Requests at or under this latency"),
///     }
/// }
/// let m = DemoMetrics::new();
/// m.requests.inc();
/// m.buckets[1].add(2);
/// assert!(m.render().contains("demo_requests_total 1\n"));
/// ```
///
/// Each line is `field: kind("exposition_name", "help")` with `kind` one
/// of `counter` / `gauge`; `kind[N]([names; N], "help")` declares an array
/// of `N` metrics sharing one help text. The help text is also the
/// field's rustdoc; a doc comment on the line continues it. The macro
/// generates the struct (every field a `pub Arc<Metric>`, or
/// `[Arc<Metric>; N]`), `new()` returning `Arc<Self>` over a fresh
/// registry, `registry()` and `render()`.
#[macro_export]
macro_rules! metrics_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $family:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident : $kind:ident $([$len:literal])? ($name:expr, $help:literal)
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $family {
            registry: $crate::metrics::MetricsRegistry,
            $(
                #[doc = $help]
                $(#[$fmeta])*
                pub $field: $crate::metrics_family!(@type $($len)?),
            )*
        }

        impl $family {
            /// Build the family inside a fresh registry.
            #[allow(clippy::new_without_default)]
            $vis fn new() -> ::std::sync::Arc<$family> {
                let mut r = $crate::metrics::MetricsRegistry::new();
                ::std::sync::Arc::new($family {
                    $( $field: $crate::metrics_family!(@new r, $kind, $name, $help $(, $len)?), )*
                    registry: r,
                })
            }

            /// The underlying registry (for lookups and snapshot composition).
            $vis fn registry(&self) -> &$crate::metrics::MetricsRegistry {
                &self.registry
            }

            /// Prometheus-style text snapshot of the family, sorted by name.
            $vis fn render(&self) -> String {
                self.registry.render()
            }
        }
    };
    (@type) => { ::std::sync::Arc<$crate::metrics::Metric> };
    (@type $len:literal) => { [::std::sync::Arc<$crate::metrics::Metric>; $len] };
    (@new $r:ident, $kind:ident, $name:expr, $help:literal) => { $r.$kind($name, $help) };
    (@new $r:ident, $kind:ident, $names:expr, $help:literal, $len:literal) => {{
        let names: [&'static str; $len] = $names;
        names.map(|name| $r.$kind(name, $help))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    metrics_family! {
        /// A two-layer family for the registry tests.
        struct TestMetrics {
            exporter_datagrams: counter("exporter_datagrams_total", "Datagrams emitted"),
            collector_shards: gauge("collector_shards", "Configured collector shards"),
            buckets: counter[2](["bucket_le_1", "bucket_le_2"], "At or under this bound"),
        }
    }

    #[test]
    fn render_is_sorted_and_typed() {
        let m = TestMetrics::new();
        m.exporter_datagrams.add(7);
        m.collector_shards.set(4);
        m.buckets[1].inc();
        assert_eq!(
            m.render(),
            "# HELP bucket_le_1 At or under this bound\n\
             # TYPE bucket_le_1 counter\n\
             bucket_le_1 0\n\
             # HELP bucket_le_2 At or under this bound\n\
             # TYPE bucket_le_2 counter\n\
             bucket_le_2 1\n\
             # HELP collector_shards Configured collector shards\n\
             # TYPE collector_shards gauge\n\
             collector_shards 4\n\
             # HELP exporter_datagrams_total Datagrams emitted\n\
             # TYPE exporter_datagrams_total counter\n\
             exporter_datagrams_total 7\n"
        );
        assert_eq!(m.registry().find("bucket_le_2").map(|b| b.get()), Some(1));
    }

    #[test]
    fn set_max_is_commutative() {
        let m = TestMetrics::new();
        m.collector_shards.set_max(2);
        m.collector_shards.set_max(8);
        m.collector_shards.set_max(4);
        assert_eq!(m.collector_shards.get(), 8);
    }

    #[test]
    #[should_panic(expected = "duplicate metric registration")]
    fn duplicate_names_rejected() {
        let mut r = MetricsRegistry::new();
        let _ = r.counter("x_total", "first");
        let _ = r.counter("x_total", "second");
    }
}
