//! The `query_*` metrics family: request accounting, pushdown pruning
//! and cache effectiveness, in the same Prometheus-style registry
//! pattern as `collect`/`store`/`supervisor`.
//!
//! The latency histogram is cumulative fixed buckets (Prometheus `le`
//! semantics): each observation increments every bucket whose upper
//! bound admits it, plus `_count` and `_sum_us`.

/// Upper bounds (microseconds) of the request-latency buckets.
pub(crate) const LATENCY_BUCKETS_US: [u64; 12] = [
    25, 100, 250, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

const BUCKET_NAMES: [&str; 12] = [
    "query_latency_us_le_25",
    "query_latency_us_le_100",
    "query_latency_us_le_250",
    "query_latency_us_le_1000",
    "query_latency_us_le_2500",
    "query_latency_us_le_5000",
    "query_latency_us_le_10000",
    "query_latency_us_le_25000",
    "query_latency_us_le_50000",
    "query_latency_us_le_100000",
    "query_latency_us_le_250000",
    "query_latency_us_le_1000000",
];

lockdown_base::metrics_family! {
    /// Counters and gauges for the query plane.
    pub struct QueryMetrics {
        requests: counter("query_requests_total", "HTTP requests accepted"),
        responses_2xx: counter("query_responses_2xx_total", "2xx responses"),
        responses_4xx: counter("query_responses_4xx_total", "4xx responses"),
        responses_5xx: counter("query_responses_5xx_total", "5xx responses"),
        segments_pruned: counter(
            "query_segments_pruned_total",
            "Segments skipped before decode by predicate pushdown"
        ),
        segments_scanned: counter(
            "query_segments_scanned_total",
            "Segments admitted by a query plan"
        ),
        segments_summed: counter(
            "query_segments_summed_total",
            "Scanned segments answered from their manifest entries"
        ),
        segments_decoded: counter(
            "query_segments_decoded_total",
            "Segments decoded from disk (cache misses)"
        ),
        footer_reads: counter(
            "query_footer_reads_total",
            "Segment footers read for zone-map pruning"
        ),
        cache_hits: counter("query_cache_hits_total", "Decoded-segment cache hits"),
        cache_misses: counter("query_cache_misses_total", "Decoded-segment cache misses"),
        cache_evictions: counter(
            "query_cache_evictions_total",
            "Segments evicted to stay under the byte budget"
        ),
        cache_bytes: gauge(
            "query_cache_bytes",
            "Bytes of decoded records held by the cache"
        ),
        latency_count: counter("query_latency_us_count", "Latency observations"),
        latency_sum_us: counter("query_latency_us_sum", "Sum of observed latencies (us)"),
        /// — one per [`LATENCY_BUCKETS_US`] bound; the implicit `+Inf` bucket is `latency_count`.
        latency_buckets: counter[12](
            BUCKET_NAMES,
            "Requests at or under this latency (cumulative)"
        ),
    }
}

impl QueryMetrics {
    /// Record one request latency into the cumulative buckets.
    pub(crate) fn observe_latency_us(&self, us: u64) {
        self.latency_count.inc();
        self.latency_sum_us.add(us);
        for (bound, bucket) in LATENCY_BUCKETS_US.iter().zip(&self.latency_buckets) {
            if us <= *bound {
                bucket.inc();
            }
        }
    }

    /// Record one response's status class.
    pub(crate) fn observe_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_cumulative() {
        let m = QueryMetrics::new();
        m.observe_latency_us(20); // under the first bound: every bucket
        m.observe_latency_us(250); // boundary: included in its bucket
        m.observe_latency_us(251); // just over: next bucket up
        m.observe_latency_us(2_000_000); // over the top bound: +Inf only
        assert_eq!(m.latency_buckets[0].get(), 1);
        assert_eq!(m.latency_buckets[1].get(), 1);
        assert_eq!(m.latency_buckets[2].get(), 2);
        assert_eq!(m.latency_buckets[3].get(), 3);
        assert_eq!(m.latency_buckets[11].get(), 3);
        assert_eq!(m.latency_count.get(), 4);
        assert_eq!(m.latency_sum_us.get(), 2_000_521);
        let text = m.render();
        assert!(text.contains("query_latency_us_le_25 1"));
        assert!(text.contains("query_latency_us_le_250 2"));
        assert!(text.contains("query_latency_us_count 4"));
    }
}
