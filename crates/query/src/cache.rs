//! Byte-budgeted LRU of decoded segments.
//!
//! Decoding a segment (bit-packed columns → `Vec<FlowRecord>`) dominates
//! query cost once pushdown has pruned the rest; dashboards re-ask the
//! same windows constantly. The cache holds decoded batches behind
//! `Arc` (readers share, eviction never invalidates an in-flight
//! reference) under a byte budget charged at `records ×
//! size_of::<FlowRecord>()`. Recency is a monotone tick per entry, kept
//! twice: on the entry and in a tick → cell index, so eviction pops the
//! smallest tick in O(log n) until the budget holds.

use crate::metrics::QueryMetrics;
use lockdown_flow::record::FlowRecord;
use lockdown_traffic::plan::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

struct Entry {
    records: Arc<Vec<FlowRecord>>,
    bytes: u64,
    tick: u64,
}

struct Inner {
    map: HashMap<Cell, Entry>,
    /// Every entry's tick → its cell. Ticks are unique, so the first key
    /// is the least recently used entry.
    recency: BTreeMap<u64, Cell>,
    used: u64,
    tick: u64,
}

/// A shared LRU of decoded segments under a byte budget.
pub(crate) struct SegmentCache {
    inner: Mutex<Inner>,
    budget: u64,
    metrics: Arc<QueryMetrics>,
}

/// Cost of one cached record.
fn record_cost() -> u64 {
    std::mem::size_of::<FlowRecord>() as u64
}

impl SegmentCache {
    /// A cache holding at most `budget_bytes` of decoded records.
    pub(crate) fn new(budget_bytes: u64, metrics: Arc<QueryMetrics>) -> SegmentCache {
        SegmentCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                used: 0,
                tick: 0,
            }),
            budget: budget_bytes,
            metrics,
        }
    }

    /// Look one cell up, refreshing its recency. Counts a hit or miss.
    pub(crate) fn get(&self, cell: Cell) -> Option<Arc<Vec<FlowRecord>>> {
        let mut guard = self.inner.lock().expect("cache lock");
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&cell) {
            Some(e) => {
                inner.recency.remove(&e.tick);
                inner.recency.insert(tick, cell);
                e.tick = tick;
                self.metrics.cache_hits.inc();
                Some(Arc::clone(&e.records))
            }
            None => {
                self.metrics.cache_misses.inc();
                None
            }
        }
    }

    /// Whether one cell is currently cached, without touching recency or
    /// the hit/miss counters (used for pruning decisions, not reads).
    pub(crate) fn contains(&self, cell: Cell) -> bool {
        self.inner
            .lock()
            .expect("cache lock")
            .map
            .contains_key(&cell)
    }

    /// Insert one decoded cell, evicting least-recently-used entries
    /// until the budget holds. A batch larger than the whole budget is
    /// still served (the `Arc` is returned) but not retained.
    pub(crate) fn insert(&self, cell: Cell, records: Arc<Vec<FlowRecord>>) {
        let bytes = records.len() as u64 * record_cost();
        let mut inner = self.inner.lock().expect("cache lock");
        if bytes > self.budget {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            cell,
            Entry {
                records,
                bytes,
                tick,
            },
        ) {
            inner.recency.remove(&old.tick);
            inner.used -= old.bytes;
        }
        inner.recency.insert(tick, cell);
        inner.used += bytes;
        while inner.used > self.budget {
            let (_, oldest) = inner
                .recency
                .pop_first()
                .expect("over budget implies non-empty");
            let evicted = inner.map.remove(&oldest).expect("indexed entries are held");
            inner.used -= evicted.bytes;
            self.metrics.cache_evictions.inc();
        }
        self.metrics.cache_bytes.set(inner.used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_flow::record::FlowKey;
    use lockdown_flow::time::Date;
    use lockdown_topology::vantage::VantagePoint;
    use lockdown_traffic::plan::Stream;
    use std::net::Ipv4Addr;

    fn cell(hour: u8) -> Cell {
        Cell {
            stream: Stream::Vantage(VantagePoint::IspCe),
            date: Date::new(2020, 3, 25),
            hour,
        }
    }

    fn batch(n: usize) -> Arc<Vec<FlowRecord>> {
        let key = FlowKey {
            src_addr: Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1,
            dst_port: 2,
            protocol: lockdown_flow::protocol::IpProtocol::Udp,
        };
        Arc::new(vec![
            FlowRecord::builder(
                key,
                Date::new(2020, 3, 25).midnight()
            )
            .build();
            n
        ])
    }

    #[test]
    fn lru_evicts_oldest_under_byte_budget() {
        let metrics = QueryMetrics::new();
        // Budget: exactly two 10-record batches.
        let cache = SegmentCache::new(20 * record_cost(), Arc::clone(&metrics));
        cache.insert(cell(0), batch(10));
        cache.insert(cell(1), batch(10));
        assert!(cache.get(cell(0)).is_some()); // refresh 0 → 1 is LRU
        cache.insert(cell(2), batch(10));
        assert_eq!(cache.inner.lock().unwrap().map.len(), 2);
        assert!(cache.get(cell(1)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(cell(0)).is_some());
        assert!(cache.get(cell(2)).is_some());
        assert_eq!(metrics.cache_evictions.get(), 1);
        assert_eq!(metrics.cache_bytes.get(), 20 * record_cost());
        // Oversized batches are never retained.
        cache.insert(cell(3), batch(100));
        assert!(cache.get(cell(3)).is_none());
    }

    /// The eviction rule by definition: a map of (bytes, tick) and a
    /// scan for the smallest tick.
    #[derive(Default)]
    struct Model {
        map: HashMap<Cell, (u64, u64)>,
        used: u64,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, cell: Cell) -> bool {
            self.tick += 1;
            match self.map.get_mut(&cell) {
                Some(e) => {
                    e.1 = self.tick;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, cell: Cell, bytes: u64, budget: u64) {
            if bytes > budget {
                return;
            }
            self.tick += 1;
            if let Some((old, _)) = self.map.insert(cell, (bytes, self.tick)) {
                self.used -= old;
            }
            self.used += bytes;
            while self.used > budget {
                let (&oldest, _) = self.map.iter().min_by_key(|(_, e)| e.1).unwrap();
                self.used -= self.map.remove(&oldest).unwrap().0;
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn lru_evicts_like_the_min_tick_scan() {
        lockdown_base::prop::cases(256, |rng, size| {
            let budget = rng.below(24) * record_cost();
            let metrics = QueryMetrics::new();
            let cache = SegmentCache::new(budget, Arc::clone(&metrics));
            let mut model = Model::default();
            for _ in 0..4 * size {
                let c = cell(rng.below(8) as u8);
                if rng.chance(0.5) {
                    assert_eq!(cache.get(c).is_some(), model.get(c));
                } else {
                    let n = rng.below(12) as usize;
                    cache.insert(c, batch(n));
                    model.insert(c, n as u64 * record_cost(), budget);
                }
                for hour in 0..8 {
                    assert_eq!(
                        cache.contains(cell(hour)),
                        model.map.contains_key(&cell(hour))
                    );
                }
                assert_eq!(
                    (
                        metrics.cache_hits.get(),
                        metrics.cache_misses.get(),
                        metrics.cache_evictions.get(),
                        metrics.cache_bytes.get(),
                    ),
                    (model.hits, model.misses, model.evictions, model.used)
                );
            }
        });
    }
}
