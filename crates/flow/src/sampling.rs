//! Sampled flow export.
//!
//! Production flow telemetry is usually *sampled*: at multi-Tbps fabrics
//! (the paper's IXP-CE peaks above 8 Tbps) routers export 1-in-N sampled
//! NetFlow/IPFIX and analyses renormalize by the sampling rate. Sampling
//! is why the paper works in normalized volumes throughout — ratios are
//! unbiased under sampling while absolute counts are estimates.
//!
//! This module models flow-level sampling with byte renormalization: a
//! flow survives with probability `1/rate` and its counters are scaled by
//! `rate`, giving an unbiased estimator of total bytes. The integration
//! tests check the property the paper relies on: normalized time series
//! computed from sampled traces converge to the unsampled ones.

use crate::record::FlowRecord;

/// Scale a record's byte/packet counters by `factor`, exactly, in u128
/// arithmetic, clamping at `u64::MAX`. Returns `true` when either counter
/// clipped at the clamp — callers account clipped records explicitly so
/// volume conservation checks know the totals are a lower bound rather
/// than silently drifting.
pub(crate) fn scale_counters(record: &mut FlowRecord, factor: u32) -> bool {
    let cap = u128::from(u64::MAX);
    let bytes = u128::from(record.bytes) * u128::from(factor);
    let packets = u128::from(record.packets) * u128::from(factor);
    let clipped = bytes > cap || packets > cap;
    record.bytes = bytes.min(cap) as u64;
    record.packets = packets.min(cap) as u64;
    clipped
}

/// Deterministic per-flow hash over the key, start time and seed —
/// shared by both samplers so selection is batch-boundary independent.
fn flow_hash(seed: u64, record: &FlowRecord) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
    for part in [
        u64::from(u32::from(record.key.src_addr)),
        u64::from(u32::from(record.key.dst_addr)),
        u64::from(record.key.src_port) << 16 | u64::from(record.key.dst_port),
        u64::from(record.key.protocol.number()),
        record.start.unix(),
    ] {
        z ^= part.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = z.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    z ^ (z >> 31)
}

/// Deterministic 1-in-N flow sampler with counter renormalization.
#[derive(Debug, Clone, Copy)]
pub struct FlowSampler {
    rate: u32,
    seed: u64,
}

impl FlowSampler {
    /// Create a sampler keeping 1 in `rate` flows. `rate == 1` keeps
    /// everything (and renormalizes by 1, i.e. identity).
    pub fn new(rate: u32, seed: u64) -> FlowSampler {
        assert!(rate >= 1, "sampling rate must be >= 1");
        FlowSampler { rate, seed }
    }

    /// Whether a flow is selected. Selection is a deterministic hash of
    /// the flow key and start time, so the same flow is consistently kept
    /// or dropped regardless of batch boundaries — the property that lets
    /// distributed collectors agree.
    pub(crate) fn selects(&self, record: &FlowRecord) -> bool {
        if self.rate == 1 {
            return true;
        }
        flow_hash(self.seed, record).is_multiple_of(u64::from(self.rate))
    }

    /// Sample one record: `None` if dropped; otherwise the record with
    /// byte/packet counters scaled by the rate, exactly in u128, clamped
    /// at `u64::MAX` (see `scale_counters`).
    pub(crate) fn sample(&self, record: &FlowRecord) -> Option<FlowRecord> {
        self.sample_counted(record).map(|(out, _)| out)
    }

    /// [`FlowSampler::sample`], also reporting whether a counter clipped
    /// at the `u64::MAX` clamp during renormalization.
    pub(crate) fn sample_counted(&self, record: &FlowRecord) -> Option<(FlowRecord, bool)> {
        if !self.selects(record) {
            return None;
        }
        let mut out = *record;
        let clipped = scale_counters(&mut out, self.rate);
        Some((out, clipped))
    }

    /// Sample a batch.
    pub fn sample_all(&self, records: &[FlowRecord]) -> Vec<FlowRecord> {
        records.iter().filter_map(|r| self.sample(r)).collect()
    }
}

/// Threshold ("smart") sampler: size-dependent flow sampling with
/// Horvitz–Thompson renormalization.
///
/// Uniform 1-in-N flow sampling is an all-or-nothing draw per record, so
/// its byte-volume variance grows with the *square* of flow size — on
/// heavy-tailed flow-size distributions a single dropped elephant swings
/// whole analysis buckets. The standard remedy in flow-export pipelines
/// is threshold sampling (Duffield et al.): a flow of `b` bytes is always
/// kept when `b >= z`, and otherwise survives with probability `b / z`
/// renormalized to exactly `z` bytes. The byte estimator stays unbiased
/// while any record's contribution to a volume sum is capped at
/// `max(b, z)` — elephants are never dropped, so per-flow variance is
/// bounded by `z·b` instead of `(N−1)·b²`.
///
/// Zero-byte records have survival probability zero and are never kept.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdSampler {
    z: u64,
    seed: u64,
}

impl ThresholdSampler {
    /// Create a sampler with byte threshold `z >= 1`: flows at or above
    /// `z` bytes are always kept, smaller flows survive with probability
    /// `bytes / z`.
    pub fn new(z: u64, seed: u64) -> ThresholdSampler {
        assert!(z >= 1, "byte threshold must be >= 1");
        ThresholdSampler { z, seed }
    }

    /// Sample one record. Selection is the same deterministic hash of the
    /// flow key and start time that [`FlowSampler`] uses, so it is
    /// batch-boundary independent. A kept below-threshold record reports
    /// exactly `z` bytes and its packet counter scaled by the same `z/b`
    /// inverse-probability factor (rounded, floored at 1).
    pub fn sample(&self, record: &FlowRecord) -> Option<FlowRecord> {
        if record.bytes >= self.z {
            return Some(*record);
        }
        if record.bytes == 0 {
            return None;
        }
        // Keep iff u < b/z for u uniform on [0,1): compare u·z < b·2^64
        // exactly in u128 (z and b both fit u64, no overflow).
        let u = flow_hash(self.seed ^ 0xD6E8_FEB8_6659_FD93, record);
        if u128::from(u) * u128::from(self.z) >= u128::from(record.bytes) << 64 {
            return None;
        }
        let mut out = *record;
        let scaled = (u128::from(record.packets) * u128::from(self.z)
            + u128::from(record.bytes) / 2)
            / u128::from(record.bytes);
        out.packets = scaled.min(u128::from(u64::MAX)).max(1) as u64;
        out.bytes = self.z;
        Some(out)
    }

    /// Sample a batch.
    pub fn sample_all(&self, records: &[FlowRecord]) -> Vec<FlowRecord> {
        records.iter().filter_map(|r| self.sample(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::IpProtocol;
    use crate::record::FlowKey;
    use crate::time::Date;
    use std::net::Ipv4Addr;

    fn records(n: u32) -> Vec<FlowRecord> {
        let t = Date::new(2020, 3, 25).at_hour(12);
        (0..n)
            .map(|i| {
                FlowRecord::builder(
                    FlowKey {
                        src_addr: Ipv4Addr::from(0x0B00_0000 + i),
                        dst_addr: Ipv4Addr::new(192, 0, 2, 1),
                        src_port: 40_000 + (i % 20_000) as u16,
                        dst_port: 443,
                        protocol: IpProtocol::Tcp,
                    },
                    t.add_secs(u64::from(i % 3_600)),
                )
                .end(t.add_secs(u64::from(i % 3_600) + 1))
                .bytes(1_000)
                .packets(2)
                .build()
            })
            .collect()
    }

    #[test]
    fn rate_one_is_identity() {
        let recs = records(100);
        let s = FlowSampler::new(1, 7);
        assert_eq!(s.sample_all(&recs), recs);
    }

    #[test]
    fn keeps_about_one_in_n() {
        let recs = records(40_000);
        for rate in [4u32, 16, 64] {
            let s = FlowSampler::new(rate, 7);
            let kept = s.sample_all(&recs).len() as f64;
            let expected = recs.len() as f64 / f64::from(rate);
            assert!(
                (kept - expected).abs() < 0.15 * expected,
                "rate {rate}: kept {kept}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn byte_estimator_is_unbiased() {
        let recs = records(40_000);
        let truth: u64 = recs.iter().map(|r| r.bytes).sum();
        let s = FlowSampler::new(16, 9);
        let estimate: u64 = s.sample_all(&recs).iter().map(|r| r.bytes).sum();
        let err = (estimate as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.05, "estimator error {err:.3}");
    }

    #[test]
    fn selection_is_deterministic_and_batch_independent() {
        let recs = records(1_000);
        let s = FlowSampler::new(8, 3);
        let whole = s.sample_all(&recs);
        let mut split = s.sample_all(&recs[..500]);
        split.extend(s.sample_all(&recs[500..]));
        assert_eq!(whole, split);
    }

    #[test]
    fn different_seeds_select_differently() {
        let recs = records(1_000);
        let a = FlowSampler::new(8, 1).sample_all(&recs);
        let b = FlowSampler::new(8, 2).sample_all(&recs);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 1")]
    fn zero_rate_rejected() {
        FlowSampler::new(0, 1);
    }

    #[test]
    fn scaling_is_exact_and_clips_are_counted() {
        let t = Date::new(2020, 3, 25).at_hour(12);
        let mut near_max = records(1)[0];
        near_max.start = t; // fixed key/start
        near_max.bytes = u64::MAX / 2;
        near_max.packets = 3;
        // A factor of 2 is exact; 3 clips bytes at the clamp.
        let mut a = near_max;
        assert!(!scale_counters(&mut a, 2));
        assert_eq!(a.bytes, (u64::MAX / 2) * 2);
        assert_eq!(a.packets, 6);
        let mut b = near_max;
        assert!(scale_counters(&mut b, 3));
        assert_eq!(b.bytes, u64::MAX, "clipped at the clamp, not wrapped");
        assert_eq!(b.packets, 9, "unclipped counter still scales exactly");
    }

    /// A heavy-tailed batch: many mice plus a few elephants that together
    /// dominate the byte total — the regime where uniform flow sampling's
    /// volume estimate falls apart.
    fn heavy_tailed(n: u32) -> Vec<FlowRecord> {
        let mut recs = records(n);
        for (i, r) in recs.iter_mut().enumerate() {
            r.bytes = if i % 100 == 0 { 50_000_000 } else { 10_000 };
            r.packets = r.bytes / 1_000;
        }
        recs
    }

    #[test]
    fn threshold_keeps_every_elephant() {
        let recs = heavy_tailed(10_000);
        let s = ThresholdSampler::new(1_000_000, 11);
        let kept = s.sample_all(&recs);
        // Above-threshold records pass through unchanged (50 MB); kept
        // mice are renormalized to exactly z (1 MB).
        let elephants_in = recs.iter().filter(|r| r.bytes > 1_000_000).count();
        let elephants_out = kept.iter().filter(|r| r.bytes > 1_000_000).count();
        assert_eq!(elephants_in, elephants_out, "no elephant may ever drop");
        // Mice kept at p = 10_000 / 1_000_000 = 1%.
        let mice = kept.len() - elephants_out;
        assert!((50..400).contains(&mice), "kept {mice} of 9900 mice at 1%");
    }

    #[test]
    fn threshold_byte_estimator_beats_uniform_on_heavy_tails() {
        let recs = heavy_tailed(40_000);
        let truth: u64 = recs.iter().map(|r| r.bytes).sum();
        let smart: u64 = ThresholdSampler::new(1_000_000, 9)
            .sample_all(&recs)
            .iter()
            .map(|r| r.bytes)
            .sum();
        let err = (smart as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.02, "threshold estimator error {err:.4}");
    }

    #[test]
    fn threshold_renormalizes_kept_mice_to_z() {
        let recs = heavy_tailed(10_000);
        let s = ThresholdSampler::new(1_000_000, 11);
        for r in s.sample_all(&recs) {
            if r.bytes < 50_000_000 {
                assert_eq!(r.bytes, 1_000_000, "kept mouse reports exactly z");
                assert_eq!(r.packets, 1_000, "packets scaled by the same z/b");
            }
        }
    }

    #[test]
    fn threshold_selection_is_batch_independent_and_skips_zero_bytes() {
        let mut recs = records(1_000);
        recs[7].bytes = 0;
        let s = ThresholdSampler::new(10_000_000, 3);
        let whole = s.sample_all(&recs);
        let mut split = s.sample_all(&recs[..500]);
        split.extend(s.sample_all(&recs[500..]));
        assert_eq!(whole, split);
        assert!(whole.iter().all(|r| r.bytes > 0), "zero-byte flows dropped");
    }

    #[test]
    #[should_panic(expected = "threshold must be >= 1")]
    fn zero_threshold_rejected() {
        ThresholdSampler::new(0, 1);
    }

    #[test]
    fn sample_counted_reports_clips() {
        let mut recs = records(64);
        for r in &mut recs {
            r.bytes = u64::MAX / 4;
        }
        let s = FlowSampler::new(8, 3);
        let kept: Vec<(FlowRecord, bool)> =
            recs.iter().filter_map(|r| s.sample_counted(r)).collect();
        assert!(!kept.is_empty());
        for (r, clipped) in kept {
            assert!(clipped, "every kept record clips at x8");
            assert_eq!(r.bytes, u64::MAX);
        }
    }
}
