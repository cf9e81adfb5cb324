//! Property tests for the analysis primitives: accumulators must be
//! order-insensitive and merge-consistent, the ECDF must behave like a
//! distribution function, and classifiers must be total and stable.

mod support;

use lockdown_analysis::appclass::Classifier;
use lockdown_analysis::codec::{encode_frame, merge_frame};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_analysis::ecdf::Ecdf;
use lockdown_analysis::edu::{orientation, EduTrafficClass};
use lockdown_analysis::ports::ServiceKey;
use lockdown_analysis::timeseries::{median, normalize_by_min, HourlyVolume};
use lockdown_analysis::vpn::is_port_vpn;
use lockdown_base::hash::SplitMix;
use lockdown_base::prop::cases;
use lockdown_flow::protocol::IpProtocol;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::{Date, Timestamp};
use lockdown_topology::registry::Registry;

/// `n` seeded records starting in the first 115 days of 2020.
fn records(rng: &mut SplitMix, n: usize) -> Vec<FlowRecord> {
    support::flows(rng, n, Date::new(2020, 1, 1).midnight(), 10_000_000)
}

/// One such record.
fn record(rng: &mut SplitMix) -> FlowRecord {
    records(rng, 1)[0]
}

/// `n` uniform draws in `[lo, hi)`.
fn floats(rng: &mut SplitMix, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| lo + (hi - lo) * rng.next_f64()).collect()
}

/// HourlyVolume is order-insensitive and merge equals bulk add.
#[test]
fn hourly_volume_order_and_merge() {
    cases(256, |rng, size| {
        let n = rng.below(size.min(80) as u64) as usize;
        let records = records(rng, n);
        let mut forward = HourlyVolume::new();
        forward.observe_all(&records);
        let mut backward = HourlyVolume::new();
        for r in records.iter().rev() {
            backward.observe_all(std::slice::from_ref(r));
        }
        let d = Date::new(2020, 1, 15);
        for h in 0..24 {
            assert_eq!(forward.get(d, h), backward.get(d, h));
        }

        // Split + codec merge == bulk.
        let mid = records.len() / 2;
        let mut a = HourlyVolume::new();
        a.observe_all(&records[..mid]);
        let mut b = HourlyVolume::new();
        b.observe_all(&records[mid..]);
        merge_frame(&mut a, &encode_frame(&b)).expect("a frame of its own kind merges");
        assert_eq!(forward.weekly_totals(), a.weekly_totals());
        assert_eq!(encode_frame(&forward), encode_frame(&a));
    });
}

/// ECDF is a valid CDF: monotone, 0 below min, 1 at max; quantile and
/// fraction_le are mutually consistent.
fn assert_ecdf_is_a_cdf(mut sample: Vec<f64>) {
    let e = Ecdf::new(sample.clone());
    sample.sort_by(f64::total_cmp);
    assert_eq!(e.fraction_le(sample[0] - 1.0), 0.0);
    assert_eq!(e.fraction_le(*sample.last().expect("non-empty")), 1.0);
    let mut prev = 0.0;
    for &x in &sample {
        let f = e.fraction_le(x);
        assert!(f >= prev);
        prev = f;
    }
    // quantile(f(x)) <= x for all sample points.
    for &x in &sample {
        assert!(e.quantile(e.fraction_le(x)) <= x + 1e-9);
    }
}

#[test]
fn ecdf_is_a_cdf() {
    cases(256, |rng, size| {
        let n = 1 + rng.below(2 * size as u64 - 1) as usize;
        assert_ecdf_is_a_cdf(floats(rng, n, 0.0, 1e9));
    });
}

/// The one failure the shrinker this driver replaced ever recorded: 123
/// zeros then 49 large values. `123 / 172 * 172` rounds above 123, so the
/// quantile of the zeros' own fraction stepped past them.
#[test]
fn ecdf_is_a_cdf_when_the_rank_product_rounds_up() {
    let mut sample = vec![0.0; 123];
    sample.extend(floats(&mut SplitMix::new(172), 49, 3.3e7, 9.5e8));
    assert_ecdf_is_a_cdf(sample);
}

/// normalize_by_min yields min 1.0 over positive entries and preserves
/// ratios.
#[test]
fn normalize_by_min_properties() {
    cases(256, |rng, size| {
        let n = 1 + rng.below(size.min(59) as u64) as usize;
        // One value in eight is zero, and every value of one case in eight.
        let ceiling = if rng.below(8) == 0 { 1 } else { 1_000_000 };
        let values: Vec<u64> = (0..n)
            .map(|_| u64::from(rng.below(8) != 0) * rng.below(ceiling))
            .collect();
        match normalize_by_min(&values) {
            None => assert!(values.iter().all(|&v| v == 0)),
            Some(norm) => {
                let min_pos = norm
                    .iter()
                    .copied()
                    .filter(|&v| v > 0.0)
                    .fold(f64::MAX, f64::min);
                assert!((min_pos - 1.0).abs() < 1e-12);
                // Ratio preservation against the raw values.
                let raw_min = values
                    .iter()
                    .copied()
                    .filter(|&v| v > 0)
                    .min()
                    .expect("positive") as f64;
                for (&raw, &n) in values.iter().zip(&norm) {
                    assert!((n - raw as f64 / raw_min).abs() < 1e-9);
                }
            }
        }
    });
}

/// median is within [min, max] and permutation-invariant.
#[test]
fn median_properties() {
    cases(256, |rng, size| {
        let n = 1 + rng.below(size.min(49) as u64) as usize;
        let mut values = floats(rng, n, -1e6, 1e6);
        let m = median(&values);
        let lo = values.iter().copied().fold(f64::MAX, f64::min);
        let hi = values.iter().copied().fold(f64::MIN, f64::max);
        assert!(m >= lo && m <= hi);
        values.reverse();
        assert_eq!(median(&values), m);
    });
}

/// The Table 1 classifier is total (never panics) and deterministic.
#[test]
fn classifier_total_and_deterministic() {
    let c = Classifier::from_registry(&Registry::synthesize());
    cases(256, |rng, _| {
        let r = record(rng);
        assert_eq!(c.classify(&r), c.classify(&r));
    });
}

/// Service attribution never assigns an ephemeral-only flow a port key.
#[test]
fn service_key_respects_ephemeral_rule() {
    cases(256, |rng, _| {
        let r = record(rng);
        if let Some(ServiceKey::Port(_, port)) = ServiceKey::of(&r) {
            assert!(port < 32_768);
            assert!(port == r.key.src_port.min(r.key.dst_port));
        }
    });
}

/// VPN port classification matches the §6 port list exactly.
#[test]
fn vpn_port_rule() {
    cases(256, |rng, _| {
        let r = record(rng);
        let expected = match r.key.protocol {
            IpProtocol::Esp | IpProtocol::Gre => true,
            IpProtocol::Tcp | IpProtocol::Udp => [500u16, 4_500, 1_194, 1_701, 1_723]
                .iter()
                .any(|&p| p == r.key.src_port || p == r.key.dst_port),
            _ => false,
        };
        assert_eq!(is_port_vpn(&r), expected);
    });
}

/// EDU classification and orientation are total and deterministic.
#[test]
fn edu_classification_total() {
    cases(256, |rng, _| {
        let r = record(rng);
        assert_eq!(EduTrafficClass::of(&r), EduTrafficClass::of(&r));
        assert_eq!(orientation(&r), orientation(&r));
    });
}

/// Timestamp bucketing: a record lands in exactly the hour bin of its
/// start time.
#[test]
fn hour_bucketing() {
    cases(256, |rng, _| {
        let r = record(rng);
        let mut v = HourlyVolume::new();
        v.observe_all(&[r]);
        let t: Timestamp = r.start.floor_hour();
        assert_eq!(v.get(t.date(), t.hour()), r.bytes);
    });
}
