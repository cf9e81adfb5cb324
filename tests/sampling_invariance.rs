//! Sampled-telemetry invariance: the paper's analyses are built on
//! normalized volumes precisely because production flow export is sampled.
//! These tests check that the figures' *ratios* survive 1-in-N sampling
//! with renormalization, while absolute counts become estimates.

use lockdown::analysis::prelude::*;
use lockdown::core::{Context, Fidelity};
use lockdown::flow::prelude::*;
use lockdown::topology::vantage::VantagePoint;
use lockdown_flow::time::Date;

#[test]
fn growth_ratio_survives_sampling() {
    // The headline ratio (lockdown day / base day volume) must be stable
    // under sampling at a modest rate — for every trace seed and every
    // sampler seed. Threshold sampling, for the reason given in the next
    // test: a uniform 1-in-8 draw over these ~39k heavy-tailed records a
    // day misses the ratio by 6–18% depending on the sampler seed alone.
    let base_day = Date::new(2020, 2, 19);
    let lock_day = Date::new(2020, 3, 25);
    let volume = |flows: &[FlowRecord]| flows.iter().map(|f| f.bytes).sum::<u64>() as f64;
    for seed in 1..=16 {
        let ctx = Context::with_seed(Fidelity::Standard, seed);
        let generator = ctx.generator();
        let base = generator.generate_day(VantagePoint::IxpCe, base_day);
        let lock = generator.generate_day(VantagePoint::IxpCe, lock_day);
        let truth = volume(&lock) / volume(&base);

        for sampler_seed in [42, 7, 3, 2_020] {
            let sampler = ThresholdSampler::new(10_000_000_000_000, sampler_seed);
            let (kept_base, kept_lock) = (sampler.sample_all(&base), sampler.sample_all(&lock));
            // No more records than the 1-in-8 export this stands for.
            assert!(
                8 * (kept_base.len() + kept_lock.len()) <= base.len() + lock.len(),
                "kept {}/{}: threshold too low to exercise sampling",
                kept_base.len() + kept_lock.len(),
                base.len() + lock.len()
            );
            let sampled = volume(&kept_lock) / volume(&kept_base);
            let err = (sampled - truth).abs() / truth;
            assert!(
                err < 0.08,
                "seeds {seed}/{sampler_seed}: sampled growth {sampled:.3} vs true {truth:.3} (err {err:.3})"
            );
        }
    }
}

#[test]
fn day_pattern_classification_survives_sampling() {
    // Fig. 2's classifier works on 6-hour volume shares: sampling noise
    // must not flip verdicts at moderate rates.
    //
    // Sampling here is *threshold* (smart) sampling, not uniform 1-in-N:
    // the generator's downscaled fidelity emits ~20k records per day that
    // each aggregate terabytes, so an all-or-nothing 1-in-N draw over
    // records swings 6-hour shares by several points and flips borderline
    // days — that variance is an artifact of record granularity, not of
    // the sampling rate the paper's pipelines run at. Threshold sampling
    // caps any record's contribution at z, which is how production flow
    // analyses keep heavy-tailed volumes stable under sampling.
    let ctx = Context::new(Fidelity::Standard);
    let generator = ctx.generator();
    let sampler = ThresholdSampler::new(5_000_000_000_000, 7);
    let region = VantagePoint::IspCe.region();

    let mut full = HourlyVolume::new();
    let mut sampled = HourlyVolume::new();
    let mut seen = 0u64;
    let mut kept = 0u64;
    generator.for_each_hour(
        VantagePoint::IspCe,
        Date::new(2020, 2, 1),
        Date::new(2020, 3, 31),
        |_, _, flows| {
            full.observe_all(flows);
            seen += flows.len() as u64;
            for f in flows {
                if let Some(s) = sampler.sample(f) {
                    kept += 1;
                    sampled.observe_all(&[s]);
                }
            }
        },
    );
    // The reduction must be real for the invariance claim to mean much.
    assert!(
        (kept as f64) < 0.25 * seen as f64,
        "kept {kept}/{seen}: threshold too low to exercise sampling"
    );
    let clf_full = DayClassifier::train_february(&full, region);
    let clf_sampled = DayClassifier::train_february(&sampled, region);
    let mut agree = 0;
    let mut total = 0;
    for date in Date::new(2020, 3, 1).range_inclusive(Date::new(2020, 3, 31)) {
        let (Some(a), Some(b)) = (
            clf_full.classify(&full, date),
            clf_sampled.classify(&sampled, date),
        ) else {
            continue;
        };
        total += 1;
        if a == b {
            agree += 1;
        }
    }
    assert!(total >= 28);
    assert!(
        agree as f64 >= 0.9 * total as f64,
        "verdicts agree on only {agree}/{total} days"
    );
}

#[test]
fn port_mix_shares_survive_sampling() {
    let ctx = Context::new(Fidelity::Standard);
    let generator = ctx.generator();
    let flows = generator.generate_day(VantagePoint::IxpCe, Date::new(2020, 3, 25));
    let sampler = FlowSampler::new(8, 3);
    let sampled = sampler.sample_all(&flows);

    let region = VantagePoint::IxpCe.region();
    let mut p_full = PortConsumer::new(region);
    p_full.observe_all(&flows);
    let p_full = p_full.profile;
    let mut p_sampled = PortConsumer::new(region);
    p_sampled.observe_all(&sampled);
    let p_sampled = p_sampled.profile;

    // The web-port share (a headline §4 statistic) moves by at most a few
    // points under sampling.
    let full_share = p_full.share_of(&[tcp443(), tcp80()]);
    let sampled_share = p_sampled.share_of(&[tcp443(), tcp80()]);
    assert!(
        (full_share - sampled_share).abs() < 0.05,
        "web share {full_share:.3} vs sampled {sampled_share:.3}"
    );
    // The top non-web port is stable.
    assert_eq!(
        p_full.top_services(1, &[tcp443(), tcp80()]),
        p_sampled.top_services(1, &[tcp443(), tcp80()])
    );
}
