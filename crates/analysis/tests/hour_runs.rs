//! The consumer contract of DESIGN.md, "The consumer contract": each of
//! this crate's eight accumulators, fed the stress slices of `support`,
//! ends in the same `encode_frame` bytes whether it took a slice whole,
//! a one-record run at a time or as two halves merged through the codec.

mod support;

use lockdown_analysis::appclass::{Classifier, PaperClass};
use lockdown_analysis::consumer::{
    AsTotalsConsumer, ClassUsageConsumer, HeatmapConsumer, HypergiantConsumer, PortConsumer,
};
use lockdown_analysis::edu::EduAnalysis;
use lockdown_analysis::linkutil::AsHourly;
use lockdown_analysis::timeseries::HourlyVolume;
use lockdown_flow::time::Date;
use lockdown_topology::asn::{Asn, Region};
use lockdown_topology::registry::Registry;
use std::sync::Arc;
use support::{assert_runs_match_records, DAY, EYEBALL, WEEK_START};

#[test]
fn volume_and_edu_accumulators() {
    assert_runs_match_records(HourlyVolume::new);
    assert_runs_match_records(EduAnalysis::new);
    // One day of the slices, and a day none of them touches.
    assert_runs_match_records(|| AsHourly::new(DAY));
    assert_runs_match_records(|| AsHourly::new(Date::new(2020, 2, 20)));
}

#[test]
fn calendar_keyed_accumulators_in_both_holiday_calendars() {
    // Easter Monday and Epiphany are holidays in Europe, workdays in the US.
    for region in [Region::CentralEurope, Region::UsEast] {
        assert_runs_match_records(|| PortConsumer::new(region));
        assert_runs_match_records(|| HypergiantConsumer::new(region, Asn(EYEBALL)));
        assert_runs_match_records(|| AsTotalsConsumer::all(region));
        assert_runs_match_records(|| AsTotalsConsumer::touching(region, Asn(EYEBALL)));
        // An AS gate nothing passes: no total, and no day seen either.
        assert_runs_match_records(|| AsTotalsConsumer::touching(region, Asn(7)));
    }
}

#[test]
fn classifying_accumulators() {
    let classifier = Arc::new(Classifier::from_registry(&Registry::synthesize()));
    // The slices' own week, one that holds only their Easter days, and one
    // every cell falls outside of.
    for start in [WEEK_START, Date::new(2020, 4, 9), Date::new(2020, 2, 20)] {
        assert_runs_match_records(|| HeatmapConsumer::new(Arc::clone(&classifier), start));
    }
    for class in PaperClass::ALL {
        assert_runs_match_records(|| ClassUsageConsumer::new(Arc::clone(&classifier), class));
    }
}
