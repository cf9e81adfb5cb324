//! Record slices that stress the hour-run accumulate path, and the check
//! every consumer is held to over them: its one way in and its one way
//! out. Three ways of feeding a slice — `observe_all` on it whole,
//! one-record runs, and the engine's way, split into hour runs once and
//! `observe_run` per run — must leave the same state, byte for byte in
//! `encode_frame`, including which keys exist; and so must the slice's
//! two halves at every split, observed apart and merged through
//! `merge_frame` in either order.
//!
//! Included by path from the tests of consumers this crate cannot see
//! (`lockdown-core`'s private ones, the query filter in `tests/`), so a
//! new slice shape reaches all of them.

#![allow(dead_code)] // each includer uses its share

use lockdown_analysis::codec::{encode_frame, merge_frame};
use lockdown_analysis::consumer::FlowConsumer;
use lockdown_base::hash::SplitMix;
use lockdown_flow::protocol::{IpProtocol, TcpFlags};
use lockdown_flow::record::{hour_runs, Direction, FlowKey, FlowRecord};
use lockdown_flow::time::{Date, Timestamp};
use lockdown_topology::registry::{EDU_ASN, SPOTIFY_ASN, ZOOM_ASN};
use std::net::Ipv4Addr;

/// Seeds every check runs over.
pub(crate) const SEEDS: [u64; 3] = [1, 0x10CD_2020, 0xFEED];

/// The Wednesday the plain slices fall on; its week starts [`WEEK_START`].
pub(crate) const DAY: Date = Date {
    year: 2020,
    month: 3,
    day: 25,
};

/// Monday of [`DAY`]'s week.
pub(crate) const WEEK_START: Date = Date {
    year: 2020,
    month: 3,
    day: 23,
};

/// The eyeball ASN among the slices' endpoints.
pub(crate) const EYEBALL: u32 = 64_496;

/// One seeded flow starting at `start`: the one arbitrary-record
/// generator of this crate's tests. Each field comes from a short list
/// three times in four, so keys collide — service, gaming, conferencing,
/// tunnel and ephemeral ports; hypergiant, eyeball, campus, Table 1 and
/// unknown ASNs; eight addresses — and from its whole domain otherwise, so
/// a classifier meets every value. Every direction; one flow in eight
/// carries no bytes.
pub(crate) fn flow(rng: &mut SplitMix, start: Timestamp) -> FlowRecord {
    const PROTOCOLS: [IpProtocol; 6] = [
        IpProtocol::Tcp,
        IpProtocol::Tcp,
        IpProtocol::Udp,
        IpProtocol::Udp,
        IpProtocol::Esp,
        IpProtocol::Gre,
    ];
    const PORTS: [u16; 14] = [
        0, 22, 80, 443, 443, 993, 1_194, 3_389, 4_500, 8_801, 27_015, 40_000, 50_000, 60_000,
    ];
    let asns = [
        0,
        1,
        2,
        2_906,
        15_169,
        32_934,
        EYEBALL,
        EDU_ASN.0,
        SPOTIFY_ASN.0,
        ZOOM_ASN.0,
    ];
    const DIRECTIONS: [Direction; 3] = [Direction::Ingress, Direction::Egress, Direction::Unknown];
    let near: [Ipv4Addr; 8] = std::array::from_fn(|x| Ipv4Addr::new(198, 51, 100, x as u8));
    /// A listed value, or one time in four any value.
    fn field<T: Copy>(rng: &mut SplitMix, listed: &[T], any: impl Fn(u64) -> T) -> T {
        if rng.chance(0.25) {
            any(rng.next_u64())
        } else {
            rng.pick(listed)
        }
    }
    let addr = |rng: &mut SplitMix| field(rng, &near, |raw| Ipv4Addr::from(raw as u32));
    let port = |rng: &mut SplitMix| field(rng, &PORTS, |raw| raw as u16);
    let asn = |rng: &mut SplitMix| field(rng, &asns, |raw| raw as u32);
    let bytes = match rng.below(8) {
        0 => 0,
        _ => rng.below(1_000_000),
    };
    FlowRecord::builder(
        FlowKey {
            src_addr: addr(rng),
            dst_addr: addr(rng),
            src_port: port(rng),
            dst_port: port(rng),
            protocol: field(rng, &PROTOCOLS, |raw| IpProtocol::from_number(raw as u8)),
        },
        start,
    )
    .end(start.add_secs(rng.below(600)))
    .bytes(bytes)
    .packets(1 + bytes / 1_400)
    .tcp_flags(TcpFlags::complete_connection())
    .asns(asn(rng), asn(rng))
    .direction(rng.pick(&DIRECTIONS))
    .build()
}

/// `n` flows, each starting up to `span_secs` after `from`.
pub(crate) fn flows(
    rng: &mut SplitMix,
    n: usize,
    from: Timestamp,
    span_secs: u64,
) -> Vec<FlowRecord> {
    (0..n)
        .map(|_| {
            let start = from.add_secs(rng.below(span_secs));
            flow(rng, start)
        })
        .collect()
}

/// `n` flows starting anywhere in one hour.
fn hour(rng: &mut SplitMix, date: Date, hour: u8, n: usize) -> Vec<FlowRecord> {
    flows(rng, n, date.at_hour(hour), 3_600)
}

/// `a` and `b` alternating record by record.
fn interleave(a: Vec<FlowRecord>, b: Vec<FlowRecord>) -> Vec<FlowRecord> {
    a.into_iter().zip(b).flat_map(|(x, y)| [x, y]).collect()
}

/// The labelled slices of one seed.
pub(crate) fn slices(seed: u64) -> Vec<(String, Vec<FlowRecord>)> {
    let rng = &mut SplitMix::new(seed);
    let mut out = vec![
        ("the empty slice".to_string(), Vec::new()),
        ("one hour".to_string(), hour(rng, DAY, 11, 40)),
        (
            "two hours interleaved record by record".to_string(),
            interleave(hour(rng, DAY, 11, 20), hour(rng, DAY, 12, 20)),
        ),
        (
            "10:59:59 | 11:00:00".to_string(),
            vec![
                flow(rng, DAY.at_hour(10).add_secs(3_599)),
                flow(rng, DAY.at_hour(11)),
                flow(rng, DAY.at_hour(10).add_secs(3_599)),
            ],
        ),
        // Outside Fig. 4's day parts and Fig. 9's displayed hours.
        ("the small hours".to_string(), hour(rng, DAY, 3, 20)),
    ];

    // A run ending at midnight and the next day's first, then the two
    // days alternating: the day type, day number or ISO week changes
    // inside the slice.
    for (label, eve) in [
        ("Epiphany → a workday", Date::new(2020, 1, 6)),
        ("a workday → Good Friday", Date::new(2020, 4, 9)),
        ("Easter Monday → a workday", Date::new(2020, 4, 13)),
        ("Sunday → Monday, ISO week 12 → 13", Date::new(2020, 3, 22)),
        (
            "ISO week 52 of 2019 → week 1 of 2020",
            Date::new(2019, 12, 29),
        ),
    ] {
        let morrow = eve.add_days(1);
        let mut slice = hour(rng, eve, 23, 15);
        slice.extend(hour(rng, morrow, 0, 15));
        slice.extend(interleave(hour(rng, eve, 18, 6), hour(rng, morrow, 10, 6)));
        out.push((label.to_string(), slice));
    }

    let mut empty_handed = hour(rng, DAY, 20, 20);
    for r in &mut empty_handed {
        r.bytes = 0;
    }
    out.push(("zero-byte flows".to_string(), empty_handed));

    let mut unclassified = hour(rng, DAY, 14, 20);
    for r in &mut unclassified {
        r.key.protocol = IpProtocol::Tcp;
        (r.key.src_port, r.key.dst_port) = (40_000, 50_000);
        (r.src_as, r.dst_as) = (1, 2);
    }
    out.push(("an all-unclassified slice".to_string(), unclassified));

    // Two counted incoming flows from one eyeball AS in one hour: a split
    // between them puts one in each half, so a merge that keeps the larger
    // count instead of the sum shows.
    let mut incoming = hour(rng, DAY, 9, 2);
    for r in &mut incoming {
        r.key.protocol = IpProtocol::Tcp;
        (r.key.src_port, r.key.dst_port) = (50_000, 443);
        (r.src_as, r.dst_as) = (EYEBALL, EDU_ASN.0);
    }
    out.push(("two incoming flows of one eyeball AS".to_string(), incoming));
    out
}

/// Hold one consumer type to the contract: over every slice of every seed,
/// alone and on top of the state the earlier slices left, the whole
/// slice, one-record runs and a run at a time end in equal `encode_frame`
/// bytes; and at every split of a slice, the two halves observed apart
/// and either one's frame merged into the other through `merge_frame` end
/// in the whole slice's bytes.
pub(crate) fn assert_runs_match_records<C: FlowConsumer>(make: impl Fn() -> C) {
    /// Feed `slice` to `c` the engine's way.
    fn by_run<C: FlowConsumer>(c: &mut C, slice: &[FlowRecord]) {
        for run in hour_runs(slice) {
            c.observe_run(&run);
        }
    }
    /// Feed `slice` to `c` a one-record run at a time.
    fn by_record<C: FlowConsumer>(c: &mut C, slice: &[FlowRecord]) {
        for r in slice {
            c.observe_all(std::slice::from_ref(r));
        }
    }
    for seed in SEEDS {
        let (mut all_whole, mut all_by_record, mut all_by_run) = (make(), make(), make());
        for (label, slice) in slices(seed) {
            let (mut whole, mut one_by_record, mut one_by_run) = (make(), make(), make());
            whole.observe_all(&slice);
            all_whole.observe_all(&slice);
            by_record(&mut one_by_record, &slice);
            by_record(&mut all_by_record, &slice);
            by_run(&mut one_by_run, &slice);
            by_run(&mut all_by_run, &slice);
            let name = whole.state_tag().name;
            let frame = encode_frame(&whole);
            for (path, alone, through) in [
                ("one-record runs", &one_by_record, &all_by_record),
                ("a run at a time", &one_by_run, &all_by_run),
            ] {
                assert_eq!(
                    frame,
                    encode_frame(alone),
                    "{name} over {label}, {path} (seed {seed:#x})"
                );
                assert_eq!(
                    encode_frame(&all_whole),
                    encode_frame(through),
                    "{name} through {label}, {path} (seed {seed:#x})"
                );
            }
            for split in 0..=slice.len() {
                let (a, b) = slice.split_at(split);
                let (mut first, mut second) = (make(), make());
                first.observe_all(a);
                second.observe_all(b);
                let (first_frame, second_frame) = (encode_frame(&first), encode_frame(&second));
                for (into, from, order) in [
                    (&mut first, &second_frame, "second into first"),
                    (&mut second, &first_frame, "first into second"),
                ] {
                    let at =
                        format!("{name} over {label} split at {split}, {order} (seed {seed:#x})");
                    merge_frame(into, from).unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(frame, encode_frame(into), "{at}");
                }
            }
        }
    }
}
