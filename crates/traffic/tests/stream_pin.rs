//! The generated stream, pinned: CRC-32 over every field of every record
//! of a fixed cell list — every stream; a base-week workday, a lockdown
//! workday, a weekend, Easter Monday and a relaxation-phase day; hours 3,
//! 10 and 20 — at two seeds under the `Fidelity::Test` and `Standard`
//! configurations, one cell inside the outage window of
//! `scenarios/hypergiant-outage.toml`, and a fold of the demand model's
//! `volume_gbps(..).to_bits()` over the whole vantage × class × 140-day ×
//! 24-hour grid under both shipped scenarios.
//!
//! Recorded at the commit before generation moved to per-cell facts and
//! resolved endpoint pools. A change that moves one draw or reorders one
//! float operation fails here by stream name; edit a value only together
//! with `GENERATOR_STREAM`.

use lockdown_base::crc::crc32;
use lockdown_base::hash::fold;
use lockdown_dns::corpus::synthesize;
use lockdown_flow::record::FlowRecord;
use lockdown_flow::time::Date;
use lockdown_scenario::apps::AppClass;
use lockdown_scenario::calendar::study_start;
use lockdown_scenario::demand::DemandModel;
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::registry::Registry;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::config::{GeneratorConfig, GENERATOR_STREAM};
use lockdown_traffic::plan::{Cell, Stream, TraceEmitter};

fn streams() -> Vec<Stream> {
    VantagePoint::ALL
        .into_iter()
        .map(Stream::Vantage)
        .chain([Stream::IspTransit, Stream::Edu])
        .collect()
}

fn dates() -> [Date; 5] {
    [
        Date::new(2020, 2, 19), // base-week workday
        Date::new(2020, 3, 25), // lockdown workday
        Date::new(2020, 3, 28), // weekend
        Date::new(2020, 4, 13), // Easter Monday
        Date::new(2020, 5, 13), // relaxation phase
    ]
}

const HOURS: [u8; 3] = [3, 10, 20];

fn outage_spec() -> ScenarioSpec {
    ScenarioSpec::parse_toml(include_str!("../../../scenarios/hypergiant-outage.toml"))
        .expect("shipped counterfactual parses")
}

fn push_record(bytes: &mut Vec<u8>, r: &FlowRecord) {
    bytes.extend(r.key.src_addr.octets());
    bytes.extend(r.key.dst_addr.octets());
    bytes.extend(r.key.src_port.to_be_bytes());
    bytes.extend(r.key.dst_port.to_be_bytes());
    bytes.push(r.key.protocol.number());
    bytes.extend(r.start.unix().to_be_bytes());
    bytes.extend(r.end.unix().to_be_bytes());
    bytes.extend(r.bytes.to_be_bytes());
    bytes.extend(r.packets.to_be_bytes());
    bytes.push(r.tcp_flags.0);
    bytes.extend(r.input_if.to_be_bytes());
    bytes.extend(r.output_if.to_be_bytes());
    bytes.extend(r.src_as.to_be_bytes());
    bytes.extend(r.dst_as.to_be_bytes());
    bytes.push(r.direction as u8);
}

/// `(flows, CRC-32 of every field of every record, in order)` of `cells`.
fn cells_crc(emitter: &TraceEmitter<'_>, cells: impl Iterator<Item = Cell>) -> (usize, u32) {
    let (mut bytes, mut flows, mut buf) = (Vec::new(), 0, Vec::new());
    for cell in cells {
        emitter.generate_cell(cell, &mut buf);
        flows += buf.len();
        buf.iter().for_each(|r| push_record(&mut bytes, r));
    }
    (flows, crc32(&bytes))
}

/// `(configuration, seed, stream, flows, CRC)`, streams in `streams()` order.
const PINNED: [(&str, u64, &str, usize, u32); 36] = [
    ("test", 301, "ISP-CE", 4_485, 0xCE32_C4E5),
    ("test", 301, "IXP-CE", 9_652, 0x0691_B220),
    ("test", 301, "IXP-SE", 763, 0x1B13_9F2C),
    ("test", 301, "IXP-US", 812, 0xB8E8_2546),
    ("test", 301, "EDU", 257, 0x4E4B_2CCD),
    ("test", 301, "MOBILE-CE", 1_389, 0xBADD_1D85),
    ("test", 301, "IPX", 182, 0x5527_6CEB),
    ("test", 301, "ISP-CE (transit)", 1_950, 0xB188_DA31),
    ("test", 301, "EDU (directional)", 3_280, 0xBB8B_767F),
    ("test", 0x10CD_2020, "ISP-CE", 4_478, 0x54C0_716E),
    ("test", 0x10CD_2020, "IXP-CE", 9_667, 0xA3D2_E45E),
    ("test", 0x10CD_2020, "IXP-SE", 759, 0x7895_25E0),
    ("test", 0x10CD_2020, "IXP-US", 811, 0xFB6A_34EB),
    ("test", 0x10CD_2020, "EDU", 258, 0x9F99_C5F4),
    ("test", 0x10CD_2020, "MOBILE-CE", 1_382, 0xAE37_7E3F),
    ("test", 0x10CD_2020, "IPX", 181, 0xA2AA_E61A),
    ("test", 0x10CD_2020, "ISP-CE (transit)", 1_950, 0x9505_3E4B),
    ("test", 0x10CD_2020, "EDU (directional)", 3_262, 0xFD16_E8DC),
    ("standard", 301, "ISP-CE", 15_576, 0xEB0F_1F9C),
    ("standard", 301, "IXP-CE", 33_764, 0x8154_8AA8),
    ("standard", 301, "IXP-SE", 2_363, 0x0CBA_182B),
    ("standard", 301, "IXP-US", 2_510, 0x9B60_D5C6),
    ("standard", 301, "EDU", 532, 0xE80A_7AB1),
    ("standard", 301, "MOBILE-CE", 4_803, 0x75FC_629A),
    ("standard", 301, "IPX", 427, 0x62B0_3E8B),
    ("standard", 301, "ISP-CE (transit)", 2_161, 0x897F_1142),
    ("standard", 301, "EDU (directional)", 3_280, 0xBB8B_767F),
    ("standard", 0x10CD_2020, "ISP-CE", 15_586, 0x78EC_5FCC),
    ("standard", 0x10CD_2020, "IXP-CE", 33_778, 0xF54B_5042),
    ("standard", 0x10CD_2020, "IXP-SE", 2_356, 0x7A16_9022),
    ("standard", 0x10CD_2020, "IXP-US", 2_517, 0xE823_BED4),
    ("standard", 0x10CD_2020, "EDU", 529, 0x6E76_487C),
    ("standard", 0x10CD_2020, "MOBILE-CE", 4_808, 0x4B14_D3C3),
    ("standard", 0x10CD_2020, "IPX", 430, 0xDF8E_D647),
    (
        "standard",
        0x10CD_2020,
        "ISP-CE (transit)",
        2_178,
        0x89B9_FA62,
    ),
    (
        "standard",
        0x10CD_2020,
        "EDU (directional)",
        3_262,
        0xFD16_E8DC,
    ),
];

/// IXP-CE on 2020-04-02 at 20:00 under the outage scenario, seed 301.
const PINNED_OUTAGE: (usize, u32) = (855, 0x3E87_4B9E);

/// `volume_gbps` bits folded over the grid: shipped calibration, outage.
const PINNED_VOLUME: [u64; 2] = [0xCC11_7673_39A2_4EAD, 0x093E_A255_74CD_9CF1];

fn config(name: &str, seed: u64) -> GeneratorConfig {
    match name {
        "test" => GeneratorConfig::coarse(seed),
        _ => GeneratorConfig::with_seed(seed),
    }
}

#[test]
fn every_record_of_the_pinned_cells_is_the_parents() {
    assert_eq!(GENERATOR_STREAM, 1, "re-record this file with the stream");
    let registry = Registry::synthesize();
    let mut pinned = PINNED.iter();
    for name in ["test", "standard"] {
        for seed in [301, 0x10CD_2020] {
            // As `Context::with_seed` builds it: the corpus shares the seed.
            let corpus = synthesize(&registry, seed);
            let emitter = TraceEmitter::new(&registry, &corpus, config(name, seed));
            for stream in streams() {
                let cells = dates()
                    .into_iter()
                    .flat_map(|date| HOURS.map(|hour| Cell { stream, date, hour }));
                let (flows, crc) = cells_crc(&emitter, cells);
                let seen = (name, seed, stream.label(), flows, crc);
                assert_eq!(Some(&seen), pinned.next());
            }
        }
    }
}

#[test]
fn a_cell_inside_the_outage_window_is_the_parents() {
    let registry = Registry::synthesize();
    let corpus = synthesize(&registry, 301);
    let emitter = TraceEmitter::with_scenario(
        &registry,
        &corpus,
        GeneratorConfig::coarse(301),
        &outage_spec(),
    );
    let cell = Cell {
        stream: Stream::Vantage(VantagePoint::IxpCe),
        date: Date::new(2020, 4, 2),
        hour: 20,
    };
    assert_eq!(cells_crc(&emitter, [cell].into_iter()), PINNED_OUTAGE);
}

#[test]
fn demand_volume_bits_are_the_parents_over_the_whole_grid() {
    let specs = [ScenarioSpec::covid_spring_2020(), outage_spec()];
    for (spec, pinned) in specs.iter().zip(PINNED_VOLUME) {
        let model = DemandModel::from_spec(spec);
        let mut bits = Vec::with_capacity(7 * 23 * 140 * 24);
        for vp in VantagePoint::ALL {
            for app in AppClass::ALL {
                for day in 0..140 {
                    let date = study_start().add_days(day);
                    for hour in 0..24 {
                        bits.push(model.volume_gbps(vp, app, date, hour).to_bits());
                    }
                }
            }
        }
        assert_eq!(fold(0, bits), pinned, "scenario {}", spec.name);
    }
}
