//! The wire, pinned: CRC-32 of every datagram byte `export_cell` emits and
//! of every record `process_cell` returns, for three seeded cells under
//! four configurations (the default IPFIX plane, a faulty one, a sampled
//! one, and NetFlow v9), recorded at the commit before the fixed-layout
//! codec landed; the faulty rows' record columns were re-recorded once,
//! when the transport moved to the keyed `base::fault` schedule. A codec or copy-path change that moves one wire byte, one
//! datagram boundary or one record's position fails here by name.
//!
//! The cells are drawn from `SplitMix`, not from the generator, so a
//! calibration change (`GENERATOR_STREAM`) never edits this file; their
//! sizes are the suite's smallest, median and largest cell.

use lockdown_base::crc::crc32;
use lockdown_base::hash::SplitMix;
use lockdown_collect::{CollectionPlane, ExporterFleet, FaultProfile, WireConfig};
use lockdown_flow::prelude::*;
use lockdown_topology::vantage::VantagePoint;
use lockdown_traffic::plan::{Cell, Stream};
use std::net::Ipv4Addr;

fn cell() -> Cell {
    Cell {
        stream: Stream::Vantage(VantagePoint::IxpCe),
        date: Date::new(2020, 3, 25),
        hour: 14,
    }
}

/// `n` flows starting inside the cell's hour, every field drawn.
fn flows(n: usize) -> Vec<FlowRecord> {
    let mut rng = SplitMix::new(0x5EED_0000 + n as u64);
    let hour_start = cell().date.at_hour(cell().hour);
    (0..n)
        .map(|_| {
            let start = hour_start.add_secs(rng.below(3_600));
            FlowRecord::builder(
                FlowKey {
                    src_addr: Ipv4Addr::from(rng.next_u64() as u32),
                    dst_addr: Ipv4Addr::from(rng.next_u64() as u32),
                    src_port: rng.next_u64() as u16,
                    dst_port: rng.pick(&[443, 80, 8080, 8801, 53]),
                    protocol: IpProtocol::from_number(rng.pick(&[6, 17, 47, 50])),
                },
                start,
            )
            .end(start.add_secs(rng.below(900)))
            .bytes(rng.range(40..6_000_000_000))
            .packets(rng.range(1..4_000_000))
            .tcp_flags(TcpFlags(rng.next_u64() as u8))
            .interfaces(rng.next_u64() as u16, rng.next_u64() as u16)
            .asns(rng.next_u64() as u32, rng.below(65_000) as u32)
            .direction(rng.pick(&[Direction::Ingress, Direction::Egress, Direction::Unknown]))
            .build()
        })
        .collect()
}

fn configs() -> [(&'static str, WireConfig); 4] {
    let faulty = WireConfig {
        faults: FaultProfile {
            seed: 301,
            drop: 0.1,
            dup: 0.1,
            reorder: 0.1,
            restart_every: 4,
            ..FaultProfile::zero()
        },
        ..WireConfig::new()
    };
    let mut sampled = WireConfig::new();
    sampled.sampling = Some(8);
    let mut v9 = WireConfig::new();
    v9.format = ExportFormat::NetflowV9;
    [
        ("default", WireConfig::new()),
        ("faulty", faulty),
        ("sampled", sampled),
        ("v9", v9),
    ]
}

/// CRC-32 of the datagrams' bytes, concatenated in emission order.
fn wire_crc(cfg: &WireConfig, flows: &[FlowRecord]) -> (usize, u32) {
    let cell = cell();
    // `Plane::export`'s export instant: strictly after the last flow ends.
    let now = flows.iter().map(|f| f.end).max().unwrap().add_secs(1);
    let mut fleet = ExporterFleet::new(
        cfg.fleet_config(),
        cell.stream.wire_id(),
        cell.date.at_hour(cell.hour),
    );
    let (datagrams, _) = fleet.export_cell(flows, now);
    let bytes: Vec<u8> = datagrams.iter().flat_map(|d| d.bytes.clone()).collect();
    (datagrams.len(), crc32(&bytes))
}

/// CRC-32 of the records `process_cell` returns, every field, in order.
fn records_crc(cfg: &WireConfig, flows: &[FlowRecord]) -> (usize, u32) {
    let out = CollectionPlane::new(*cfg).process_cell(cell(), flows);
    let mut bytes = Vec::with_capacity(out.len() * 51);
    for r in &out {
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
    (out.len(), crc32(&bytes))
}

/// `(cell size, configuration, datagrams, wire CRC, records, records CRC)`.
const PINNED: [(usize, &str, usize, u32, usize, u32); 12] = [
    (5, "default", 3, 0x72A6_24BD, 5, 0x6036_2A40),
    (5, "faulty", 3, 0x72A6_24BD, 5, 0x6036_2A40),
    (5, "sampled", 1, 0xDB6A_91EE, 1, 0x08E1_00EE),
    (5, "v9", 3, 0xB9EF_A506, 5, 0x6036_2A40),
    (69, "default", 4, 0x9FB9_0EC8, 69, 0x0C1A_21C6),
    (69, "faulty", 4, 0x9FB9_0EC8, 69, 0x0C1A_21C6),
    (69, "sampled", 4, 0x4AC1_0EB4, 11, 0x0B57_E093),
    (69, "v9", 4, 0x455D_FB3D, 69, 0x0C1A_21C6),
    (1_140, "default", 20, 0x0358_C541, 1_140, 0xA379_0238),
    (1_140, "faulty", 20, 0x9452_75FA, 1_100, 0xD793_45F1),
    (1_140, "sampled", 4, 0x9777_1965, 156, 0xEA79_DF04),
    (1_140, "v9", 20, 0x0FF2_92D8, 1_140, 0xA379_0238),
];

#[test]
fn wire_bytes_and_returned_records_are_the_parents() {
    let mut pinned = PINNED.iter();
    for n in [5, 69, 1_140] {
        let flows = flows(n);
        for (name, cfg) in configs() {
            let (datagrams, wire) = wire_crc(&cfg, &flows);
            let (records, crc) = records_crc(&cfg, &flows);
            let seen = (n, name, datagrams, wire, records, crc);
            assert_eq!(Some(&seen), pinned.next(), "{n}-flow cell, {name}");
        }
    }
}
