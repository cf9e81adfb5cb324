//! The flow record: the unit of data every analysis in the paper consumes.
//!
//! Both NetFlow and IPFIX reduce a unidirectional packet stream sharing a
//! 5-tuple to one summary record. [`FlowRecord`] is the normalized in-memory
//! form that the wire codecs decode into and the generator emits; it carries
//! exactly the fields the paper's pipeline uses (§2: "flow summaries based
//! on the packet header … no payload information").

use crate::protocol::{IpProtocol, TcpFlags};
use crate::time::{Date, Timestamp, SECS_PER_HOUR};
use std::fmt;
use std::net::Ipv4Addr;

/// Direction of a flow relative to the observing network's border.
///
/// The EDU analysis (§7) hinges on ingress/egress classification ("we
/// determine whether the connections are incoming or outgoing using the AS
/// numbers of each end-point, interfaces, and port pairs"); flows whose
/// direction cannot be established are `Unknown` (the paper reports 39% of
/// EDU flows in that state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Entering the observed network from outside.
    Ingress,
    /// Leaving the observed network.
    Egress,
    /// Direction could not be determined.
    Unknown,
}

/// The classic unidirectional 5-tuple flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_addr: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_addr: Ipv4Addr,
    /// Source transport port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination transport port (0 for port-less protocols).
    pub dst_port: u16,
    /// IP protocol.
    pub protocol: IpProtocol,
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.protocol, self.src_addr, self.src_port, self.dst_addr, self.dst_port
        )
    }
}

/// One exported flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// First packet of the flow.
    pub start: Timestamp,
    /// Last packet of the flow.
    pub end: Timestamp,
    /// Total layer-3 bytes.
    pub bytes: u64,
    /// Total packets.
    pub packets: u64,
    /// Accumulated TCP flags (zero for non-TCP).
    pub tcp_flags: TcpFlags,
    /// SNMP input interface index on the exporting router.
    pub input_if: u16,
    /// SNMP output interface index on the exporting router.
    pub output_if: u16,
    /// Source autonomous system, as recorded by the exporter (0 if unknown).
    pub src_as: u32,
    /// Destination autonomous system (0 if unknown).
    pub dst_as: u32,
    /// Direction relative to the observing network.
    pub direction: Direction,
}

impl FlowRecord {
    /// A builder seeded with mandatory fields; optional fields default to
    /// zero/unknown, matching what a minimal NetFlow v5 record carries.
    pub fn builder(key: FlowKey, start: Timestamp) -> FlowRecordBuilder {
        FlowRecordBuilder {
            record: FlowRecord {
                key,
                start,
                end: start,
                bytes: 0,
                packets: 0,
                tcp_flags: TcpFlags::default(),
                input_if: 0,
                output_if: 0,
                src_as: 0,
                dst_as: 0,
                direction: Direction::Unknown,
            },
        }
    }
}

/// A maximal run of consecutive records that start in one hour, with that
/// hour's calendar facts and byte sum computed once.
///
/// Every figure bins by (week, day type, hour), all functions of the start
/// hour, and the engine hands consumers one vantage-hour at a time — so an
/// accumulator derives its keys per run, not per flow. Runs are found from
/// the data, never assumed: a slice that alternates hours yields one run
/// per record and the same result.
#[derive(Debug, Clone, Copy)]
pub struct HourRun<'a> {
    /// The run's records, in slice order (never empty).
    pub records: &'a [FlowRecord],
    /// Start of the hour every record of the run starts in.
    pub hour_start: Timestamp,
    /// Civil date (UTC) of that hour.
    pub date: Date,
    /// Days since the Unix epoch of that date.
    pub day_number: i64,
    /// Hour of day in `0..24`.
    pub hour: u8,
    /// Sum of the records' bytes (wrapping on overflow).
    pub bytes: u64,
}

/// Split `records` into its [`HourRun`]s, in order; concatenated, the runs'
/// records are the input. One scan finds each run's end and byte sum.
pub fn hour_runs(records: &[FlowRecord]) -> impl Iterator<Item = HourRun<'_>> {
    let mut rest = records;
    std::iter::from_fn(move || {
        let hour_start = rest.first()?.start.floor_hour();
        let (mut len, mut bytes) = (0, 0u64);
        for r in rest {
            // An earlier hour wraps to a large difference and ends the run.
            if r.start.unix().wrapping_sub(hour_start.unix()) >= SECS_PER_HOUR {
                break;
            }
            len += 1;
            bytes = bytes.wrapping_add(r.bytes);
        }
        let (records, tail) = rest.split_at(len);
        rest = tail;
        Some(HourRun {
            records,
            hour_start,
            date: hour_start.date(),
            day_number: hour_start.day_number(),
            hour: hour_start.hour(),
            bytes,
        })
    })
}

/// Builder for [`FlowRecord`]; keeps construction sites readable when only a
/// few optional fields are set.
#[derive(Debug, Clone)]
pub struct FlowRecordBuilder {
    record: FlowRecord,
}

impl FlowRecordBuilder {
    /// Set the flow end time.
    pub fn end(mut self, end: Timestamp) -> Self {
        self.record.end = end;
        self
    }

    /// Set the byte count.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.record.bytes = bytes;
        self
    }

    /// Set the packet count.
    pub fn packets(mut self, packets: u64) -> Self {
        self.record.packets = packets;
        self
    }

    /// Set accumulated TCP flags.
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        self.record.tcp_flags = flags;
        self
    }

    /// Set SNMP input/output interface indices.
    pub fn interfaces(mut self, input: u16, output: u16) -> Self {
        self.record.input_if = input;
        self.record.output_if = output;
        self
    }

    /// Set source/destination AS numbers.
    pub fn asns(mut self, src_as: u32, dst_as: u32) -> Self {
        self.record.src_as = src_as;
        self.record.dst_as = dst_as;
        self
    }

    /// Set the flow direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.record.direction = direction;
        self
    }

    /// Finalize the record.
    pub fn build(self) -> FlowRecord {
        let r = self.record;
        debug_assert!(r.end >= r.start, "flow ends before it starts");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Date;

    fn key() -> FlowKey {
        FlowKey {
            src_addr: Ipv4Addr::new(10, 1, 2, 3),
            dst_addr: Ipv4Addr::new(192, 0, 2, 9),
            src_port: 50_123,
            dst_port: 443,
            protocol: IpProtocol::Tcp,
        }
    }

    #[test]
    fn builder_defaults() {
        let t = Date::new(2020, 3, 1).at_hour(12);
        let r = FlowRecord::builder(key(), t).build();
        assert_eq!(r.bytes, 0);
        assert_eq!(r.direction, Direction::Unknown);
        assert_eq!(r.end, t);
    }

    #[test]
    fn builder_full() {
        let t = Date::new(2020, 3, 1).at_hour(12);
        let r = FlowRecord::builder(key(), t)
            .end(t.add_secs(30))
            .bytes(15_000)
            .packets(10)
            .tcp_flags(TcpFlags::complete_connection())
            .interfaces(4, 7)
            .asns(64_512, 15_169)
            .direction(Direction::Egress)
            .build();
        assert_eq!(r.end, t.add_secs(30));
        assert_eq!((r.bytes, r.packets), (15_000, 10));
        assert_eq!(r.tcp_flags, TcpFlags::complete_connection());
        assert_eq!((r.input_if, r.output_if), (4, 7));
        assert_eq!((r.src_as, r.dst_as), (64_512, 15_169));
        assert_eq!(r.direction, Direction::Egress);
    }

    #[test]
    fn hour_runs_split_at_the_hour_and_reassemble() {
        let d = Date::new(2020, 3, 25);
        let at = |t: Timestamp| FlowRecord::builder(key(), t).bytes(t.unix() % 97).build();
        assert_eq!(hour_runs(&[]).count(), 0);

        // xx:59:59 | xx+1:00:00 is a boundary; the seconds before it are not.
        let flows = [
            at(d.at_hour(9)),
            at(d.at_hour(9).add_secs(3_599)),
            at(d.at_hour(10)),
            at(d.at_hour(10).add_secs(1)),
            at(d.at_hour(9).add_secs(7)), // back to an earlier hour: a new run
            at(d.add_days(1).at_hour(9)), // same hour of day, next day
        ];
        let runs: Vec<HourRun<'_>> = hour_runs(&flows).collect();
        let lens: Vec<usize> = runs.iter().map(|r| r.records.len()).collect();
        assert_eq!(lens, [2, 2, 1, 1]);
        assert_eq!(runs[0].hour_start, d.at_hour(9));
        assert_eq!((runs[1].date, runs[1].hour), (d, 10));
        assert_eq!(runs[2].hour_start, d.at_hour(9));
        assert_eq!(runs[3].date, d.add_days(1));
        for run in &runs {
            assert_eq!(run.day_number, run.date.day_number());
            for r in run.records {
                assert_eq!(r.start.floor_hour(), run.hour_start);
            }
            let bytes: u64 = run.records.iter().map(|r| r.bytes).sum();
            assert_eq!(run.bytes, bytes);
        }
        let back: Vec<FlowRecord> = runs.iter().flat_map(|r| r.records).copied().collect();
        assert_eq!(back, flows);

        // One record is one run.
        let one: Vec<HourRun<'_>> = hour_runs(&flows[1..2]).collect();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].records, &flows[1..2]);
        assert_eq!((one[0].hour_start, one[0].hour), (d.at_hour(9), 9));
        assert_eq!(one[0].bytes, flows[1].bytes);
    }

    #[test]
    fn display_key() {
        assert_eq!(key().to_string(), "TCP 10.1.2.3:50123 -> 192.0.2.9:443");
    }
}
