//! Versioned wire codec for consumer state.
//!
//! Every [`FlowConsumer`] carries this codec, and it is the consumer's
//! one way out: each engine thread but the first serializes its column
//! once when a pass ends, a shard worker serializes each cell slice it
//! runs, and the pass decodes every partial into the first column
//! through the consumer's [`FlowConsumer::merge_state`], its one merge.
//! The encoding therefore has exactly two jobs:
//!
//! * **Determinism.** The same state encodes to the same bytes whatever
//!   the insertion order — hash maps and sets are emitted in sorted key
//!   order — so a coordinator can compare or replay frames byte for byte.
//! * **Loud failure.** Every frame carries a version, a consumer tag and
//!   a CRC-32 trailer over everything before it. A single flipped byte
//!   anywhere in the frame fails the CRC, and every decode error names
//!   the consumer the *caller* expected (never the possibly-corrupt tag
//!   byte inside the frame), so a mis-routed or damaged frame is
//!   attributable from the error string alone.
//!
//! Constructor parameters — classifier handles, regions, eyeball ASNs,
//! calibration dates — are deliberately *not* serialized: both sides of a
//! shard run build identical engine plans, so the receiving consumer is
//! factory-built with the right parameters and the frame carries only the
//! mergeable accumulator state.

use crate::consumer::FlowConsumer;
use lockdown_base::crc::crc32;
use lockdown_flow::wire::{Cursor, PutBe, WireError, WireResult};
use std::fmt;

/// Current state-frame format version.
pub(crate) const STATE_VERSION: u16 = 1;

/// Fixed frame overhead: version (2) + tag (1) + payload length (4) +
/// CRC-32 trailer (4).
pub(crate) const FRAME_OVERHEAD: usize = 11;

/// Stable identity of one consumer's serialized state: a tag byte on the
/// wire plus the human-readable name decode errors carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerTag {
    /// Tag byte recorded in the frame header.
    pub id: u8,
    /// Name used in error attribution.
    pub name: &'static str,
}

/// [`crate::timeseries::HourlyVolume`] state.
pub(crate) const TAG_HOURLY_VOLUME: ConsumerTag = ConsumerTag {
    id: 1,
    name: "HourlyVolume",
};
/// [`crate::edu::EduAnalysis`] state.
pub(crate) const TAG_EDU_ANALYSIS: ConsumerTag = ConsumerTag {
    id: 2,
    name: "EduAnalysis",
};
/// [`crate::consumer::PortConsumer`] state.
pub(crate) const TAG_PORT_CONSUMER: ConsumerTag = ConsumerTag {
    id: 3,
    name: "PortConsumer",
};
/// [`crate::consumer::HypergiantConsumer`] state.
pub(crate) const TAG_HYPERGIANT_CONSUMER: ConsumerTag = ConsumerTag {
    id: 4,
    name: "HypergiantConsumer",
};
/// [`crate::consumer::AsTotalsConsumer`] state.
pub(crate) const TAG_AS_TOTALS_CONSUMER: ConsumerTag = ConsumerTag {
    id: 5,
    name: "AsTotalsConsumer",
};
/// [`crate::consumer::HeatmapConsumer`] state.
pub(crate) const TAG_HEATMAP_CONSUMER: ConsumerTag = ConsumerTag {
    id: 6,
    name: "HeatmapConsumer",
};
/// [`crate::consumer::ClassUsageConsumer`] state.
pub(crate) const TAG_CLASS_USAGE_CONSUMER: ConsumerTag = ConsumerTag {
    id: 7,
    name: "ClassUsageConsumer",
};
/// [`crate::linkutil::AsHourly`] state.
pub(crate) const TAG_AS_HOURLY: ConsumerTag = ConsumerTag {
    id: 8,
    name: "AsHourly",
};
/// `lockdown-core`'s Fig. 10 VPN week consumer state.
pub const TAG_VPN_WEEK: ConsumerTag = ConsumerTag {
    id: 9,
    name: "VpnWeekConsumer",
};
/// `lockdown-core`'s §7 hourly-origins consumer state.
pub const TAG_HOURLY_ORIGINS: ConsumerTag = ConsumerTag {
    id: 10,
    name: "OriginsConsumer",
};

/// Name of a known tag byte (`"unknown"` otherwise) — makes mis-routed
/// frame errors attributable from both ends.
pub(crate) fn tag_name(id: u8) -> &'static str {
    [
        TAG_HOURLY_VOLUME,
        TAG_EDU_ANALYSIS,
        TAG_PORT_CONSUMER,
        TAG_HYPERGIANT_CONSUMER,
        TAG_AS_TOTALS_CONSUMER,
        TAG_HEATMAP_CONSUMER,
        TAG_CLASS_USAGE_CONSUMER,
        TAG_AS_HOURLY,
        TAG_VPN_WEEK,
        TAG_HOURLY_ORIGINS,
    ]
    .iter()
    .find(|t| t.id == id)
    .map(|t| t.name)
    .unwrap_or("unknown")
}

/// A failed state decode, attributed to the consumer the caller expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Name of the consumer whose state was being decoded.
    pub consumer: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "consumer state [{}]: {}", self.consumer, self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Append an `i64`, big-endian two's complement.
pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a strict boolean byte (0 or 1).
pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Sequential reader over one frame's payload: the flow codecs' byte
/// [`Cursor`], with every error it produces naming the expected consumer.
#[derive(Debug)]
pub struct StateReader<'a> {
    consumer: &'static str,
    cur: Cursor<'a>,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, attributing errors to `consumer`.
    pub(crate) fn new(consumer: &'static str, buf: &'a [u8]) -> StateReader<'a> {
        StateReader {
            consumer,
            cur: Cursor::new(buf),
        }
    }

    /// Build an error attributed to this reader's consumer.
    pub(crate) fn error(&self, detail: impl Into<String>) -> CodecError {
        CodecError {
            consumer: self.consumer,
            detail: detail.into(),
        }
    }

    /// Unread bytes.
    pub(crate) fn remaining(&self) -> usize {
        self.cur.remaining()
    }

    /// Read through the cursor, attributing its error to this reader's
    /// consumer.
    fn read<T>(
        &mut self,
        read: impl FnOnce(&mut Cursor<'a>) -> WireResult<T>,
    ) -> Result<T, CodecError> {
        read(&mut self.cur).map_err(|e| match e {
            WireError::Truncated { what, needed } => self.error(format!(
                "truncated {what}: need {} bytes, have {}",
                needed + self.remaining(),
                self.remaining()
            )),
            other => self.error(other.to_string()),
        })
    }

    /// Read one byte.
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        self.read(|cur| cur.read_u8(what))
    }

    /// Read a big-endian `u16`.
    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        self.read(|cur| cur.read_u16(what))
    }

    /// Read a big-endian `u32`.
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.read(|cur| cur.read_u32(what))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.read(|cur| cur.read_u64(what))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        self.read(|cur| cur.read_bytes(n, what))
    }

    /// Read a big-endian two's-complement `i64`.
    pub(crate) fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(self.u64(what)? as i64)
    }

    /// Read a strict boolean byte (anything but 0/1 is corruption).
    pub(crate) fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format!("bad boolean {what}: {other}"))),
        }
    }

    /// Read a `u64` length prefix, sanity-bounded by what the remaining
    /// bytes could possibly hold (`min_entry` bytes per entry).
    pub(crate) fn len(
        &mut self,
        what: &'static str,
        min_entry: usize,
    ) -> Result<usize, CodecError> {
        let n = self.u64(what)?;
        self.read(|cur| cur.fit(n, min_entry, what))
    }
}

/// Serialize one consumer's state as a self-checking frame:
/// `version ‖ tag ‖ payload-length ‖ payload ‖ CRC-32`.
pub fn encode_frame<C: FlowConsumer + ?Sized>(consumer: &C) -> Vec<u8> {
    let tag = consumer.state_tag();
    let mut buf = Vec::with_capacity(64);
    buf.put_u16_be(STATE_VERSION);
    buf.push(tag.id);
    let len_at = buf.len();
    buf.put_u32_be(0); // patched below
    consumer.encode_state(&mut buf);
    let payload_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&payload_len.to_be_bytes());
    let crc = crc32(&buf);
    buf.put_u32_be(crc);
    buf
}

/// Decode a state frame and merge it into `consumer`. The frame must
/// carry `consumer`'s own tag — errors always name the consumer the
/// caller expected, which survives corruption of the frame's tag byte.
pub fn merge_frame<C: FlowConsumer + ?Sized>(
    consumer: &mut C,
    frame: &[u8],
) -> Result<(), CodecError> {
    let expected = consumer.state_tag();
    let err = |detail: String| CodecError {
        consumer: expected.name,
        detail,
    };
    if frame.len() < FRAME_OVERHEAD {
        return Err(err(format!(
            "frame is {} bytes, shorter than header + CRC",
            frame.len()
        )));
    }
    let crc_at = frame.len() - 4;
    let stored = u32::from_be_bytes(frame[crc_at..].try_into().expect("4 bytes"));
    let actual = crc32(&frame[..crc_at]);
    if stored != actual {
        return Err(err(format!(
            "state frame CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let version = u16::from_be_bytes(frame[0..2].try_into().expect("2 bytes"));
    if version != STATE_VERSION {
        return Err(err(format!(
            "unsupported state version {version} (expected {STATE_VERSION})"
        )));
    }
    let tag = frame[2];
    if tag != expected.id {
        return Err(err(format!(
            "frame carries {} state (tag {tag}), expected {} (tag {})",
            tag_name(tag),
            expected.name,
            expected.id
        )));
    }
    let payload_len = u32::from_be_bytes(frame[3..7].try_into().expect("4 bytes")) as usize;
    let payload = &frame[7..crc_at];
    if payload.len() != payload_len {
        return Err(err(format!(
            "payload length {} does not match header claim {payload_len}",
            payload.len()
        )));
    }
    let mut r = StateReader::new(expected.name, payload);
    consumer.merge_state(&mut r)?;
    if r.remaining() != 0 {
        return Err(err(format!(
            "{} trailing bytes after consumer state",
            r.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::timeseries::HourlyVolume;
    use lockdown_flow::record::HourRun;
    use lockdown_flow::time::Date;

    /// A state written byte by byte under a consumer's tag, framed like
    /// that consumer's own; merging one appends its payload.
    pub(crate) struct Crafted(pub(crate) ConsumerTag, pub(crate) Vec<u8>);

    impl FlowConsumer for Crafted {
        fn observe_run(&mut self, _: &HourRun<'_>) {}

        fn state_tag(&self) -> ConsumerTag {
            self.0
        }

        fn encode_state(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.1);
        }

        fn merge_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
            let payload = r.bytes(r.remaining(), "crafted state")?;
            self.1.extend_from_slice(payload);
            Ok(())
        }
    }

    #[test]
    fn frame_roundtrips_and_any_flipped_byte_fails_named() {
        let mut v = HourlyVolume::new();
        v.add_bytes(Date::new(2020, 3, 25).at_hour(9), 1_234);
        v.add_bytes(Date::new(2020, 3, 26).at_hour(0), 7);
        let frame = encode_frame(&v);

        let mut back = HourlyVolume::new();
        merge_frame(&mut back, &frame).expect("clean frame decodes");
        assert_eq!(back.get(Date::new(2020, 3, 25), 9), 1_234);

        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let mut sink = HourlyVolume::new();
            let e =
                merge_frame(&mut sink, &bad).expect_err("one flipped byte must fail the decode");
            assert_eq!(e.consumer, "HourlyVolume", "flip at byte {i}: {e}");
        }
    }

    #[test]
    fn short_and_empty_frames_fail_named() {
        let mut sink = HourlyVolume::new();
        let e = merge_frame(&mut sink, &[]).unwrap_err();
        assert_eq!(e.consumer, "HourlyVolume");
        assert!(e.to_string().contains("HourlyVolume"), "{e}");
    }
}
