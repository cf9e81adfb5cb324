//! Sequence-tracking collector shards.
//!
//! Each shard wraps a [`Collector`] and adds what the base collector lacks:
//! per-source sequence accounting. NetFlow v5 sequence numbers count
//! *flows*, v9 counts *packets*, and IPFIX counts *data records* — the
//! tracker works in whichever unit the format defines and reports gaps,
//! duplicates and estimated record loss per observation domain.
//!
//! Datagrams that cannot be decoded yet (data sets before the template) are
//! buffered and replayed once a template arrives, so transient reordering
//! costs nothing. At session close, units still missing are converted into
//! an estimated record loss, and — when enabled — the accepted records are
//! renormalized so downstream aggregates degrade proportionally with loss
//! instead of silently undercounting.

use lockdown_flow::netflow::v9;
use lockdown_flow::prelude::*;

use crate::fleet::{DomainTruth, WireDatagram};
use std::collections::BTreeMap;

/// What a format's sequence numbers count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SequenceUnits {
    /// v5: the header sequence counts exported flows.
    Flows,
    /// v9: the header sequence counts exported packets.
    Packets,
    /// IPFIX: the header sequence counts exported data records.
    Records,
}

impl SequenceUnits {
    /// The unit a format's sequence field advances in.
    pub(crate) fn for_format(format: ExportFormat) -> SequenceUnits {
        match format {
            ExportFormat::NetflowV5 => SequenceUnits::Flows,
            ExportFormat::NetflowV9 => SequenceUnits::Packets,
            ExportFormat::Ipfix => SequenceUnits::Records,
        }
    }
}

/// Outcome of presenting one datagram's sequence range to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observation {
    /// In-order (or past a gap): accepted, advancing the session.
    New,
    /// Filled part of a previously missing range: accepted late.
    Late,
    /// Entirely inside already-accepted space: rejected as a duplicate.
    Duplicate,
    /// Partially overlaps accepted space: rejected as inconsistent.
    Anomaly,
}

/// Unwrapped position the first observed wire sequence `s` is pinned to:
/// `ANCHOR + s`. Keeping positions congruent to wire sequences mod 2^32
/// lets [`SequenceTracker::unwrap_near`] work directly on the low 32 bits,
/// and the 2^32 headroom means below-anchor arrivals (reordered session
/// heads, even just behind a wrap) never underflow position space.
const ANCHOR: u64 = 1 << 32;

/// Serial-number arithmetic window: a wire sequence within 2^31 ahead of
/// the reference is "forward", otherwise it is "behind" (RFC 1982 style).
const HALF_WRAP: u64 = 1 << 31;

/// Per-domain sequence accounting over half-open unit ranges, in the
/// native u32 width of the wire counter.
///
/// NetFlow/IPFIX sequence fields are 32-bit and wrap: a long-lived
/// exporter rolls from `u32::MAX - 10` to `5` as ordinary continuity, not
/// a four-billion-unit gap. The tracker therefore unwraps each observed
/// sequence into a monotone u64 *position* space using serial-number
/// arithmetic around the running session state, anchored at the first
/// datagram seen (exporters join mid-count; sessions do not start at 0).
/// `observe` classifies each datagram's `[seq, seq + units)` range and
/// `close` reconciles the session against the exporter's ground truth —
/// its first wire sequence and unwrapped unit total — converting unseen
/// head/tail ranges into gaps.
#[derive(Debug, Default)]
pub(crate) struct SequenceTracker {
    /// Position one past the highest accepted unit; `None` until anchored.
    expected: Option<u64>,
    /// Lowest accepted position (the session floor).
    low: u64,
    missing: BTreeMap<u64, u64>,
    gap_events: u64,
}

impl SequenceTracker {
    /// Resolve wire sequence `seq` to the unwrapped position nearest
    /// `reference`: forward if within 2^31 ahead, otherwise behind.
    /// `reference` is always `>= HALF_WRAP` (positions are anchored at
    /// [`ANCHOR`] and only ever lowered by `< 2^31`), so the backward
    /// branch cannot underflow.
    fn unwrap_near(reference: u64, seq: u32) -> u64 {
        let forward = u64::from(seq.wrapping_sub(reference as u32));
        if forward < HALF_WRAP {
            reference + forward
        } else {
            reference - u64::from((reference as u32).wrapping_sub(seq))
        }
    }

    /// Unwrapped position `seq` would resolve to right now (anchoring
    /// rule applied if the tracker is fresh). Used to order replay queues
    /// consistently across a wrap.
    pub(crate) fn position_hint(&self, seq: u32) -> u64 {
        match self.expected {
            Some(e) => Self::unwrap_near(e, seq),
            None => ANCHOR + u64::from(seq),
        }
    }

    /// Classify a datagram covering `[seq, seq + units)` in wire width.
    pub(crate) fn observe(&mut self, seq: u32, units: u64) -> Observation {
        let Some(expected) = self.expected else {
            let pos = ANCHOR + u64::from(seq);
            self.low = pos;
            self.expected = Some(pos + units);
            return Observation::New;
        };
        let pos = Self::unwrap_near(expected, seq);
        let end = pos + units;
        if pos == expected {
            self.expected = Some(end);
            return Observation::New;
        }
        if pos > expected {
            // Something in between never arrived (yet): open a gap.
            self.gap_events += 1;
            self.missing.insert(expected, pos);
            self.expected = Some(end);
            return Observation::New;
        }
        // pos < expected: before the anchor, a late fill, a duplicate, or
        // an inconsistency.
        if pos < self.low {
            if end <= self.low {
                // The session head arrived after a later datagram (e.g. an
                // adjacent reorder of the first two): accept it below the
                // floor, leaving any space in between as a gap.
                self.gap_events += 1;
                if end < self.low {
                    self.missing.insert(end, self.low);
                }
                self.low = pos;
                return Observation::New;
            }
            return Observation::Anomaly;
        }
        if end > expected {
            return Observation::Anomaly;
        }
        if let Some((&s, &e)) = self.missing.range(..=pos).next_back() {
            if pos >= s && end <= e && units > 0 {
                self.missing.remove(&s);
                if s < pos {
                    self.missing.insert(s, pos);
                }
                if end < e {
                    self.missing.insert(end, e);
                }
                return Observation::Late;
            }
        }
        // Ranges are disjoint and sorted, so checking the last range that
        // starts before `end` suffices for overlap detection.
        let overlaps = self
            .missing
            .range(..end)
            .next_back()
            .is_some_and(|(&s, &e)| e > pos && s < end);
        if overlaps {
            Observation::Anomaly
        } else {
            Observation::Duplicate
        }
    }

    /// Close the session against the exporter's ground truth: the wire
    /// sequence its first datagram carried and the unwrapped number of
    /// units it sent in total. Units before the anchor (lost session
    /// heads) and after the highest acceptance (lost tails) become gaps.
    /// If nothing was ever observed, the whole session is missing.
    pub(crate) fn close(&mut self, first_seq: u32, units_sent: u64) {
        let Some(expected) = self.expected else {
            if units_sent > 0 {
                let start = ANCHOR + u64::from(first_seq);
                self.gap_events += 1;
                self.missing.insert(start, start + units_sent);
                self.low = start;
                self.expected = Some(start + units_sent);
            }
            return;
        };
        let start = Self::unwrap_near(self.low, first_seq);
        if start < self.low {
            self.gap_events += 1;
            self.missing.insert(start, self.low);
            self.low = start;
        }
        let fin = start + units_sent;
        if fin > expected {
            self.gap_events += 1;
            self.missing.insert(expected, fin);
            self.expected = Some(fin);
        }
    }

    /// Units currently missing (gaps minus late fills).
    pub(crate) fn missing_units(&self) -> u64 {
        self.missing
            .values()
            .zip(self.missing.keys())
            .map(|(e, s)| e - s)
            .sum()
    }

    /// Gap events observed, including gaps later filled by late arrivals.
    pub(crate) fn gap_events(&self) -> u64 {
        self.gap_events
    }
}

/// Counter totals across everything a shard (or shard set) has seen.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardTotals {
    /// Datagrams presented.
    pub datagrams: u64,
    /// Structurally malformed datagrams rejected.
    pub malformed: u64,
    /// Data sets skipped because their template was unknown (first arrival
    /// only; replay attempts are not re-counted).
    pub missing_template_sets: u64,
    /// Datagrams buffered awaiting a template.
    pub buffered: u64,
    /// Duplicate datagrams rejected by sequence tracking.
    pub duplicates: u64,
    /// Sequence anomalies rejected (partial overlap with accepted space).
    pub anomalies: u64,
    /// Exporter restarts detected from boot-epoch shifts (v9 only).
    pub restarts_detected: u64,
    /// Sequence-gap events (counted at session close, transient included).
    pub sequence_gaps: u64,
    /// Records accepted.
    pub records_accepted: u64,
    /// Flow-record byte counters accepted (pre loss-renormalization).
    pub bytes_accepted: u64,
    /// Flow-record packet counters accepted (pre loss-renormalization).
    pub packets_accepted: u64,
    /// Ground-truth records (datagram tags) inside duplicate-rejected
    /// datagrams.
    pub records_duplicate: u64,
    /// Ground-truth records inside anomaly-rejected datagrams.
    pub records_anomalous: u64,
    /// Ground-truth records inside malformed datagrams.
    pub records_malformed: u64,
    /// Ground-truth records in accepted datagrams whose sets could not be
    /// decoded (template-missing shortfall inside mixed datagrams).
    pub records_undecoded: u64,
    /// Ground-truth records in buffered datagrams abandoned at close
    /// (their template never arrived).
    pub records_abandoned: u64,
    /// Distinct sequence units abandoned at close (duplicates of the same
    /// buffered datagram counted once — the unit of loss accounting).
    pub units_abandoned: u64,
    /// Estimated records lost, from missing units at session close.
    pub records_lost_est: u64,
    /// Records whose counters were scaled by loss-aware renormalization.
    pub records_renormalized: u64,
    /// Bytes added to accepted records by loss-aware renormalization.
    pub renorm_bytes_added: u64,
    /// Packets added to accepted records by loss-aware renormalization.
    pub renorm_packets_added: u64,
    /// Records whose renormalized counters clipped at the `u64::MAX`
    /// clamp (totals below them are a lower bound).
    pub renorm_clipped: u64,
}

impl ShardTotals {
    fn merge(&mut self, other: &ShardTotals) {
        self.datagrams += other.datagrams;
        self.malformed += other.malformed;
        self.missing_template_sets += other.missing_template_sets;
        self.buffered += other.buffered;
        self.duplicates += other.duplicates;
        self.anomalies += other.anomalies;
        self.restarts_detected += other.restarts_detected;
        self.sequence_gaps += other.sequence_gaps;
        self.records_accepted += other.records_accepted;
        self.bytes_accepted += other.bytes_accepted;
        self.packets_accepted += other.packets_accepted;
        self.records_duplicate += other.records_duplicate;
        self.records_anomalous += other.records_anomalous;
        self.records_malformed += other.records_malformed;
        self.records_undecoded += other.records_undecoded;
        self.records_abandoned += other.records_abandoned;
        self.units_abandoned += other.units_abandoned;
        self.records_lost_est += other.records_lost_est;
        self.records_renormalized += other.records_renormalized;
        self.renorm_bytes_added += other.renorm_bytes_added;
        self.renorm_packets_added += other.renorm_packets_added;
        self.renorm_clipped += other.renorm_clipped;
    }
}

/// Exporters whose boot epoch moves forward by more than this are treated
/// as restarted (small forward drift is just export-clock jitter).
const RESTART_EPOCH_TOLERANCE_MS: u64 = 1_500;

#[derive(Debug, Default)]
struct DomainSession {
    tracker: SequenceTracker,
    records: Vec<FlowRecord>,
    units_accepted: u64,
    /// Buffered undecodable datagrams: (wire sequence, ground-truth record
    /// tag, raw bytes).
    pending: Vec<(u32, u32, Vec<u8>)>,
    last_epoch_ms: Option<u64>,
}

/// One collector shard: a [`Collector`] extended with per-domain sequence
/// tracking, restart detection, replay buffering and loss estimation.
#[derive(Debug, Default)]
pub struct CollectorShard {
    units: Option<SequenceUnits>,
    inner: Collector,
    sessions: BTreeMap<u32, DomainSession>,
    totals: ShardTotals,
}

/// Present to the tracker the datagram whose records were decoded onto the
/// end of `session.records` (everything from `mark` on): accepted, they
/// stay where they are and are booked; a duplicate or an anomaly is cut
/// back off.
fn accept_into(
    session: &mut DomainSession,
    totals: &mut ShardTotals,
    seq: u32,
    units: u64,
    record_tag: u32,
    mark: usize,
) -> Observation {
    let obs = session.tracker.observe(seq, units);
    match obs {
        Observation::New | Observation::Late => {
            let recs = &session.records[mark..];
            session.units_accepted += units;
            totals.records_accepted += recs.len() as u64;
            totals.bytes_accepted += recs.iter().map(|r| r.bytes).sum::<u64>();
            totals.packets_accepted += recs.iter().map(|r| r.packets).sum::<u64>();
            // Mixed datagrams (some sets decodable, some template-less)
            // accept fewer records than the ground-truth tag says they
            // carry; the shortfall is accounted, not silently dropped.
            totals.records_undecoded += u64::from(record_tag).saturating_sub(recs.len() as u64);
        }
        Observation::Duplicate => {
            totals.duplicates += 1;
            totals.records_duplicate += u64::from(record_tag);
            session.records.truncate(mark);
        }
        Observation::Anomaly => {
            totals.anomalies += 1;
            totals.records_anomalous += u64::from(record_tag);
            session.records.truncate(mark);
        }
    }
    obs
}

/// Sequence units a datagram of `records` records advances the counter by.
fn units_of(units: Option<SequenceUnits>, records: u64) -> u64 {
    match units.unwrap_or(SequenceUnits::Records) {
        SequenceUnits::Flows | SequenceUnits::Records => records,
        SequenceUnits::Packets => 1,
    }
}

impl CollectorShard {
    /// A shard expecting datagrams of `format`.
    pub fn new(format: ExportFormat) -> CollectorShard {
        CollectorShard {
            units: Some(SequenceUnits::for_format(format)),
            ..CollectorShard::default()
        }
    }

    /// Ingest one delivered datagram.
    pub fn ingest(&mut self, dg: &WireDatagram) {
        self.ingest_impl(dg.domain, Some(dg.records), 0, &dg.bytes);
    }

    /// Ingest one datagram as received from a real socket.
    ///
    /// No ground-truth record tag rides along a real wire, so the tag is
    /// derived from the datagram itself: the decoded record count when it
    /// decodes, otherwise `claimed_records` from the header peek (exact
    /// for v5, an upper bound for v9, 0 for IPFIX). On the zero-loss path
    /// the derived tag equals the ground truth, so socket runs stay
    /// byte- and ledger-identical to the in-process loopback transport.
    pub(crate) fn ingest_bytes(&mut self, domain: u32, claimed_records: u32, bytes: &[u8]) {
        self.ingest_impl(domain, None, claimed_records, bytes);
    }

    fn ingest_impl(&mut self, domain: u32, truth_tag: Option<u32>, claimed: u32, bytes: &[u8]) {
        self.totals.datagrams += 1;

        // v9 restart detection must run *before* decoding: the stale
        // template cache is flushed so the restart packet's fresh template
        // announcement is learned cleanly. The boot-epoch estimate
        // `unix_ms - uptime_ms` is computed from the u32-ms uptime field,
        // so when the uptime clock wraps (every ~49.7 days) the estimate
        // jumps forward by exactly 2^32 ms even though the exporter never
        // rebooted. A jump congruent to a multiple of 2^32 ms (within the
        // export-clock jitter tolerance) is therefore a *wrap*, not a
        // restart — conflating the two flushes a perfectly good template
        // cache and miscounts a restart.
        if self.units == Some(SequenceUnits::Packets) {
            if let Ok(hdr) = v9::check(bytes) {
                let epoch =
                    (u64::from(hdr.unix_secs) * 1000).saturating_sub(u64::from(hdr.sys_uptime_ms));
                let session = self.sessions.entry(domain).or_default();
                match session.last_epoch_ms {
                    Some(prev) if epoch > prev + RESTART_EPOCH_TOLERANCE_MS => {
                        session.last_epoch_ms = Some(epoch);
                        let jump = epoch - prev;
                        let rem = jump % (1u64 << 32);
                        let near_wrap_multiple = rem <= RESTART_EPOCH_TOLERANCE_MS
                            || (1u64 << 32) - rem <= RESTART_EPOCH_TOLERANCE_MS;
                        if !near_wrap_multiple {
                            self.inner.forget_domain(domain);
                            self.totals.restarts_detected += 1;
                        }
                    }
                    Some(prev) if epoch > prev => session.last_epoch_ms = Some(epoch),
                    Some(_) => {}
                    None => session.last_epoch_ms = Some(epoch),
                }
            }
        }

        // Decode straight onto the end of the session's records; whatever
        // is not accepted below is cut back off.
        let session = self.sessions.entry(domain).or_default();
        let mark = session.records.len();
        let report = self.inner.ingest_into(bytes, &mut session.records);
        if !report.ok {
            self.totals.malformed += 1;
            self.totals.records_malformed += u64::from(truth_tag.unwrap_or(claimed));
            return;
        }
        let seq = report.sequence.unwrap_or(0);
        if report.missed_sets > 0 {
            self.totals.missing_template_sets += u64::from(report.missed_sets);
            if report.records == 0 {
                // Nothing decodable yet: buffer the raw datagram and retry
                // once a template arrives. The tracker is left untouched —
                // if the datagram is never resolved, its sequence range
                // surfaces as a gap and is counted as loss.
                session
                    .pending
                    .push((seq, truth_tag.unwrap_or(claimed), bytes.to_vec()));
                self.totals.buffered += 1;
                return;
            }
            // Mixed datagram: accept the decodable sets. The skipped sets'
            // units surface as a sequence gap at the next datagram, so the
            // lost-record estimate still covers them.
        }
        let units = units_of(self.units, report.records as u64);
        // Wire-side tag: what actually decoded. Undecoded shortfall inside
        // a mixed datagram is unknowable without ground truth; it surfaces
        // through the sequence gap (est_lost) instead of `undecoded`.
        let tag = truth_tag.unwrap_or(report.records as u32);
        accept_into(session, &mut self.totals, seq, units, tag, mark);
        self.try_replay(domain);
    }

    /// Retry buffered datagrams for `domain` until no further progress;
    /// each success may itself carry templates that unlock the next.
    fn try_replay(&mut self, domain: u32) {
        let Some(session) = self.sessions.get_mut(&domain) else {
            return;
        };
        while !session.pending.is_empty() {
            let mut pending = std::mem::take(&mut session.pending);
            // Replay in session order; raw u32 order would be wrong for a
            // queue straddling the sequence wrap.
            pending.sort_by_key(|&(seq, _, _)| session.tracker.position_hint(seq));
            let mut progressed = false;
            for (seq, record_tag, bytes) in pending {
                let mark = session.records.len();
                let report = self.inner.ingest_into(&bytes, &mut session.records);
                if report.ok && (report.missed_sets == 0 || report.records > 0) {
                    let units = units_of(self.units, report.records as u64);
                    accept_into(session, &mut self.totals, seq, units, record_tag, mark);
                    progressed = true;
                } else {
                    session.pending.push((seq, record_tag, bytes));
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Close one domain's session against the exporter's ground truth
    /// (first wire sequence and unwrapped units sent), returning the
    /// accepted (possibly renormalized) records.
    pub fn close_domain(&mut self, truth: &DomainTruth, renormalize: bool) -> Vec<FlowRecord> {
        let mut session = self.sessions.remove(&truth.domain).unwrap_or_default();
        // Buffered datagrams that never found their template are abandoned;
        // their ranges stay missing and count as loss. Records are counted
        // per datagram; units once per distinct sequence, so a duplicated
        // then abandoned datagram is not double-counted as loss.
        let mut abandoned: BTreeMap<u32, u32> = BTreeMap::new();
        for (seq, record_tag, _) in session.pending.drain(..) {
            self.totals.records_abandoned += u64::from(record_tag);
            abandoned.entry(seq).or_insert(record_tag);
        }
        for (_, record_tag) in abandoned {
            self.totals.units_abandoned += units_of(self.units, u64::from(record_tag));
        }
        session.tracker.close(truth.first_seq, truth.units_sent);
        self.totals.sequence_gaps += session.tracker.gap_events();
        let missing = session.tracker.missing_units();
        let accepted_records = session.records.len() as u64;
        let est_lost = match self.units.unwrap_or(SequenceUnits::Records) {
            SequenceUnits::Flows | SequenceUnits::Records => missing,
            // v9 units are packets: scale by the mean records per accepted
            // packet, falling back to one record per packet if nothing was
            // accepted.
            SequenceUnits::Packets if session.units_accepted > 0 => {
                (missing * accepted_records + session.units_accepted / 2) / session.units_accepted
            }
            SequenceUnits::Packets => missing,
        };
        self.totals.records_lost_est += est_lost;
        if renormalize && est_lost > 0 && accepted_records > 0 {
            let total = u128::from(accepted_records + est_lost);
            let accepted = u128::from(accepted_records);
            let cap = u128::from(u64::MAX);
            for r in &mut session.records {
                let bw = u128::from(r.bytes) * total / accepted;
                let pw = u128::from(r.packets) * total / accepted;
                if bw > cap || pw > cap {
                    self.totals.renorm_clipped += 1;
                }
                let b = bw.min(cap) as u64;
                let p = pw.min(cap) as u64;
                if b != r.bytes || p != r.packets {
                    self.totals.records_renormalized += 1;
                }
                self.totals.renorm_bytes_added += b - r.bytes;
                self.totals.renorm_packets_added += p - r.packets;
                r.bytes = b;
                r.packets = p;
            }
        }
        session.records
    }

    /// Counter totals so far (loss estimates appear after `close_domain`).
    pub fn totals(&self) -> ShardTotals {
        self.totals
    }
}

/// A set of shards with datagrams routed by observation domain.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<CollectorShard>,
}

impl ShardSet {
    /// `count` shards expecting `format` datagrams.
    pub fn new(count: usize, format: ExportFormat) -> ShardSet {
        assert!(count >= 1, "need at least one shard");
        ShardSet {
            shards: (0..count).map(|_| CollectorShard::new(format)).collect(),
        }
    }

    /// A set over shards that already ingested elsewhere (the collection
    /// daemon's workers own one shard each and hand them back at a cycle
    /// barrier). Shard `i` must have seen exactly the domains with
    /// `domain % len == i` — the same routing [`ShardSet::ingest`] applies.
    pub(crate) fn from_shards(shards: Vec<CollectorShard>) -> ShardSet {
        assert!(!shards.is_empty(), "need at least one shard");
        ShardSet { shards }
    }

    fn route(&mut self, domain: u32) -> &mut CollectorShard {
        let n = self.shards.len();
        &mut self.shards[domain as usize % n]
    }

    /// Route one delivered datagram to its shard.
    pub fn ingest(&mut self, dg: &WireDatagram) {
        self.route(dg.domain).ingest(dg);
    }

    /// Close every session against the fleet's per-domain ground truth.
    /// Records come back grouped by ascending domain, each domain's records
    /// in acceptance order — an ordering independent of the shard count.
    pub fn close(&mut self, sessions: &[DomainTruth], renormalize: bool) -> Vec<FlowRecord> {
        let mut sorted = sessions.to_vec();
        sorted.sort_unstable_by_key(|s| s.domain);
        let closed: Vec<Vec<FlowRecord>> = sorted
            .iter()
            .map(|truth| self.route(truth.domain).close_domain(truth, renormalize))
            .collect();
        let mut out = Vec::with_capacity(closed.iter().map(Vec::len).sum());
        for records in closed {
            out.extend(records);
        }
        out
    }

    /// Summed counter totals across all shards.
    pub fn totals(&self) -> ShardTotals {
        let mut t = ShardTotals::default();
        for s in &self.shards {
            t.merge(&s.totals());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_in_order_session_has_no_gaps() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(0, 10), Observation::New);
        assert_eq!(t.observe(10, 10), Observation::New);
        assert_eq!(t.observe(20, 5), Observation::New);
        t.close(0, 25);
        assert_eq!(t.missing_units(), 0);
        assert_eq!(t.gap_events(), 0);
    }

    #[test]
    fn tracker_gap_then_late_fill() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(0, 10), Observation::New);
        // Datagram [10, 20) delayed; [20, 30) arrives first.
        assert_eq!(t.observe(20, 10), Observation::New);
        assert_eq!(t.missing_units(), 10);
        assert_eq!(t.observe(10, 10), Observation::Late);
        assert_eq!(t.missing_units(), 0);
        t.close(0, 30);
        assert_eq!(t.missing_units(), 0);
        // The transient gap is still recorded as an event.
        assert_eq!(t.gap_events(), 1);
    }

    #[test]
    fn tracker_partial_fill_splits_range() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(0, 5), Observation::New);
        assert_eq!(t.observe(30, 5), Observation::New);
        // Fill the middle of the [5, 30) hole.
        assert_eq!(t.observe(10, 5), Observation::Late);
        assert_eq!(t.missing_units(), 20);
        assert_eq!(t.observe(5, 5), Observation::Late);
        assert_eq!(t.observe(15, 15), Observation::Late);
        assert_eq!(t.missing_units(), 0);
    }

    #[test]
    fn tracker_duplicates_and_anomalies() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(0, 10), Observation::New);
        assert_eq!(t.observe(0, 10), Observation::Duplicate);
        assert_eq!(t.observe(3, 4), Observation::Duplicate);
        // Extends beyond what was ever sent at this point.
        assert_eq!(t.observe(5, 10), Observation::Anomaly);
        // Straddles accepted space and a gap.
        assert_eq!(t.observe(20, 10), Observation::New);
        assert_eq!(t.observe(8, 4), Observation::Anomaly);
    }

    #[test]
    fn tracker_close_counts_tail_loss() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(0, 10), Observation::New);
        t.close(0, 40);
        assert_eq!(t.missing_units(), 30);
        assert_eq!(t.gap_events(), 1);
    }

    #[test]
    fn tracker_anchors_at_first_sequence_not_zero() {
        // Exporters joined mid-count do not start at 0: the range before
        // the ground-truth first sequence is not loss.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(1_000_000, 10), Observation::New);
        assert_eq!(t.observe(1_000_010, 10), Observation::New);
        t.close(1_000_000, 20);
        assert_eq!(t.missing_units(), 0);
        assert_eq!(t.gap_events(), 0);
    }

    #[test]
    fn tracker_wrap_is_continuity_not_a_gap() {
        // seq u32::MAX - 10 then the post-wrap successor is ordinary
        // continuity — the pre-fix tracker saw a ~4-billion-unit gap here.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(u32::MAX - 10, 11), Observation::New);
        assert_eq!(t.observe(0, 5), Observation::New);
        assert_eq!(t.observe(5, 5), Observation::New);
        t.close(u32::MAX - 10, 21);
        assert_eq!(t.missing_units(), 0);
        assert_eq!(t.gap_events(), 0);
    }

    #[test]
    fn tracker_gap_and_late_fill_across_the_wrap() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(u32::MAX - 5, 2), Observation::New);
        // The wrap-straddling datagram [MAX-3, 6) is delayed.
        assert_eq!(t.observe(6, 4), Observation::New);
        assert_eq!(t.missing_units(), 10);
        assert_eq!(t.observe(u32::MAX - 3, 10), Observation::Late);
        assert_eq!(t.missing_units(), 0);
        t.close(u32::MAX - 5, 16);
        assert_eq!(t.missing_units(), 0);
        assert_eq!(t.gap_events(), 1);
    }

    #[test]
    fn tracker_duplicate_across_the_wrap() {
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(u32::MAX - 10, 11), Observation::New);
        assert_eq!(t.observe(0, 5), Observation::New);
        assert_eq!(t.observe(u32::MAX - 10, 11), Observation::Duplicate);
        assert_eq!(t.observe(0, 5), Observation::Duplicate);
        // Straddling accepted space and beyond is still anomalous.
        assert_eq!(t.observe(2, 10), Observation::Anomaly);
    }

    #[test]
    fn tracker_close_counts_losses_around_the_wrap() {
        // Head datagram [MAX-10, 5) lost: only the post-wrap one arrives.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(4, 10), Observation::New);
        t.close(u32::MAX - 10, 25);
        assert_eq!(t.missing_units(), 15, "lost head straddling the wrap");
        assert_eq!(t.gap_events(), 1);

        // Tail lost across the wrap.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(u32::MAX - 10, 5), Observation::New);
        t.close(u32::MAX - 10, 40);
        assert_eq!(t.missing_units(), 35, "lost tail straddling the wrap");
    }

    #[test]
    fn tracker_reordered_head_is_accepted_below_the_anchor() {
        // Adjacent reorder swaps the first two datagrams; the true head
        // arrives second and lands below the anchor.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(10, 10), Observation::New);
        assert_eq!(t.observe(0, 10), Observation::New);
        t.close(0, 20);
        assert_eq!(t.missing_units(), 0);
        // The swap shows up as a (filled) gap event, same as before.
        assert_eq!(t.gap_events(), 1);

        // Same shape straddling the wrap.
        let mut t = SequenceTracker::default();
        assert_eq!(t.observe(2, 10), Observation::New);
        assert_eq!(t.observe(u32::MAX - 7, 10), Observation::New);
        t.close(u32::MAX - 7, 20);
        assert_eq!(t.missing_units(), 0);
    }

    #[test]
    fn tracker_nothing_observed_is_all_loss() {
        let mut t = SequenceTracker::default();
        t.close(u32::MAX - 3, 17);
        assert_eq!(t.missing_units(), 17);
        assert_eq!(t.gap_events(), 1);
    }
}
