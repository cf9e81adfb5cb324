//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! program: a name, start and end in nanoseconds since the recorder was
//! made, and the span that caused it (workload → figure → cell → stage).
//! They stay in memory until the run ends and are then written as JSON
//! lines. A span's self time is its duration minus the part of that
//! interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name, e.g. `traffic.generate_cell`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records spans on one thread; the innermost open span is the parent of
/// the next one entered.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children are clipped to the parent and their
/// union is taken, so adjacent children add up and overlapping ones are
/// not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_are_subtracted_level_by_level() {
        let spans = [
            span("workload", 0, 100, None),
            span("figure", 10, 90, Some(0)),
            span("cell", 20, 60, Some(1)),
            span("stage", 30, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn adjacent_children_add_up() {
        let spans = [
            span("figure", 0, 100, None),
            span("cell", 0, 40, Some(0)),
            span("cell", 40, 70, Some(0)),
            span("cell", 80, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = [
            span("parent", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 60, Some(0)),
        ];
        // Clipped to [10, 50] the children cover the whole parent.
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn the_recorder_nests_by_entry_order() {
        let mut rec = Recorder::new();
        rec.enter("outer");
        for _ in 0..2 {
            rec.enter("inner");
            rec.exit();
        }
        rec.exit();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }
}
