//! In-memory spans recorded by the harness around its calls into the
//! library, and the per-layer self-time table built from them.
//!
//! Each thread owns a [`SpanLog`]; logs are merged when the thread ends
//! and written out once, after measurement. A disabled log records
//! nothing, so the untraced run pays one branch per call site. Spans of
//! requests are sampled, one trace id in [`SAMPLE_EVERY`], which keeps
//! the log small without biasing the per-span means.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans carrying a trace id are kept for one id in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `client.send`.
    pub name: &'static str,
    /// Request id the span belongs to (0 for non-request work).
    pub trace: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin.
    pub end_ns: u64,
}

/// A thread's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log; `enabled == false` records nothing.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]`; returns its index for use as a parent, or
    /// `None` when the log is disabled or `trace` is not sampled.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled || !trace.is_multiple_of(SAMPLE_EVERY) {
            return None;
        }
        let span = Span {
            name,
            trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Move the end of an earlier span (a request root is opened at its
    /// due time and closed when its response is parsed).
    pub fn close(&mut self, index: Option<usize>, end: Instant) {
        if let Some(i) = index {
            let end_ns = self.ns(end);
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Append another log (same origin), re-basing its parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Totals of one layer in the self-time table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part covered by
    /// child spans (ns).
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, in µs.
    pub fn self_us_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name totals and self times over a set of spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += duration;
        row.self_ns += duration.saturating_sub(covered);
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut log = SpanLog::new(origin, true);
        let root = log.record("request", SAMPLE_EVERY, None, at(0), at(0));
        // Overlapping children cover [10, 40]; a child leaking past the
        // parent is clipped.
        log.record("a", SAMPLE_EVERY, root, at(10), at(30));
        log.record("b", SAMPLE_EVERY, root, at(20), at(40));
        log.record("c", SAMPLE_EVERY, root, at(90), at(130));
        // An unsampled trace records nothing.
        assert_eq!(log.record("d", SAMPLE_EVERY + 1, None, at(0), at(1)), None);
        log.close(root, at(100));
        let table = self_times(log.spans());
        assert_eq!(table["request"].total_ns, 100_000);
        assert_eq!(table["request"].self_ns, 100_000 - 30_000 - 10_000);
        assert_eq!(table["a"].self_ns, 20_000);
        assert_eq!(table["c"].total_ns, 40_000);
    }

    #[test]
    fn disabled_logs_record_nothing_and_merge_rebases_parents() {
        let origin = Instant::now();
        let mut off = SpanLog::new(origin, false);
        assert_eq!(off.record("x", 0, None, origin, origin), None);
        assert!(off.spans().is_empty());

        let mut a = SpanLog::new(origin, true);
        a.record("x", 0, None, origin, origin);
        let mut b = SpanLog::new(origin, true);
        let p = b.record("y", 0, None, origin, origin);
        b.record("z", 0, p, origin, origin);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
