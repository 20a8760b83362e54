//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time arithmetic that turns them into residuals.
//!
//! Spans live only in the benchmark: the program is driven through its
//! public functions and its HTTP surface, and each span brackets one such
//! call (a table pass, a cell, an instance's chain, a request). They are
//! kept in memory and written out as JSON lines when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary this span brackets (`cell`, `instance`, `poll`, …).
    pub name: &'static str,
    /// Identifier shared by every span of one cell or one job.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equal to `start_ns` while still open).
    pub end_ns: u64,
}

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// untraced runs pay nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Time spent inside the tracer itself (its own overhead).
    cost_ns: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span from `start` to `end`; returns its index (0
    /// when disabled).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let entered = Instant::now();
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(span);
        let index = spans.len() - 1;
        drop(spans);
        self.charge(entered);
        index
    }

    /// Opens a span at `start` whose end is set by [`close`](Self::close),
    /// so children recorded meanwhile can name it as their parent.
    pub fn open(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.record(name, id, parent, start, start)
    }

    /// Sets the end of a span opened with [`open`](Self::open).
    pub fn close(&self, index: usize, end: Instant) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let end_ns = self.ns(end);
        self.spans.lock().expect("span lock")[index].end_ns = end_ns;
        self.charge(entered);
    }

    fn charge(&self, entered: Instant) {
        self.cost_ns
            .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Time spent inside the tracer so far, in ns.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns.load(Ordering::Relaxed)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.lock().expect("span lock").iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.id, s.start_ns, s.end_ns
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))
    }
}

/// Total length covered by a set of half-open `[start, end)` intervals,
/// counting overlaps once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children cover (children are clipped to the span; overlapping children,
/// as with two worker threads, count once).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .collect();
    (hi - lo).saturating_sub(union_len(&clipped))
}

/// Sum of the self times of every span named `name`, over the children
/// named `child` that point at it.
pub fn layer_self_ns(spans: &[Span], name: &str, child: &str) -> u64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            let kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.name == child && c.parent == Some(i))
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            self_time((s.start_ns, s.end_ns), &kids)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(0, 30), (5, 10), (12, 14)]), 30);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0, "empty intervals ignored");
    }

    #[test]
    fn self_time_subtracts_covered_part() {
        // A 100 ns cell; two workers run instances [10,60) and [20,90):
        // the covered part is [10,90), so 20 ns is the cell's own.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 90)]), 20);
        // A child poking out of the parent is clipped to it.
        assert_eq!(self_time((0, 100), &[(90, 150)]), 90);
        assert_eq!(self_time((50, 100), &[(0, 10)]), 50);
        // Fully covered.
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn layer_residual_sums_over_parents() {
        let tracer = Tracer::new(true);
        let t0 = tracer.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let cell_a = tracer.open("cell", 1, None, at(0));
        tracer.record("instance", 1, Some(cell_a), at(10), at(60));
        tracer.record("instance", 1, Some(cell_a), at(20), at(90));
        tracer.close(cell_a, at(100));
        let cell_b = tracer.open("cell", 2, None, at(100));
        tracer.record("instance", 2, Some(cell_b), at(100), at(150));
        tracer.close(cell_b, at(160));
        let spans = tracer.spans();
        assert_eq!(layer_self_ns(&spans, "cell", "instance"), 20 + 10);
        assert_eq!(spans[cell_b].id, 2);
        assert!(tracer.cost_ns() > 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let now = Instant::now();
        let i = tracer.open("cell", 1, None, now);
        tracer.close(i, now);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.cost_ns(), 0);
    }
}
