//! In-memory spans recorded around calls into each layer, written out
//! when the run ends, and the self times derived from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `wire.encode` or `approxmc`.
    pub name: &'static str,
    /// Offset of the start from the log's epoch.
    pub start: Duration,
    /// Offset of the end (equal to `start` while open).
    pub end: Duration,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request the span belongs to (wire request id, or replay index).
    pub request: u64,
}

/// Spans of one thread, all relative to a shared epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    /// Recorded spans, in opening order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Open a span now and return its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.epoch.elapsed();
    }

    /// Drop the most recently opened span (a call that did no work).
    pub fn discard(&mut self, index: usize) {
        debug_assert_eq!(index + 1, self.spans.len());
        self.spans.truncate(index);
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        let s = &self.spans[span];
        (out, s.end - s.start)
    }

    /// Append another log's spans (same epoch), re-basing parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (calls, total seconds, self seconds). Self time is a
    /// span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = (span.end - span.start).as_secs_f64();
            let covered = covered(
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end)),
            );
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += (total - covered.as_secs_f64()).max(0.0);
        }
        out
    }

    /// One JSON object per line: name, start/end in µs, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.request
            );
        }
        out
    }
}

/// Length of the union of intervals.
fn covered(intervals: impl Iterator<Item = (Duration, Duration)>) -> Duration {
    let mut v: Vec<(Duration, Duration)> = intervals.collect();
    v.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in v {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ms = Duration::from_millis;
        let mut log = SpanLog::new(Instant::now());
        let span = |name, start, end, parent| Span {
            name,
            start: ms(start),
            end: ms(end),
            parent,
            request: 1,
        };
        log.spans.push(span("root", 0, 100, None));
        log.spans.push(span("a", 10, 40, Some(0)));
        log.spans.push(span("a", 30, 50, Some(0)));
        log.spans.push(span("b", 70, 80, Some(0)));
        let times = log.self_times();
        let (calls, total, own) = times["root"];
        assert_eq!(calls, 1);
        assert!((total - 0.1).abs() < 1e-9);
        assert!((own - 0.05).abs() < 1e-9, "self {own}");
        assert_eq!(times["a"].0, 2);
    }
}
