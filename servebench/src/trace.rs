//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are kept in a vector while the replay runs and summarised at
//! exit; nothing is written while a span is open.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the recorder's
/// origin, the span that caused it, and the request it served.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer metric name, e.g. `format.parse_ms`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub request: u32,
}

/// Records spans; `span` calls nest like a call stack.
pub struct Recorder {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        };
        self.spans.push(span);
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    fn exit(&mut self) {
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Each span's self time in ns: its duration minus the part of its
/// interval that its children cover (children may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - union_len(kids, s.start, s.end))
        .collect()
}

/// Sum of self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        // Children cover [10, 60) and [80, 90): 60 ns of 100.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = vec![
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("a.inner", 5, 15, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 30);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut r = Recorder::new();
        r.set_request(7);
        r.span("outer", |r| r.span("inner", |_| ()));
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].request, 7);
        assert!(r.spans[0].end >= r.spans[1].end);
    }
}
