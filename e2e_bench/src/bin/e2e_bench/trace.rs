//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded around calls into each layer's public API from the
//! benchmark's own code (name, start, end, parent) and written out once the
//! run ends; nothing is traced inside the library.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or stage name.
    pub name: String,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one monotonic clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// `instant` on this tracer's clock.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64()
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. Returns the span's index with `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (usize, T) {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        (idx, out)
    }

    /// Add an already-measured span (also how tests build span trees).
    pub fn record(&mut self, name: &str, start: f64, end: f64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Duration of span `idx`.
    pub fn duration(&self, idx: usize) -> f64 {
        self.spans[idx].duration()
    }

    /// Self time of span `idx`: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_time(&self, idx: usize) -> f64 {
        let parent = &self.spans[idx];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in kids {
            let from = a.max(reach);
            if b > from {
                covered += b - from;
            }
            reach = reach.max(b);
        }
        parent.duration() - covered
    }

    /// Share of span `idx` covered by its children (1 − self / duration).
    pub fn coverage(&self, idx: usize) -> f64 {
        let d = self.duration(idx);
        if d <= 0.0 {
            return 1.0;
        }
        1.0 - self.self_time(idx) / d
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// The spans as a JSON array of `{name, start, end, parent, self}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"self\": {:.9}}}",
                s.name,
                s.start,
                s.end,
                self.self_time(i)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.record("root", 0.0, 10.0, None);
        t.record("a", 1.0, 3.0, Some(root));
        t.record("b", 2.0, 5.0, Some(root)); // overlaps a: [1, 5] counts once
        let c = t.record("c", 7.0, 8.0, Some(root));
        t.record("grandchild", 7.0, 7.5, Some(c)); // not a direct child of root
        assert!((t.self_time(root) - 5.0).abs() < 1e-12);
        assert!((t.self_time(c) - 0.5).abs() < 1e-12);
        assert!((t.coverage(root) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Tracer::new();
        let root = t.record("root", 2.0, 4.0, None);
        t.record("early", 0.0, 3.0, Some(root));
        assert!((t.self_time(root) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents_and_totals() {
        let mut t = Tracer::new();
        let (outer, inner) = t.span("outer", |t| t.span("inner", |_| 7).0);
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert_eq!(t.spans[outer].parent, None);
        assert!(t.self_time(outer) <= t.duration(outer));
        assert_eq!(t.durations("inner").len(), 1);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
