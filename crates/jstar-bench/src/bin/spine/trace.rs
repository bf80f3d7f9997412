//! Spans recorded by the benchmark's own files around each call into a
//! layer. Only the driver thread records, so the tracer is a plain
//! in-memory vector, written out once when the run ends.

use crate::json::{obj, Json};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub iter: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans when enabled; a disabled tracer records nothing and
/// costs one branch per span, so the same job code serves the timed
/// (untraced) and the traced runs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// The iteration stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            iter: self.iter,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let depth = self.open.len();
        self.open.push(id);
        let r = f(self);
        // Closes this span and any descendant a caught panic unwound
        // past without closing.
        let now = self.origin.elapsed().as_nanos() as u64;
        for open in self.open.drain(depth..) {
            self.spans[open].end_ns = now;
        }
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Json::from(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("name", Json::from(s.name.as_str())),
                        ("workload", Json::from(workload)),
                        ("iter", Json::from(s.iter)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span: its duration minus the part its children cover.
/// Children of one parent never overlap (one recording thread), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Whether each span is, or lies inside, a span named `root`.
pub fn inside(spans: &[Span], root: &str) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    // A parent is opened, and so numbered, before its children.
    for (i, s) in spans.iter().enumerate() {
        inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
    }
    inside
}

/// Total and self time per span name, in first-seen order:
/// `(name, count, total_ns, self_ns)`.
pub fn by_name(spans: &[Span]) -> Vec<(String, usize, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(String, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let total = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own;
            }
            None => rows.push((s.name.clone(), 1, total, own)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            iter: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "run", 10, 70),
            span(2, Some(1), "inner", 20, 30),
            span(3, Some(0), "extract", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 10, 20]);
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("job".to_string(), 1, 100, 20));
        assert_eq!(rows[1], ("run".to_string(), 1, 60, 50));
    }

    #[test]
    fn inside_follows_ancestors_not_names() {
        let spans = vec![
            span(0, None, "setup", 0, 10),
            span(1, Some(0), "build_program", 1, 9),
            span(2, None, "job", 10, 30),
            span(3, Some(2), "build_program", 11, 15),
            span(4, Some(3), "inner", 12, 13),
        ];
        assert_eq!(inside(&spans, "job"), [false, false, true, true, true]);
    }

    #[test]
    fn a_caught_panic_leaves_no_span_open() {
        let mut t = Tracer::new(true);
        t.span("job", |t| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.span("run", |_| panic!("rule body"))
            }));
            assert!(caught.is_err());
        });
        t.span("next", |_| ());
        let s = t.spans();
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(s[2].parent, None, "the unwound span is not a parent");
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        let v = t.span("job", |t| t.span("run", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].iter, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("job", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
