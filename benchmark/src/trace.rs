//! Spans recorded from the benchmark's own side of each layer boundary:
//! kept in memory during the traced run, written out once at the end.

use crate::json::Json;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`wire.parse_request`, `state.spend`, …).
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the span's end.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to; spans of one request share it.
    pub op_id: u64,
}

/// Records spans, or — disabled — runs the same closures untimed, which is
/// how the tracing overhead is measured on an identical loop.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Median self time per span name, µs.
pub fn median_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut grouped: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        grouped.entry(span.name).or_default().push(ns as f64 / 1e3);
    }
    grouped
        .into_iter()
        .map(|(name, us)| (name, median(&us)))
        .collect()
}

/// The trace file's document.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("op_id", s.op_id)
        })
        .collect::<Vec<_>>();
    Json::obj().with("workload", workload).with("spans", rows)
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
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 5, 25, Some(0)),
            span("release", 30, 90, Some(0)),
            span("noise", 40, 50, Some(2)),
        ];
        // Grandchildren come off their parent only, not the root.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let layers = median_self_us(&spans);
        assert_eq!(layers["release"], 0.05);
        assert_eq!(layers.len(), 4);
    }

    #[test]
    fn nesting_follows_the_call_tree() {
        let mut t = Tracer::new(true);
        let out = t.span("request", 7, |t| {
            t.span("parse", 7, |_| 1) + t.span("release", 7, |t| t.span("noise", 7, |_| 2))
        });
        assert_eq!(out, 3);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("request", None),
                ("parse", Some(0)),
                ("release", Some(0)),
                ("noise", Some(2))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op_id == 7));
        let root = &t.spans()[0];
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("request", 0, |t| t.span("parse", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
