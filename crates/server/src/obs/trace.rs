//! Per-request traces: one record per served request, carrying the
//! request ID assigned at accept and a span per serving stage
//! (queue-wait, coalesce-wait, engine-prepare, noise-draw,
//! ledger-fsync), with the engine's own [`StageSpan`] tree grafted
//! under an `engine/` prefix so a single record shows the whole
//! request from wire to noisy answer.
//!
//! A [`Trace`] is a cheap clone (an `Arc`): the connection thread
//! creates it and the request path records into it as the request
//! waits for a permit, prepares or coalesces, spends and draws. Span
//! offsets are measured from the trace's creation instant, so a
//! record's spans line up on one timeline. Finished records land in a
//! bounded ring ([`TraceStore`]) served by the `trace` wire op.

use dataflow::StageSpan;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed stage of a request, offset from the request's start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (`queue_wait`, `engine_prepare`, `noise_draw`, …).
    pub name: String,
    /// Microseconds from request start to stage start.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// A finished request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The request ID assigned at accept (`r-N`).
    pub request_id: String,
    /// The wire op (`prepare` or `release`).
    pub op: String,
    /// Target dataset.
    pub dataset: String,
    /// Query identity, once resolved (`dataset/kind/column`).
    pub query_id: String,
    /// `ok` or the refusal's error code.
    pub outcome: String,
    /// Wall time from accept to reply, in microseconds.
    pub total_us: u64,
    /// Server-side stages on the request's timeline.
    pub spans: Vec<TraceSpan>,
    /// The engine's audit span tree, rebased under `engine/`.
    pub engine: Vec<StageSpan>,
}

struct TraceBody {
    query_id: String,
    spans: Vec<TraceSpan>,
    engine: Vec<StageSpan>,
}

struct TraceInner {
    id: String,
    op: String,
    dataset: String,
    start: Instant,
    body: Mutex<TraceBody>,
}

/// A live, shareable trace under construction. Clones share state.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Trace {
    /// Starts a trace; the clock for every span offset starts now.
    pub fn new(id: impl Into<String>, op: impl Into<String>, dataset: impl Into<String>) -> Trace {
        Trace {
            inner: Arc::new(TraceInner {
                id: id.into(),
                op: op.into(),
                dataset: dataset.into(),
                start: Instant::now(),
                body: Mutex::new(TraceBody {
                    query_id: String::new(),
                    spans: Vec::new(),
                    engine: Vec::new(),
                }),
            }),
        }
    }

    /// The request ID.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Records a stage that started at `start` and just ended.
    pub fn span_since(&self, name: &str, start: Instant) {
        self.span(name, start, Instant::now());
    }

    /// Records a stage by its two endpoints.
    pub fn span(&self, name: &str, start: Instant, end: Instant) {
        let offset = start
            .checked_duration_since(self.inner.start)
            .unwrap_or_default();
        let dur = end.checked_duration_since(start).unwrap_or_default();
        let mut body = self.inner.body.lock().expect("trace poisoned");
        body.spans.push(TraceSpan {
            name: name.to_string(),
            start_us: offset.as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
    }

    /// Stamps the resolved query identity.
    pub fn set_query_id(&self, query_id: &str) {
        let mut body = self.inner.body.lock().expect("trace poisoned");
        if body.query_id.is_empty() {
            body.query_id = query_id.to_string();
        }
    }

    /// Grafts the engine's (already rebased) span tree under this trace.
    pub fn graft_engine(&self, spans: Vec<StageSpan>) {
        let mut body = self.inner.body.lock().expect("trace poisoned");
        body.engine = spans;
    }

    /// Freezes the trace into a record with the final outcome.
    pub fn finish(&self, outcome: &str) -> TraceRecord {
        let total_us = self.inner.start.elapsed().as_micros() as u64;
        let body = self.inner.body.lock().expect("trace poisoned");
        TraceRecord {
            request_id: self.inner.id.clone(),
            op: self.inner.op.clone(),
            dataset: self.inner.dataset.clone(),
            query_id: body.query_id.clone(),
            outcome: outcome.to_string(),
            total_us,
            spans: body.spans.clone(),
            engine: body.engine.clone(),
        }
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("id", &self.inner.id).finish()
    }
}

impl TraceRecord {
    /// The named span, if recorded.
    pub fn span(&self, name: &str) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

upa_json::body! {
    TraceSpan { name, start_us, dur_us }
    TraceRecord { request_id, op, dataset, query_id, outcome, total_us, spans, engine }
}

/// A bounded ring of finished traces, oldest evicted first.
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl TraceStore {
    /// A store keeping at most `capacity` records.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Adds a finished record, evicting the oldest at capacity.
    pub fn push(&self, record: TraceRecord) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The record with `request_id`, if still retained.
    pub fn find(&self, request_id: &str) -> Option<TraceRecord> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .rev()
            .find(|r| r.request_id == request_id)
            .cloned()
    }

    /// The most recent `last` records, oldest first.
    pub fn recent(&self, last: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let skip = ring.len().saturating_sub(last);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Body};
    use std::time::Duration;

    #[test]
    fn spans_land_on_one_timeline() {
        let t = Trace::new("r-1", "release", "data");
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.span_since("queue_wait", start);
        t.set_query_id("data/sum/v");
        let record = t.finish("ok");
        assert_eq!(record.request_id, "r-1");
        assert_eq!(record.query_id, "data/sum/v");
        let span = record.span("queue_wait").expect("span recorded");
        assert!(span.dur_us >= 1_000, "slept ≥2ms, recorded {}", span.dur_us);
        assert!(record.total_us >= span.dur_us);
    }

    #[test]
    fn record_json_round_trips() {
        let t = Trace::new("r-7", "release", "data");
        t.span("noise_draw", Instant::now(), Instant::now());
        t.set_query_id("data/mean/v");
        t.graft_engine(vec![StageSpan {
            name: "sample".into(),
            path: "engine/prepare/sample".into(),
            depth: 2,
            nanos: 42,
            records: 10,
            calls: 1,
        }]);
        let record = t.finish("ok");
        let parsed = wire::parse(&record.to_json()).expect("valid JSON");
        assert_eq!(TraceRecord::take_fields(&parsed), Ok(record));
    }

    #[test]
    fn store_bounds_and_finds() {
        let store = TraceStore::new(2);
        for i in 0..3 {
            store.push(Trace::new(format!("r-{i}"), "release", "d").finish("ok"));
        }
        assert_eq!(store.len(), 2);
        assert!(store.find("r-0").is_none(), "oldest evicted");
        assert!(store.find("r-2").is_some());
        let recent = store.recent(1);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].request_id, "r-2");
    }
}
