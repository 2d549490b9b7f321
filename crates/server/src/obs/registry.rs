//! The metrics registry: named counters, gauges and histograms, with
//! lock-free hot-path recording and a serializable snapshot.
//!
//! Registration (cold path) takes the registry mutex once and hands back
//! an `Arc` handle; recording through the handle is plain atomics. Names
//! follow the Prometheus convention, with labels spelled inline:
//! `upa_requests_total{op="release"}` — the text before `{` is the
//! metric family, so one family can carry many label sets and the
//! exposition emits a single `# TYPE` line per family.

use super::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The registry. Shared via `Arc`; see the module docs for the
/// naming/labeling convention.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Families>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// The metric family: the name up to the first `{`.
pub fn family(name: &str) -> &str {
    &name[..name.find('{').unwrap_or(name.len())]
}

/// Splices `label="value"` into an already-labeled (or bare) name.
fn with_label(name: &str, label: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{label}=\"{value}\"}}"),
        None => format!("{name}{{{label}=\"{value}\"}}"),
    }
}

/// Appends `suffix` to the family part, keeping any label set in place
/// (`upa_x{l="1"}` + `_sum` → `upa_x_sum{l="1"}`).
fn with_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{suffix}{}", &name[..i], &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// A frozen, serializable view of a [`Registry`] — also the wire body of
/// the `metrics` op, so scrapers get the identical structure the server
/// records into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Counter values by full (labeled) name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full (labeled) name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by full (labeled) name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Prometheus-style text exposition. Counters and gauges print one
    /// sample each; histograms print as summaries (p50/p90/p99
    /// `quantile` samples plus `_sum`/`_count`) rather than ~1000
    /// per-bucket lines.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let fam = family(name);
            if fam != last_family {
                out.push_str(&format!("# TYPE {fam} {kind}\n"));
                last_family = fam.to_string();
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, name, "summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{} {}\n",
                    with_label(name, "quantile", label),
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{} {}\n", with_suffix(name, "_sum"), h.sum));
            out.push_str(&format!("{} {}\n", with_suffix(name, "_count"), h.count));
        }
        out
    }
}

upa_json::body! {
    RegistrySnapshot { counters, gauges, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Body};

    #[test]
    fn handles_record_through_the_registry() {
        let r = Registry::new();
        let c = r.counter("upa_requests_total{op=\"release\"}");
        c.inc();
        c.add(2);
        r.gauge("upa_uptime_seconds").set(1.5);
        r.histogram("upa_release_latency_us").record(250);
        // A second lookup returns the same underlying metric.
        r.counter("upa_requests_total{op=\"release\"}").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters["upa_requests_total{op=\"release\"}"], 4);
        assert_eq!(snap.gauges["upa_uptime_seconds"], 1.5);
        assert_eq!(snap.histograms["upa_release_latency_us"].count, 1);
    }

    #[test]
    fn exposition_has_one_type_line_per_family() {
        let r = Registry::new();
        r.counter("upa_requests_total{op=\"ping\"}").inc();
        r.counter("upa_requests_total{op=\"release\"}").inc();
        r.gauge("upa_budget_epsilon_remaining{dataset=\"d\"}")
            .set(0.75);
        r.histogram("upa_release_latency_us").record(100);
        let text = r.snapshot().exposition();
        assert_eq!(text.matches("# TYPE upa_requests_total counter").count(), 1);
        assert!(text.contains("upa_requests_total{op=\"ping\"} 1"));
        assert!(text.contains("upa_budget_epsilon_remaining{dataset=\"d\"} 0.75"));
        assert!(text.contains("# TYPE upa_release_latency_us summary"));
        assert!(text.contains("upa_release_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("upa_release_latency_us_count 1"));
    }

    #[test]
    fn labeled_histogram_suffixes_keep_labels() {
        assert_eq!(with_suffix("upa_x{l=\"1\"}", "_sum"), "upa_x_sum{l=\"1\"}");
        assert_eq!(
            with_label("upa_x{l=\"1\"}", "quantile", "0.5"),
            "upa_x{l=\"1\",quantile=\"0.5\"}"
        );
        assert_eq!(family("upa_x{l=\"1\"}"), "upa_x");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let r = Registry::new();
        r.counter("c{a=\"b\"}").add(7);
        r.gauge("g").set(-2.5);
        let h = r.histogram("h");
        h.record(10);
        h.record(90_000);
        let snap = r.snapshot();
        let parsed = wire::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(RegistrySnapshot::take_fields(&parsed), Ok(snap));
    }
}
