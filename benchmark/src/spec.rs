//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root mirrors these tables (a unit test compares the two), and every
//! report is assembled through [`MetricSet`], which refuses a name that is
//! not declared here.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// One workload and why it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Permanent name.
    pub name: &'static str,
    /// One-line reason, as recorded in `BENCHMARK.json`.
    pub why: &'static str,
}

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve_warm",
        why: "6 cached keys, closed loop of 2 clients: wire, state fast path, Laplace draw and ledger group-commit do all the work; scans do none",
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "16 keys cycled through a 4-entry cache: every release is a cold columnar prepare, first release and enforcer pass; wire and ledger are noise",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "Zipf(1.1) over 48 keys on 2 datasets, 16-entry cache, every other request through the scheduler: hits wait behind misses on the engine lock",
    },
    WorkloadSpec {
        name: "paper_suite",
        why: "the nine paper queries through run_plain and run_upa, no server: the row path, joinDP and shuffles that no serving workload touches",
    },
];

/// The nine paper queries, as `EvalQuery::name` prints them.
pub const PAPER_QUERIES: [&str; 9] = [
    "TPCH1",
    "TPCH4",
    "TPCH6",
    "TPCH11",
    "TPCH13",
    "TPCH16",
    "TPCH21",
    "KMeans",
    "LinearRegression",
];

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end metrics: what a caller of the system sees. Every
/// workload reports every one of them, and none is ever 0.
///
/// The tail is the 90th percentile: the highest one with at least ten
/// samples beyond it in every serving trial (`serve_cold` has 165
/// releases per client and trial), and the 99th, at 0.21–0.22 run-to-run
/// spread on `serve_warm`, could not hold any bound the contract allows.
/// The 99th is still reported, as the layer metric `serve.p99_us`.
///
/// An "operation" is one `release` round trip on the serving workloads
/// and one pass of the nine queries through `run_upa` on `paper_suite`.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    vec![
        e2e("qps", "1/s", Higher, 0.25),
        e2e("p50_us", "us", Lower, 0.25),
        e2e("p90_us", "us", Lower, 0.25),
        e2e("peak_rss_mb", "MB", Lower, 0.10),
        e2e("setup_s", "s", Lower, 0.25),
    ]
}

/// The per-layer metrics, reported by the traced run. A metric that does
/// not apply to a workload (or a scraped name the daemon no longer
/// exports) is reported as 0 there, never left out.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let fixed: &[(&str, &'static str, Better)] = &[
        // client / wire / proto
        ("client.ping_rtt_us", "us", Lower),
        ("wire.parse_request_us", "us", Lower),
        ("wire.encode_response_us", "us", Lower),
        ("wire.parse_response_us", "us", Lower),
        // state
        ("state.cache_lookup_us", "us", Lower),
        ("state.spend_us", "us", Lower),
        ("state.release_warm_us", "us", Lower),
        ("state.prepare_cold_us", "us", Lower),
        ("state.cache_hit_rate", "ratio", Higher),
        ("state.cache_evictions", "count", Lower),
        ("state.fastpath_hits", "count", Higher),
        // sched
        ("sched.queue_wait_p50_us", "us", Lower),
        ("sched.queue_wait_p99_us", "us", Lower),
        ("sched.coalesce_rate", "ratio", Higher),
        ("sched.busy_rejected", "count", Lower),
        ("sched.peak_queued", "count", Lower),
        // ledger
        ("ledger.append_fsync_us", "us", Lower),
        ("ledger.submit_us", "us", Lower),
        ("ledger.batch_size_p50", "count", Higher),
        ("ledger.fsyncs_per_release", "ratio", Lower),
        ("ledger.commit_wait_p50_us", "us", Lower),
        ("ledger.commit_wait_p99_us", "us", Lower),
        ("ledger.replay_records_per_s", "1/s", Higher),
        ("ledger.bytes_per_release", "bytes", Lower),
        ("ledger.restart_s", "s", Lower),
        // core
        ("core.prepare_columnar_us", "us", Lower),
        ("core.prepare_row_us", "us", Lower),
        ("core.release_first_us", "us", Lower),
        ("core.release_cached_us", "us", Lower),
        ("core.enforce_us_per_1k_history", "us", Lower),
        ("server.rss_growth_bytes_per_release", "bytes", Lower),
        // stats
        ("stats.laplace_draw_ns", "ns", Lower),
        ("stats.normal_mle_us", "us", Lower),
        // dataflow
        ("dataflow.columnar_scan_mb_per_s", "MB/s", Higher),
        ("roofline.slice_sum_mb_per_s", "MB/s", Higher),
        ("roofline.memcpy_mb_per_s", "MB/s", Higher),
        ("dataflow.scan_roofline_frac", "ratio", Higher),
        ("dataflow.stages", "count", Lower),
        ("dataflow.shuffles", "count", Lower),
        ("dataflow.shuffle_bytes", "bytes", Lower),
        ("dataflow.shuffle_time_share", "ratio", Lower),
        // store
        ("store.ingest_mb_per_s", "MB/s", Higher),
        ("store.attach_mb_per_s", "MB/s", Higher),
        ("store.chunk_decode_mb_per_s", "MB/s", Higher),
        ("store.manifest_parse_us", "us", Lower),
        ("store.disk_bytes_per_user_byte", "ratio", Lower),
        // serving figures that only some workloads have
        ("serve.p99_us", "us", Lower),
        ("serve.hit_p99_us", "us", Lower),
        ("serve.miss_p50_us", "us", Lower),
        ("serve.fail_rate", "ratio", Lower),
        // paper (Fig. 2a / 2b)
        ("paper.suite_upa_s", "s", Lower),
        ("paper.suite_vanilla_s", "s", Lower),
        ("paper.overhead_x", "x", Lower),
        ("paper.sens_rel_rmse", "ratio", Lower),
        // reconciliation
        ("residual.serve_warm_us", "us", Lower),
        ("residual.serve_warm_frac", "ratio", Lower),
        ("residual.serve_cold_us", "us", Lower),
        ("residual.serve_cold_frac", "ratio", Lower),
        ("trace.overhead_frac", "ratio", Lower),
        ("trace.share_ledger_wire", "ratio", Higher),
        ("trace.share_core_dataflow", "ratio", Higher),
        ("workload.sequence_fnv", "count", Higher),
    ];
    let mut specs: Vec<MetricSpec> = fixed
        .iter()
        .map(|&(name, unit, better)| MetricSpec {
            name: name.to_string(),
            unit,
            better,
            bound: None,
        })
        .collect();
    for (family, unit) in [
        ("paper.upa_ms", "ms"),
        ("paper.vanilla_ms", "ms"),
        ("paper.sens_rel_rmse", "ratio"),
    ] {
        for query in PAPER_QUERIES {
            specs.push(MetricSpec {
                name: format!("{family}.{query}"),
                unit,
                better: Lower,
                bound: None,
            });
        }
    }
    specs
}

/// How long one run measures, as `BENCHMARK.json` states it. The frozen
/// operation counts are per requested second, sized at this length.
pub const RUN_SECONDS: u64 = 15;

/// The whole of `BENCHMARK.json`, from the tables above: `upa-benchmark
/// spec > BENCHMARK.json` regenerates the file after a table changes.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| {
        let entry = Json::obj()
            .with("name", m.name.as_str())
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        match m.bound {
            Some(bound) => entry.with("bound", bound),
            None => entry,
        }
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let sections = [
        (
            "command",
            Json::from(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::from(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        ("workloads", Json::from(workloads)),
        (
            "end_to_end",
            Json::from(end_to_end().iter().map(metric).collect::<Vec<_>>()),
        ),
        (
            "per_layer",
            Json::from(per_layer().iter().map(metric).collect::<Vec<_>>()),
        ),
    ];
    // One entry per line keeps the file diffable.
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Json::Arr(items) if items.iter().any(|item| matches!(item, Json::Obj(_))) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.to_line()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&other.to_line()),
        }
        out.push_str(if i + 1 < sections.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Measured values keyed by declared metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    values: BTreeMap<String, f64>,
}

impl MetricSet {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// If `name` is declared neither end-to-end nor per-layer: a report
    /// must not carry a name `BENCHMARK.json` does not.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            end_to_end()
                .iter()
                .chain(per_layer().iter())
                .any(|m| m.name == name),
            "metric '{name}' is not declared in spec.rs"
        );
        self.values.insert(name.to_string(), value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric of `specs` in declaration order; one never recorded
    /// is reported as 0 so that none is silently missing.
    pub fn in_order<'a>(
        &'a self,
        specs: &'a [MetricSpec],
    ) -> impl Iterator<Item = (&'a MetricSpec, f64)> {
        specs
            .iter()
            .map(|spec| (spec, self.get(&spec.name).unwrap_or(0.0)))
    }

    /// The `metrics` object of a run's result line.
    pub fn to_json(&self, specs: &[MetricSpec]) -> Json {
        Json::Obj(
            self.in_order(specs)
                .map(|(spec, value)| {
                    let entry = Json::obj().with("value", value).with("unit", spec.unit);
                    (spec.name.clone(), entry)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_server::wire::{self, Json as Wire};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<String> = end_to_end()
            .iter()
            .chain(per_layer().iter())
            .map(|m| m.name.clone())
            .chain(WORKLOADS.iter().map(|w| w.name.to_string()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `upa-benchmark spec > BENCHMARK.json`"
        );
        let doc = wire::parse(&committed).expect("BENCHMARK.json parses");
        let Wire::Obj(fields) = &doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("per_layer")
                .and_then(Wire::as_arr)
                .map(<[Wire]>::len),
            Some(per_layer().len())
        );
        assert!(committed.len() <= 64 * 1024);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn emitted_metric_names_equal_the_declared_ones() {
        let mut set = MetricSet::default();
        set.set("qps", 10.5);
        set.set("paper.upa_ms.TPCH21", 3.25);
        for specs in [end_to_end(), per_layer()] {
            let parsed = wire::parse(&set.to_json(&specs).to_line()).expect("valid JSON");
            let Wire::Obj(fields) = parsed else {
                panic!("metrics is an object")
            };
            // The server's parser keeps keys sorted, not in written order.
            let emitted: Vec<&str> = fields.keys().map(String::as_str).collect();
            let mut wanted: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
            wanted.sort_unstable();
            assert_eq!(emitted, wanted);
            assert!(fields
                .values()
                .all(|v| v.num_of("value").is_some() && v.str_of("unit").is_some()));
        }
        assert_eq!(set.get("qps"), Some(10.5));
        assert_eq!(set.get("p50_us"), None);
    }
}
