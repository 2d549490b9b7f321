//! `paper_suite`: the nine paper queries through `run_plain` and
//! `run_upa`, no server. The row path (`Upa::prepare`, `join_dp`,
//! `reduce_by_key_dp`, shuffles, `relational`/`tpch`/`mlalgo`) is touched
//! by no serving workload; this is where the paper's Fig. 2a (sensitivity
//! accuracy) and Fig. 2b (overhead over vanilla) quantities are tracked.

use crate::daemon::proc_status_kb;
use crate::json::Json;
use crate::report::{Check, RunReport};
use crate::spec::PAPER_QUERIES;
use crate::stats::{median, median_of_trials, percentile, samples_beyond, sorted};
use crate::trace::{self, Tracer};
use crate::{RunEnv, TRIALS};
use dataflow::{Config, Context, MetricsSnapshot};
use std::time::Instant;
use upa_core::{Upa, UpaConfig};
use upa_repro::suite::{build_queries, EvalData, EvalQuery, EvalScale};

/// The suite's frozen scale.
#[derive(Debug, Clone, Copy)]
pub struct SuiteWorkload {
    /// TPC-H orders (every table derives from it). Chosen so one vanilla
    /// pass over the nine queries takes at least 100 ms at 2 threads.
    pub orders: usize,
    /// KMeans / LinearRegression records.
    pub ml_records: usize,
    /// Partitions per dataset.
    pub partitions: usize,
    /// Passes over the nine queries per ten requested seconds; frozen so
    /// `--seconds 10` measures for about ten seconds on the seed commit.
    pub passes_per_10s: usize,
}

impl SuiteWorkload {
    fn passes(&self, env: &RunEnv) -> usize {
        let passes = self.passes_per_10s * env.seconds as usize / 10 / env.ops_divisor().min(5);
        (passes / TRIALS).max(1) * TRIALS
    }
}

/// One `run_plain` + `run_upa` of one query.
#[derive(Debug, Clone, Copy)]
struct QueryRun {
    query: usize,
    plain_s: f64,
    upa_s: f64,
    /// `UpaResult.raw` equals `run_plain` within 1e-9 relative.
    raw_matches: bool,
    /// `max_empirical_sensitivity` of the run.
    sensitivity: f64,
    ok: bool,
}

struct Suite {
    ctx: Context,
    data: EvalData,
    queries: Vec<Box<dyn EvalQuery>>,
    /// Brute-force local sensitivity per query (Definition II.1).
    truth: Vec<f64>,
}

fn vectors_match(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(f64::MIN_POSITIVE))
}

impl Suite {
    /// Set-up: generate the data from the seed, build the queries, brute
    /// force the ground truth, and run one unmeasured warm-up pass.
    fn set_up(w: &SuiteWorkload, env: &RunEnv) -> (Suite, f64) {
        let start = Instant::now();
        // `scan_cost_ns = 0`: the program is timed, not a simulated sleep.
        let ctx = Context::new(Config {
            threads: crate::serve::CLIENTS,
            default_partitions: w.partitions,
            shuffle_partitions: w.partitions,
            scan_cost_ns: 0,
            ..Config::default()
        });
        let data = EvalData::generate(
            &ctx,
            EvalScale {
                orders: w.orders / env.rows_divisor(),
                ml_records: w.ml_records / env.rows_divisor(),
                partitions: w.partitions,
                seed: env.seed,
            },
        );
        let queries = build_queries(&data);
        let truth = queries
            .iter()
            .map(|q| {
                q.ground_truth(&data, 1_000, env.seed ^ 0xA11)
                    .local_sensitivity
            })
            .collect();
        let suite = Suite {
            ctx,
            data,
            queries,
            truth,
        };
        suite.pass(env, usize::MAX, &mut Tracer::new(false));
        (suite, start.elapsed().as_secs_f64())
    }

    /// One pass: every query through vanilla and through UPA (a fresh
    /// `Upa` per run, n = 1000, noise on).
    fn pass(&self, env: &RunEnv, pass: usize, tracer: &mut Tracer) -> Vec<QueryRun> {
        let op = pass as u64;
        tracer.span("pass", op, |t| {
            self.queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let start = Instant::now();
                    let plain = t.span("paper.vanilla", op, |_| q.run_plain(&self.data));
                    let plain_s = start.elapsed().as_secs_f64();
                    let mut upa = Upa::new(
                        self.ctx.clone(),
                        UpaConfig {
                            sample_size: 1_000,
                            seed: env
                                .seed
                                .wrapping_mul(1_000_003)
                                .wrapping_add((pass * 16 + i) as u64),
                            add_noise: true,
                            ..UpaConfig::default()
                        },
                    );
                    let start = Instant::now();
                    let result = t.span("paper.upa", op, |_| q.run_upa(&mut upa, &self.data));
                    let upa_s = start.elapsed().as_secs_f64();
                    match result {
                        Ok(r) => QueryRun {
                            query: i,
                            plain_s,
                            upa_s,
                            raw_matches: vectors_match(&r.raw, &plain),
                            sensitivity: r.max_empirical_sensitivity(),
                            ok: true,
                        },
                        Err(_) => QueryRun {
                            query: i,
                            plain_s,
                            upa_s,
                            raw_matches: false,
                            sensitivity: f64::NAN,
                            ok: false,
                        },
                    }
                })
                .collect()
        })
    }
}

fn sorted_names<'a>(names: &[&'a str]) -> Vec<&'a str> {
    let mut names = names.to_vec();
    names.sort_unstable();
    names
}

/// Fig. 2a per query: RMSE of the inferred sensitivity against the brute
/// force ground truth, relative to the ground truth.
fn rel_rmse(estimates: &[f64], truth: f64) -> f64 {
    let mse = estimates.iter().map(|e| (e - truth).powi(2)).sum::<f64>() / estimates.len() as f64;
    mse.sqrt() / truth.abs().max(1e-12)
}

/// Runs the suite.
///
/// # Errors
///
/// The suite no longer holds the nine declared queries, or the trace
/// file cannot be written.
pub fn run(w: &SuiteWorkload, env: &RunEnv) -> Result<RunReport, String> {
    let per_trial = w.passes(env) / TRIALS;
    // The traced run spans every other pass, so spanned and plain passes
    // see the same data and engines and differ only by the spans.
    let mut tracer = Tracer::new(env.traced);
    let mut off = Tracer::new(false);
    let (mut plain_pass_s, mut spanned_pass_s) = (Vec::new(), Vec::new());
    let mut one_pass_engine: Option<MetricsSnapshot> = None;
    let mut shuffle_share = 0.0;

    let mut setup_times = Vec::with_capacity(TRIALS);
    let (mut qps, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let mut beyond_p90 = usize::MAX;
    let mut runs: Vec<Vec<QueryRun>> = Vec::with_capacity(TRIALS * per_trial);
    let mut names: Vec<&'static str> = Vec::new();
    let mut truth = Vec::new();
    let mut facts = Vec::new();
    for trial in 0..TRIALS {
        // Each trial generates the data and builds the engine afresh.
        let (suite, seconds) = Suite::set_up(w, env);
        setup_times.push(seconds);
        if trial == 0 {
            names = suite.queries.iter().map(|q| q.name()).collect();
            let mut declared = PAPER_QUERIES.to_vec();
            declared.sort_unstable();
            if sorted_names(&names) != declared {
                return Err(format!(
                    "the suite's queries are {names:?}, the benchmark declares {PAPER_QUERIES:?}"
                ));
            }
            truth = suite.truth.clone();
            facts = vec![
                ("orders".to_string(), Json::from(suite.data.scale.orders)),
                ("ml_records".to_string(), suite.data.scale.ml_records.into()),
                (
                    "lineitem_rows".to_string(),
                    suite.data.tables.lineitem.len().into(),
                ),
            ];
        }
        suite.ctx.reset_metrics();
        let first = runs.len();
        for pass in first..first + per_trial {
            let spanned = env.traced && pass % 2 == 1;
            let before = suite.ctx.metrics();
            let start = Instant::now();
            let result = suite.pass(env, pass, if spanned { &mut tracer } else { &mut off });
            let seconds = start.elapsed().as_secs_f64();
            if spanned {
                spanned_pass_s.push(seconds);
            } else {
                plain_pass_s.push(seconds);
            }
            one_pass_engine.get_or_insert_with(|| suite.ctx.metrics().since(&before));
            runs.push(result);
        }
        shuffle_share = suite.ctx.shuffle_time_share();

        // One operation = one pass of the nine queries through UPA: the
        // queries differ tenfold in cost, so single-query latencies have no
        // stable median, while passes are alike.
        let latencies = sorted(
            runs[first..]
                .iter()
                .filter(|pass| pass.iter().all(|r| r.ok))
                .map(|pass| pass.iter().map(|r| r.upa_s).sum::<f64>() * 1e6)
                .collect(),
        );
        if !latencies.is_empty() {
            qps.push(latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e6));
            p50.push(percentile(&latencies, 50.0));
            p90.push(percentile(&latencies, 90.0));
            beyond_p90 = beyond_p90.min(samples_beyond(latencies.len(), 90.0));
        }
    }
    if qps.is_empty() {
        return Err("no query run succeeded".into());
    }
    let peak_rss_kb = proc_status_kb("/proc/self/status", "VmHWM").unwrap_or(0);

    let all: Vec<QueryRun> = runs.iter().flatten().copied().collect();
    let attempted = runs.len() as u64;
    let failed = runs
        .iter()
        .filter(|pass| pass.iter().any(|r| !r.ok))
        .count() as u64;

    // Fig. 2a, per query and averaged.
    let per_query_rmse: Vec<f64> = (0..names.len())
        .map(|i| {
            let estimates: Vec<f64> = all
                .iter()
                .filter(|r| r.ok && r.query == i)
                .map(|r| r.sensitivity)
                .collect();
            if estimates.is_empty() {
                f64::NAN
            } else {
                rel_rmse(&estimates, truth[i])
            }
        })
        .collect();
    let sens_rel_rmse = per_query_rmse.iter().sum::<f64>() / per_query_rmse.len() as f64;

    let mismatched: Vec<&str> = (0..names.len())
        .filter(|&i| all.iter().any(|r| r.query == i && r.ok && !r.raw_matches))
        .map(|i| names[i])
        .collect();
    let checks = vec![
        Check::new(
            "raw_equals_vanilla",
            mismatched.is_empty() && failed == 0,
            format!("{} query runs; UpaResult.raw differs from run_plain beyond 1e-9 on {mismatched:?}; {failed} passes had a failed run", all.len()),
        ),
        Check::new(
            "sens_rel_rmse",
            sens_rel_rmse <= 0.25,
            format!("mean over queries {sens_rel_rmse} (limit 0.25) over {} trials each; per query {per_query_rmse:?}", runs.len()),
        ),
    ];

    let trials = [
        ("qps", median_of_trials(qps)),
        ("p50_us", median_of_trials(p50)),
        ("p90_us", median_of_trials(p90)),
        ("setup_s", median_of_trials(setup_times)),
    ];
    let mut report = RunReport {
        workload: "paper_suite",
        traced: env.traced,
        attempted,
        failed,
        checks,
        ..RunReport::default()
    };
    let m = &mut report.metrics;
    if env.traced {
        let sum_of =
            |pass: &Vec<QueryRun>, f: fn(&QueryRun) -> f64| pass.iter().map(f).sum::<f64>();
        let suite_upa_s = median(
            &runs
                .iter()
                .map(|p| sum_of(p, |r| r.upa_s))
                .collect::<Vec<_>>(),
        );
        let suite_vanilla_s = median(
            &runs
                .iter()
                .map(|p| sum_of(p, |r| r.plain_s))
                .collect::<Vec<_>>(),
        );
        m.set("paper.suite_upa_s", suite_upa_s);
        m.set("paper.suite_vanilla_s", suite_vanilla_s);
        // Fig. 2b. A layer metric on purpose: a faster vanilla path would
        // read as "worse" were this gated end to end.
        m.set("paper.overhead_x", suite_upa_s / suite_vanilla_s);
        m.set("paper.sens_rel_rmse", sens_rel_rmse);
        for (i, name) in names.iter().enumerate() {
            let of = |f: fn(&QueryRun) -> f64| {
                median(
                    &all.iter()
                        .filter(|r| r.query == i)
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            };
            m.set(&format!("paper.upa_ms.{name}"), of(|r| r.upa_s) * 1e3);
            m.set(&format!("paper.vanilla_ms.{name}"), of(|r| r.plain_s) * 1e3);
            m.set(&format!("paper.sens_rel_rmse.{name}"), per_query_rmse[i]);
        }
        let engine = one_pass_engine.unwrap_or_default();
        m.set("dataflow.stages", engine.stages as f64);
        m.set("dataflow.shuffles", engine.shuffles as f64);
        m.set("dataflow.shuffle_bytes", engine.shuffle_bytes as f64);
        m.set("dataflow.shuffle_time_share", shuffle_share);
        m.set("serve.fail_rate", failed as f64 / attempted as f64);
        // Median pass against median pass: one slow pass on either side
        // must not read as tracing overhead.
        if !spanned_pass_s.is_empty() && !plain_pass_s.is_empty() {
            m.set(
                "trace.overhead_frac",
                median(&spanned_pass_s) / median(&plain_pass_s) - 1.0,
            );
        }
        let path = env.out_dir.join("trace-paper_suite.json");
        std::fs::write(
            &path,
            trace::to_json("paper_suite", tracer.spans()).to_line() + "\n",
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
        facts.push(("trace_file".into(), path.display().to_string().into()));
    } else {
        m.set("qps", trials[0].1.median);
        m.set("p50_us", trials[1].1.median);
        m.set("p90_us", trials[2].1.median);
        m.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
        m.set("setup_s", trials[3].1.median);
    }
    report.trials = trials
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect();
    facts.extend([
        ("passes".to_string(), Json::from(runs.len())),
        ("accuracy_trials_per_query".to_string(), runs.len().into()),
        ("passes_per_trial".to_string(), per_trial.into()),
        (
            "samples_beyond_p90_per_trial".to_string(),
            beyond_p90.into(),
        ),
        ("sens_rel_rmse".to_string(), sens_rel_rmse.into()),
        ("engine_threads".to_string(), crate::serve::CLIENTS.into()),
    ]);
    report.facts = facts;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_rmse_is_relative_to_the_truth() {
        assert_eq!(rel_rmse(&[10.0, 10.0], 10.0), 0.0);
        assert!((rel_rmse(&[9.0, 11.0], 10.0) - 0.1).abs() < 1e-12);
        assert!((rel_rmse(&[12.0], 10.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn raw_comparison_is_relative() {
        assert!(vectors_match(&[1e9, 0.0], &[1e9 + 0.5, 0.0]));
        assert!(!vectors_match(&[1e9], &[1e9 + 5.0]));
        assert!(!vectors_match(&[1.0], &[1.0, 2.0]));
    }
}
