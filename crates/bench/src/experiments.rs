//! The six experiments of the paper's evaluation (§VI), as callable
//! functions. Each prints the paper's reference claim next to measured
//! values so a reader can check the *shape* of the result directly.

use crate::report::{pct, sci, time_median, Table};
use dataflow::{Config, Context};
use upa_repro::suite::{build_queries, EvalData, EvalQuery, EvalScale};
use upa_repro::upa_core::{Upa, UpaConfig, UpaResult};
use upa_repro::upa_stats::rmse::rmse;

/// Experiment configuration (environment-overridable scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// TPC-H orders (drives all table sizes).
    pub orders: usize,
    /// ML records.
    pub ml_records: usize,
    /// Partitions per dataset.
    pub partitions: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Timing repetitions / accuracy trials.
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Simulated per-record scan cost (ns) applied to the *timing*
    /// experiments (Fig. 2b, 4a, 4b) to stand in for Spark's I/O-bound
    /// scans; accuracy experiments run without it.
    pub scan_cost_ns: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExpConfig {
            orders: 4_000,
            ml_records: 8_000,
            partitions: 8,
            threads: avail.clamp(4, 8),
            trials: 3,
            seed: 7,
            scan_cost_ns: 150,
        }
    }
}

impl ExpConfig {
    /// Reads `UPA_BENCH_ORDERS`, `UPA_BENCH_ML_RECORDS`,
    /// `UPA_BENCH_TRIALS`, `UPA_BENCH_THREADS` env overrides.
    pub fn from_env() -> Self {
        let mut cfg = ExpConfig::default();
        let read = |name: &str| std::env::var(name).ok().and_then(|v| v.parse().ok());
        if let Some(v) = read("UPA_BENCH_ORDERS") {
            cfg.orders = v;
        }
        if let Some(v) = read("UPA_BENCH_ML_RECORDS") {
            cfg.ml_records = v;
        }
        if let Some(v) = read("UPA_BENCH_TRIALS") {
            cfg.trials = v;
        }
        if let Some(v) = read("UPA_BENCH_THREADS") {
            cfg.threads = v;
        }
        if let Some(v) = std::env::var("UPA_BENCH_SCAN_NS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            cfg.scan_cost_ns = v;
        }
        cfg
    }

    fn scale(&self) -> EvalScale {
        EvalScale {
            orders: self.orders,
            ml_records: self.ml_records,
            partitions: self.partitions,
            seed: self.seed,
        }
    }
}

fn setup(cfg: &ExpConfig) -> (Context, EvalData, Vec<Box<dyn EvalQuery>>) {
    setup_with_scan(cfg, 0)
}

/// Like [`setup`] but with the simulated per-record scan cost enabled —
/// used by the timing experiments so the vanilla baseline carries an
/// I/O-like cost per record, as the paper's 114 GB Spark scans do.
fn setup_with_scan(
    cfg: &ExpConfig,
    scan_cost_ns: u64,
) -> (Context, EvalData, Vec<Box<dyn EvalQuery>>) {
    let ctx = Context::new(Config {
        threads: cfg.threads,
        default_partitions: cfg.partitions,
        shuffle_partitions: cfg.partitions,
        scan_cost_ns,
        ..Config::default()
    });
    let data = EvalData::generate(&ctx, cfg.scale());
    let queries = build_queries(&data);
    (ctx, data, queries)
}

fn upa_for(ctx: &Context, sample_size: usize, seed: u64, noise: bool) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size,
            seed,
            add_noise: noise,
            ..UpaConfig::default()
        },
    )
}

/// One noisy UPA run of `q` per call, each on a fresh `Upa` seeded from
/// `seed` plus the trial number, so no trial repeats a query in an
/// earlier trial's RANGE ENFORCER history.
fn fresh_upa_runs<'a>(
    ctx: &'a Context,
    sample_size: usize,
    seed: u64,
    q: &'a dyn EvalQuery,
    data: &'a EvalData,
) -> impl FnMut() -> UpaResult<Vec<f64>> + 'a {
    let mut trial = 0;
    move || {
        let mut upa = upa_for(ctx, sample_size, seed + trial, true);
        trial += 1;
        q.run_upa(&mut upa, data).expect("query runs")
    }
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Table II: the query/dataset support matrix.
pub fn table2(cfg: &ExpConfig) {
    let (_ctx, data, queries) = setup(cfg);
    println!("== Table II: evaluated queries and support matrix ==");
    println!(
        "(paper: 114-133 GB TPC-H / life-science datasets; here: generated at orders={}, ml={})\n",
        cfg.orders, cfg.ml_records
    );
    let mut t = Table::new(&[
        "Query Name",
        "Protected table",
        "Protected rows",
        "Query Type",
        "Support by UPA",
        "Support by FLEX",
    ]);
    let mut flex_count = 0;
    for q in &queries {
        let flex_supports = q.flex_sensitivity(&data).is_ok();
        flex_count += usize::from(flex_supports);
        let rows = match q.protected() {
            "lineitem" => data.tables.lineitem.len(),
            "orders" => data.tables.orders.len(),
            "partsupp" => data.tables.partsupp.len(),
            "supplier" => data.tables.supplier.len(),
            _ => data.scale.ml_records,
        };
        t.row(vec![
            q.name().into(),
            q.protected().into(),
            rows.to_string(),
            q.kind().into(),
            "yes".into(),
            if flex_supports { "yes" } else { "NO" }.into(),
        ]);
    }
    t.print();
    println!(
        "\nUPA supports {}/9 queries; FLEX supports {}/9 (paper: 9/9 vs 5/9).",
        queries.len(),
        flex_count
    );
}

// ---------------------------------------------------------------------------
// Figure 2(a): sensitivity RMSE, UPA vs FLEX
// ---------------------------------------------------------------------------

/// Figure 2(a): RMSE of inferred local sensitivity vs brute-force ground
/// truth, UPA vs FLEX, log scale.
pub fn fig2a(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup(cfg);
    println!("== Figure 2(a): sensitivity RMSE vs ground truth (lower is better) ==");
    println!("(paper: UPA averages 3.81% RMSE; FLEX is 1-5 orders of magnitude worse;");
    println!(" FLEX is exact on TPCH1, worst on the multi-join TPCH16/TPCH21)\n");

    let mut t = Table::new(&[
        "Query",
        "ground truth LS",
        "UPA estimate",
        "UPA RMSE",
        "FLEX bound",
        "FLEX RMSE",
        "FLEX/UPA error",
    ]);
    let mut upa_rel_sum = 0.0;
    let mut upa_rel_count = 0usize;
    for q in &queries {
        let gt = q.ground_truth(&data, 1_000, cfg.seed ^ 0xA11);
        let truth = gt.local_sensitivity;
        let mut estimates = Vec::with_capacity(cfg.trials);
        for trial in 0..cfg.trials {
            let mut upa = upa_for(&ctx, 1_000, cfg.seed + 100 + trial as u64, false);
            let result = q.run_upa(&mut upa, &data).expect("query runs");
            estimates.push(result.max_empirical_sensitivity());
        }
        let truths = vec![truth; estimates.len()];
        let upa_abs = rmse(&estimates, &truths).expect("non-empty");
        let denom = truth.abs().max(1e-12);
        let upa_rel = upa_abs / denom;
        upa_rel_sum += upa_rel;
        upa_rel_count += 1;
        let mean_est = estimates.iter().sum::<f64>() / estimates.len() as f64;

        let (flex_cell, flex_rmse_cell, ratio_cell) = match q.flex_sensitivity(&data) {
            Ok(flex) => {
                let flex_rel = (flex - truth).abs() / denom;
                let ratio = if upa_rel > 0.0 {
                    format!("{:.1e}x", flex_rel / upa_rel)
                } else if flex_rel == 0.0 {
                    "1x".to_string()
                } else {
                    "inf".to_string()
                };
                (sci(Some(flex)), pct(flex_rel), ratio)
            }
            Err(_) => ("unsupported".into(), "n/a".into(), "n/a".into()),
        };
        t.row(vec![
            q.name().into(),
            sci(Some(truth)),
            sci(Some(mean_est)),
            pct(upa_rel),
            flex_cell,
            flex_rmse_cell,
            ratio_cell,
        ]);
    }
    t.print();
    println!(
        "\nUPA average RMSE across all nine queries: {} (paper: 3.81%)",
        pct(upa_rel_sum / upa_rel_count as f64)
    );
}

// ---------------------------------------------------------------------------
// Figure 2(b): runtime normalized to vanilla
// ---------------------------------------------------------------------------

/// Figure 2(b): UPA end-to-end runtime normalized to the vanilla
/// dataflow execution.
pub fn fig2b(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup_with_scan(cfg, cfg.scan_cost_ns);
    println!("== Figure 2(b): UPA runtime normalized to vanilla execution ==");
    println!("(paper: 19.1%-130.9% overhead, avg 77.6%; join queries TPCH4/13 exceed");
    println!(" 100% because the paper's joinDP shuffles twice; this one shuffles `other`");
    println!(" at most once, and TPCH4/13 share their inputs with each other and with");
    println!(" their vanilla joins, so later runs reuse those shuffles);");
    println!(" TPCH16/21 stay lower because their filters drop most sampled-neighbour");
    println!(" work. Without Spark's I/O and cluster costs the vanilla baseline here is");
    println!(" much cheaper, so absolute ratios run higher — the per-query ordering is");
    println!(" the reproduction target.)\n");

    let mut t = Table::new(&[
        "Query",
        "vanilla ms",
        "UPA ms",
        "normalized",
        "vanilla shuffles",
        "UPA shuffles",
        "shuffle-time share",
    ]);
    let mut ratios = Vec::new();
    for q in &queries {
        let (vanilla_ms, vanilla_shuffles) =
            timed_shuffles(&ctx, cfg.trials, || q.run_plain(&data));
        ctx.reset_metrics();
        let (upa_ms, upa_shuffles) = timed_shuffles(
            &ctx,
            cfg.trials,
            fresh_upa_runs(&ctx, 1_000, cfg.seed + 500, q.as_ref(), &data),
        );
        let shuffle_share = ctx.shuffle_time_share();
        let ratio = upa_ms / vanilla_ms.max(1e-6);
        ratios.push((q.name(), ratio));
        t.row(vec![
            q.name().into(),
            format!("{vanilla_ms:.2}"),
            format!("{upa_ms:.2}"),
            format!("{ratio:.2}x"),
            vanilla_shuffles,
            upa_shuffles,
            pct(shuffle_share),
        ]);
    }
    t.print();
    let avg: f64 = ratios.iter().map(|(_, r)| r).sum::<f64>() / ratios.len() as f64;
    println!("\naverage normalized runtime: {avg:.2}x vanilla");
    let join_avg = avg_of(&ratios, &["TPCH4", "TPCH13"]);
    let filtered_join_avg = avg_of(&ratios, &["TPCH16", "TPCH21"]);
    println!(
        "join queries (TPCH4/13) average {join_avg:.2}x vs multi-join-filtered (TPCH16/21) {filtered_join_avg:.2}x\n(paper shape: the former exceed the latter; the paper also reports >42.8% of\n execution time in shuffling for the local queries — compare the\n shuffle-time-share column)"
    );
}

/// The median milliseconds of `trials` runs of `f`, and the shuffles
/// they recorded as "first run / each later run": a join input keeps the
/// buckets of its first shuffle, so the first run can shuffle more.
fn timed_shuffles<R>(ctx: &Context, trials: usize, mut f: impl FnMut() -> R) -> (f64, String) {
    let before = ctx.metrics();
    let mut first = None;
    let (_, ms) = time_median(trials, || {
        let out = f();
        first.get_or_insert_with(|| ctx.metrics().since(&before).shuffles);
        out
    });
    let first = first.expect("at least one trial");
    let later = ctx.metrics().since(&before).shuffles - first;
    let shuffles = match trials {
        1 => first.to_string(),
        _ => format!("{first} / {:.1}", later as f64 / (trials - 1) as f64),
    };
    (ms, shuffles)
}

fn avg_of(ratios: &[(&str, f64)], names: &[&str]) -> f64 {
    let sel: Vec<f64> = ratios
        .iter()
        .filter(|(n, _)| names.contains(n))
        .map(|(_, r)| *r)
        .collect();
    sel.iter().sum::<f64>() / sel.len().max(1) as f64
}

// ---------------------------------------------------------------------------
// Figure 3: neighbour-output coverage vs sample size
// ---------------------------------------------------------------------------

/// Figure 3: how much of the true neighbour-output distribution the
/// inferred range covers, per sample size.
pub fn fig3(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup(cfg);
    println!("== Figure 3: neighbour-output coverage of the inferred range ==");
    println!("(paper: with n=1000 the inferred range covers 98.9%-100% of all");
    println!(" neighbour outputs for 8 of 9 queries; TPCH21 is the outlier-heavy");
    println!(" exception. Red lines = inferred range, blue = true extremes.)\n");

    let sample_sizes = [100usize, 1_000, 10_000];
    let mut t = Table::new(&[
        "Query",
        "true min..max (comp 0)",
        "inferred range @n=1000",
        "cov @100",
        "cov @1000",
        "cov @10000",
        "KS vs normal",
        "distribution",
    ]);
    for q in &queries {
        let gt = q.ground_truth(&data, 1_000, cfg.seed ^ 0xF13);
        let extremes = gt.neighbour_extremes();
        let mut coverages = Vec::new();
        let mut range_at_1000 = String::new();
        for (si, &n) in sample_sizes.iter().enumerate() {
            let mut upa = upa_for(&ctx, n, cfg.seed + 900 + si as u64, false);
            let result = q.run_upa(&mut upa, &data).expect("query runs");
            // Coverage: fraction of ALL true neighbour outputs inside the
            // inferred per-component range.
            let mut inside = 0usize;
            let mut total = 0usize;
            for o in gt.removal_outputs.iter().chain(gt.addition_outputs.iter()) {
                for (c, v) in o.iter().enumerate() {
                    let (lo, hi) = result.range.bounds[c];
                    total += 1;
                    if *v >= lo && *v <= hi {
                        inside += 1;
                    }
                }
            }
            coverages.push(inside as f64 / total.max(1) as f64);
            if n == 1_000 {
                let (lo, hi) = result.range.bounds[0];
                range_at_1000 = format!("[{lo:.4}, {hi:.4}]");
            }
        }
        // §VI-C normality analysis: KS distance of the true
        // neighbour-output distribution (component 0) against its own
        // normal fit, plus a sparkline of the distribution itself.
        let comp0: Vec<f64> = gt
            .removal_outputs
            .iter()
            .chain(gt.addition_outputs.iter())
            .filter_map(|o| o.first().copied())
            .collect();
        let ks = upa_repro::upa_stats::ks::ks_vs_normal_fit(&comp0)
            .map(|d| format!("{d:.3}"))
            .unwrap_or_else(|_| "n/a".into());
        let spark = upa_repro::upa_stats::ks::Histogram::from_samples(&comp0, 16).sparkline();
        t.row(vec![
            q.name().into(),
            format!("[{:.4}, {:.4}]", extremes[0].0, extremes[0].1),
            range_at_1000,
            pct(coverages[0]),
            pct(coverages[1]),
            pct(coverages[2]),
            ks,
            spark,
        ]);
    }
    t.print();
    println!(
        "
(large KS = strongly non-normal neighbour outputs, the paper's"
    );
    println!(" §VI-C explanation for residual inaccuracy; TPCH21's outliers show");
    println!(" as a heavy-tailed sparkline)");
}

// ---------------------------------------------------------------------------
// Figure 4(a): scalability with dataset size
// ---------------------------------------------------------------------------

/// Figure 4(a): normalized overhead as the dataset grows (the cost of
/// sensitivity inference is constant in `n`, so overhead falls).
pub fn fig4a(cfg: &ExpConfig) {
    println!("== Figure 4(a): UPA overhead vs dataset size ==");
    println!("(paper: overhead decreases as datasets grow, because inferring");
    println!(" sensitivity costs O(n)=O(1000) regardless of dataset size)\n");

    let selected = ["TPCH1", "TPCH4", "TPCH6", "TPCH21", "LinearRegression"];
    let factors = [1usize, 2, 4, 8];
    let mut t = Table::new(&{
        let mut h = vec!["dataset scale"];
        h.extend(selected);
        h
    });
    for &f in &factors {
        let scaled = ExpConfig {
            orders: cfg.orders * f,
            ml_records: cfg.ml_records * f,
            ..*cfg
        };
        let (ctx, data, queries) = setup_with_scan(&scaled, cfg.scan_cost_ns);
        let mut cells = vec![format!("{}x ({} lineitems)", f, data.tables.lineitem.len())];
        for name in &selected {
            let q = queries
                .iter()
                .find(|q| q.name() == *name)
                .expect("query exists");
            let (_, vanilla_ms) = time_median(cfg.trials, || q.run_plain(&data));
            let seed = cfg.seed + 1_700 + f as u64;
            let (_, upa_ms) = time_median(
                cfg.trials,
                fresh_upa_runs(&ctx, 1_000, seed, q.as_ref(), &data),
            );
            cells.push(format!("{:.2}x", upa_ms / vanilla_ms.max(1e-6)));
        }
        t.row(cells);
    }
    t.print();
    println!("\n(each column should trend downward as the scale factor grows)");
}

// ---------------------------------------------------------------------------
// Figure 4(b): runtime vs sample size
// ---------------------------------------------------------------------------

/// Figure 4(b): UPA runtime as the sample size `n` grows (near-flat up
/// to 10^5 in the paper thanks to reuse of cached intermediate results).
pub fn fig4b(cfg: &ExpConfig) {
    let (ctx, data, queries) = setup_with_scan(cfg, cfg.scan_cost_ns);
    println!("== Figure 4(b): UPA runtime vs sample size n ==");
    println!("(paper: runtime stays near-constant up to n=10^5 because the");
    println!(" union-preserving reduce reuses R(M(S')) and cached sample state)\n");

    let selected = ["TPCH1", "TPCH6", "TPCH4", "KMeans", "LinearRegression"];
    let sample_sizes = [100usize, 1_000, 10_000, 100_000];
    let mut t = Table::new(&{
        let mut h = vec!["sample size n"];
        h.extend(selected);
        h
    });
    for (si, &n) in sample_sizes.iter().enumerate() {
        let mut cells = vec![n.to_string()];
        for name in &selected {
            let q = queries
                .iter()
                .find(|q| q.name() == *name)
                .expect("query exists");
            let seed = cfg.seed + 2_500 + si as u64;
            let (_, upa_ms) =
                time_median(cfg.trials, fresh_upa_runs(&ctx, n, seed, q.as_ref(), &data));
            cells.push(format!("{upa_ms:.1}ms"));
        }
        t.row(cells);
    }
    t.print();
    println!("\n(n larger than a table samples every record of that table)");
}
