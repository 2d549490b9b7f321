//! Per-layer numbers for the serving workloads, all taken from outside
//! the program: counters scraped from the daemon's `metrics`/`stats` ops,
//! an in-process replay of the seeded request sequence that calls each
//! layer's public functions in release-path order inside spans, and
//! stand-alone probes of single layers. End-to-end numbers never come
//! from here.

use crate::report::RunReport;
use crate::serve::{self, CacheExpect, IngestTotals, ServeWorkload, Warmup, EPSILON};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::RunEnv;
use dataflow::{ColumnarBuf, ColumnarDataset, Config, Context};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use upa_core::domain::{ColumnarEmpiricalSampler, EmpiricalSampler};
use upa_core::{Upa, UpaConfig};
use upa_server::proto::{Request, Response};
use upa_server::state::build_agg_query;
use upa_server::{wire, AggKind, Client, DatasetSpec, GroupCommitLedger, Ledger, RegistrySnapshot};
use upa_server::{SchedStats, ServerConfig, ServerState, SpendRecord};
use upa_stats::{LaplaceMechanism, Normal};
use upa_store::{decode_chunk, Catalog, Manifest, Store, MANIFEST_FILE};

/// What the daemon reported about itself at the end of the measured run.
#[derive(Debug, Clone)]
pub struct Scraped {
    snapshot: RegistrySnapshot,
    sched: SchedStats,
}

/// Scrapes the daemon's `metrics` and `stats` ops.
///
/// # Errors
///
/// Transport errors or an unexpected reply shape.
pub fn scrape(client: &mut Client) -> Result<Scraped, String> {
    let snapshot = match client.request(&Request::Metrics) {
        Ok(Response::Metrics(reply)) => reply.snapshot,
        other => return Err(format!("metrics scrape: unexpected reply {other:?}")),
    };
    let sched = match client.request(&Request::Stats) {
        Ok(Response::Stats(reply)) => reply.sched,
        other => return Err(format!("stats scrape: unexpected reply {other:?}")),
    };
    Ok(Scraped { snapshot, sched })
}

impl Scraped {
    /// A counter; 0 when the daemon no longer exports the name (reported,
    /// not an error: observability names may be renamed under us).
    fn counter(&self, name: &str) -> f64 {
        self.snapshot.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn quantile(&self, name: &str, q: f64) -> f64 {
        self.snapshot
            .histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    }
}

/// What the traced run hands over from its daemon-driven part.
pub struct ServingRun<'a> {
    /// The scratch directory: store, and the daemon's ledger.
    pub dir: &'a Path,
    /// The seeded per-client key sequences.
    pub sequences: &'a [Vec<u32>],
    /// The end-of-run scrape.
    pub scraped: &'a Scraped,
    /// Releases the daemon acknowledged (warm-up included).
    pub releases: u64,
    /// The daemon-driven run's median release latency, µs.
    pub untraced_p50_us: f64,
    /// What set-up's ingest wrote.
    pub ingest: IngestTotals,
    /// The daemon-driven run's client-observed ping round trip, µs.
    pub ping_rtt_us: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Median seconds of `trials` calls.
fn median_secs(trials: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..trials).map(|_| timed(&mut f).1).collect();
    median(&times)
}

/// Fills in every per-layer metric a serving workload has.
///
/// # Errors
///
/// I/O or serving errors from the layers under probe.
pub fn serving_layers(
    w: &ServeWorkload,
    env: &RunEnv,
    run: &ServingRun<'_>,
    report: &mut RunReport,
) -> Result<(), String> {
    scraped_metrics(run, report);
    ledger_file_metrics(run, report)?;
    store_probes(w, run, report)?;
    ledger_probes(env, run.dir, report)?;
    stats_probes(env, report);
    engine_probes(w, env, run, report)?;
    replay(w, env, run, report)
}

fn scraped_metrics(run: &ServingRun<'_>, report: &mut RunReport) {
    let s = run.scraped;
    let m = &mut report.metrics;
    let hits = s.counter("upa_prepared_cache_hits_total");
    let misses = s.counter("upa_prepared_cache_misses_total");
    m.set(
        "state.cache_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.set(
        "state.cache_evictions",
        s.counter("upa_prepared_cache_evictions_total"),
    );
    m.set("state.fastpath_hits", s.counter("upa_fastpath_hits_total"));
    m.set(
        "sched.queue_wait_p50_us",
        s.quantile("upa_queue_wait_us", 0.50),
    );
    m.set(
        "sched.queue_wait_p99_us",
        s.quantile("upa_queue_wait_us", 0.99),
    );
    m.set("sched.coalesce_rate", s.sched.coalesce_rate());
    m.set("sched.busy_rejected", s.sched.busy_rejected as f64);
    m.set("sched.peak_queued", s.sched.peak_queued as f64);
    m.set(
        "ledger.batch_size_p50",
        s.quantile("upa_ledger_batch_size", 0.50),
    );
    m.set(
        "ledger.fsyncs_per_release",
        s.counter("upa_ledger_fsyncs_total") / run.releases.max(1) as f64,
    );
    m.set(
        "ledger.commit_wait_p50_us",
        s.quantile("upa_ledger_commit_wait_us", 0.50),
    );
    m.set(
        "ledger.commit_wait_p99_us",
        s.quantile("upa_ledger_commit_wait_us", 0.99),
    );
}

/// The run's own ledger file: bytes per release, and replay speed (what
/// `restart_s` pays before the daemon listens).
fn ledger_file_metrics(run: &ServingRun<'_>, report: &mut RunReport) -> Result<(), String> {
    let path = serve::ledger_path(run.dir);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("ledger file: {e}"))?
        .len();
    let (opened, seconds) = timed(|| Ledger::open(&path));
    let (_, records) = opened.map_err(|e| format!("replaying the run's ledger: {e}"))?;
    report.metrics.set(
        "ledger.bytes_per_release",
        bytes as f64 / records.len().max(1) as f64,
    );
    report.metrics.set(
        "ledger.replay_records_per_s",
        records.len() as f64 / seconds,
    );
    report
        .facts
        .push(("ledger_records".into(), records.len().into()));
    Ok(())
}

/// `store`: ingest throughput from set-up, then attach, chunk decode and
/// manifest parse on the files set-up wrote (page cache warm; "cold"
/// means not resident in a catalog).
fn store_probes(
    w: &ServeWorkload,
    run: &ServingRun<'_>,
    report: &mut RunReport,
) -> Result<(), String> {
    let m = &mut report.metrics;
    let user_mb = run.ingest.user_bytes as f64 / 1e6;
    m.set("store.ingest_mb_per_s", user_mb / run.ingest.seconds);
    m.set(
        "store.disk_bytes_per_user_byte",
        run.ingest.disk_bytes as f64 / run.ingest.user_bytes as f64,
    );
    let root = serve::store_dir(run.dir);
    let attach = median_secs(3, || {
        let catalog = Catalog::open(&root, serve::CLIENTS).expect("the store opens");
        for shape in w.shapes {
            black_box(catalog.attach(shape.name).expect("the dataset attaches"));
        }
    });
    m.set("store.attach_mb_per_s", user_mb / attach);

    let name = w.shapes[0].name;
    let manifest_text = std::fs::read_to_string(root.join(name).join(MANIFEST_FILE))
        .map_err(|e| format!("reading the manifest: {e}"))?;
    let parse = median_secs(51, || {
        black_box(Manifest::from_json(black_box(&manifest_text)).expect("the manifest parses"));
    });
    m.set("store.manifest_parse_us", parse * 1e6);

    let manifest = Store::open(&root)
        .and_then(|s| s.manifest(name))
        .map_err(|e| format!("loading the manifest: {e}"))?;
    let chunk = std::fs::read(root.join(name).join(&manifest.columns[0].chunks[0].file))
        .map_err(|e| format!("reading a chunk: {e}"))?;
    let decode = median_secs(21, || {
        black_box(decode_chunk(black_box(&chunk)).expect("the chunk decodes"));
    });
    m.set(
        "store.chunk_decode_mb_per_s",
        chunk.len() as f64 / 1e6 / decode,
    );
    Ok(())
}

fn spend_record(i: usize) -> SpendRecord {
    SpendRecord {
        dataset: "probe".into(),
        query_id: format!("probe/sum/c{}", i % 8),
        epsilon: EPSILON,
    }
}

/// `ledger`: one writer's append + fsync, then the group committer under
/// two submitters (the daemon's default 200 µs window).
fn ledger_probes(env: &RunEnv, dir: &Path, report: &mut RunReport) -> Result<(), String> {
    let appends = 200 / env.ops_divisor().min(10);
    let (mut ledger, _) =
        Ledger::open(&dir.join("probe-append.jsonl")).map_err(|e| format!("probe ledger: {e}"))?;
    let mut times = Vec::with_capacity(appends);
    for i in 0..appends {
        let record = spend_record(i);
        let (result, seconds) = timed(|| ledger.append(&record));
        result.map_err(|e| format!("probe append: {e}"))?;
        times.push(seconds);
    }
    report
        .metrics
        .set("ledger.append_fsync_us", median(&times) * 1e6);

    let (ledger, _) =
        Ledger::open(&dir.join("probe-submit.jsonl")).map_err(|e| format!("probe ledger: {e}"))?;
    let group = GroupCommitLedger::spawn(ledger, Duration::from_micros(200), None);
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..serve::CLIENTS)
            .map(|_| {
                let group = &group;
                scope.spawn(move || {
                    (0..appends * 2)
                        .map(|i| {
                            let record = spend_record(i);
                            let (result, seconds) = timed(|| group.submit(&record));
                            result.expect("probe submit");
                            seconds
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    report.metrics.set("ledger.submit_us", median(&times) * 1e6);
    Ok(())
}

/// `stats`: the Laplace draw every release pays, and the MLE fit every
/// first release pays (2000 neighbour outputs at n = 1000).
fn stats_probes(env: &RunEnv, report: &mut RunReport) {
    let mechanism = LaplaceMechanism::new(1.0, EPSILON).expect("valid mechanism");
    let mut rng = StdRng::seed_from_u64(env.seed);
    let draws = 200_000;
    let batch = median_secs(5, || {
        let mut acc = 0.0;
        for _ in 0..draws {
            acc += mechanism.release(black_box(0.0), &mut rng);
        }
        black_box(acc);
    });
    report
        .metrics
        .set("stats.laplace_draw_ns", batch * 1e9 / draws as f64);

    let mut gen = crate::gen::SplitMix64::new(env.seed, 0x3113);
    let samples: Vec<f64> = (0..2_000).map(|_| gen.unit() * 100.0).collect();
    let fit = median_secs(101, || {
        black_box(Normal::mle(black_box(&samples)).expect("a fit"));
    });
    report.metrics.set("stats.normal_mle_us", fit * 1e6);
}

/// Sum with four independent accumulators: the adds of one lane do not
/// wait for another's, so the loop runs at load speed, not add latency.
fn four_lane_sum(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut quads = values.chunks_exact(4);
    for quad in &mut quads {
        for (lane, v) in lanes.iter_mut().zip(quad) {
            *lane += v;
        }
    }
    lanes.iter().sum::<f64>() + quads.remainder().iter().sum::<f64>()
}

fn engine() -> Context {
    Context::new(Config {
        threads: serve::CLIENTS,
        ..Config::default()
    })
}

fn upa(ctx: &Context, seed: u64) -> Upa {
    Upa::new(
        ctx.clone(),
        UpaConfig {
            sample_size: 1_000,
            epsilon: EPSILON,
            seed,
            ..UpaConfig::default()
        },
    )
}

/// `core` and `dataflow`: Algorithm 1 called directly on column `c0` of
/// the first dataset (the chunks the daemon scanned), the scan kernel
/// against a same-buffer roofline, and the enforcer's cost per history
/// entry.
fn engine_probes(
    w: &ServeWorkload,
    env: &RunEnv,
    run: &ServingRun<'_>,
    report: &mut RunReport,
) -> Result<(), String> {
    let catalog =
        Catalog::open(serve::store_dir(run.dir), serve::CLIENTS).map_err(|e| e.to_string())?;
    let (resident, _) = catalog
        .attach(w.shapes[0].name)
        .map_err(|e| e.to_string())?;
    let buf: ColumnarBuf = resident.column("c0").ok_or("column c0 is missing")?.clone();
    let mb = buf.len() as f64 * 8.0 / 1e6;
    let ctx = engine();
    let m = &mut report.metrics;

    // dataflow: chunk-parallel sum over the store's buffers, the way a
    // served `sum` folds them (one accumulator, in record order).
    let dataset = ColumnarDataset::new(&ctx, buf.clone());
    let scan = median_secs(7, || {
        let partials = dataset.aggregate_chunks("probe_sum", |slice| slice.iter().sum::<f64>());
        black_box(partials.iter().sum::<f64>());
    });
    let flat = buf.to_vec();
    // The roofline is what the same two threads can do to the same bytes
    // with nothing in the way: a four-lane sum (no dependency chain between
    // adds) and a plain copy, each repeated so thread start-up is noise.
    const REPS: usize = 8;
    let share = flat.len().div_ceil(serve::CLIENTS);
    let slice_sum = median_secs(5, || {
        std::thread::scope(|scope| {
            for part in black_box(&flat).chunks(share) {
                scope.spawn(move || {
                    for _ in 0..REPS {
                        black_box(four_lane_sum(black_box(part)));
                    }
                });
            }
        });
    }) / REPS as f64;
    let mut copy = vec![0.0f64; flat.len()];
    let memcpy = median_secs(5, || {
        std::thread::scope(|scope| {
            for (to, from) in copy.chunks_mut(share).zip(black_box(&flat).chunks(share)) {
                scope.spawn(move || {
                    for _ in 0..REPS {
                        to.copy_from_slice(black_box(from));
                        black_box(&mut *to);
                    }
                });
            }
        });
    }) / REPS as f64;
    m.set("dataflow.columnar_scan_mb_per_s", mb / scan);
    m.set("roofline.slice_sum_mb_per_s", mb / slice_sum);
    m.set("roofline.memcpy_mb_per_s", mb / memcpy);
    m.set("dataflow.scan_roofline_frac", slice_sum / scan);
    drop(copy);

    // core: prepare (columnar, then the row path over the same values),
    // first release, cached release.
    let query = build_agg_query(AggKind::Sum);
    let domain = ColumnarEmpiricalSampler::new(buf.clone());
    let mut engine = upa(&ctx, env.seed);
    let mut prepare_times = Vec::new();
    let mut first_times = Vec::new();
    let mut prepared = None;
    for _ in 0..7 {
        let (p, seconds) = timed(|| engine.prepare_columnar(&dataset, &query, &domain));
        let p = p.map_err(|e| format!("prepare_columnar: {e}"))?;
        prepare_times.push(seconds);
        let (r, seconds) = timed(|| engine.release(&p));
        r.map_err(|e| format!("first release: {e}"))?;
        first_times.push(seconds);
        prepared = Some(p);
    }
    let prepared = prepared.expect("seven prepares ran");
    m.set("core.prepare_columnar_us", median(&prepare_times) * 1e6);
    m.set("core.release_first_us", median(&first_times) * 1e6);
    let cached = median_secs(2_001, || {
        black_box(engine.release(&prepared).expect("cached release"));
    });
    m.set("core.release_cached_us", cached * 1e6);

    let rows = ctx.parallelize_default(flat.clone());
    let row_domain = EmpiricalSampler::new(flat);
    let row = median_secs(3, || {
        black_box(
            engine
                .prepare(&rows, &query, &row_domain)
                .expect("row prepare"),
        );
    });
    m.set("core.prepare_row_us", row * 1e6);
    drop((rows, row_domain));

    // RANGE ENFORCER compares a first release against every recorded
    // signature: grow the history with cached releases, then time a
    // first release at the far end.
    let history = 100_000 / env.ops_divisor();
    let before = engine.enforcer().history_len();
    for i in 0..history {
        engine
            .release(&prepared)
            .map_err(|e| format!("growing history: {e}"))?;
        if i % 4_096 == 0 {
            engine.clear_audits();
        }
    }
    let grown = (engine.enforcer().history_len() - before) as f64;
    let fresh = engine
        .prepare_columnar(&dataset, &query, &domain)
        .map_err(|e| format!("prepare_columnar: {e}"))?;
    let (late, seconds) = timed(|| engine.release(&fresh));
    late.map_err(|e| format!("late first release: {e}"))?;
    m.set(
        "core.enforce_us_per_1k_history",
        (seconds - median(&first_times)).max(0.0) * 1e6 / (grown / 1_000.0),
    );
    Ok(())
}

/// Span names of the replay, one per layer boundary crossed.
const PARSE_REQUEST: &str = "wire.parse_request";
const CACHE_LOOKUP: &str = "state.cache_lookup";
const PREPARE_COLD: &str = "state.prepare_cold";
const SPEND: &str = "state.spend";
const RELEASE_WARM: &str = "state.release_warm";
const RELEASE_FIRST: &str = "state.release_first";
const ENCODE_RESPONSE: &str = "wire.encode_response";
const PARSE_RESPONSE: &str = "wire.parse_response";

/// The two in-process states one replay drives. `spend` is called on a
/// state with a real ledger; `release_prepared` on one without, so the
/// spend inside it is the budget CAS alone and nothing is charged twice.
struct Replay {
    serving: ServerState,
    spender: ServerState,
    reply: String,
}

impl Replay {
    fn new(w: &ServeWorkload, env: &RunEnv, dir: &Path, tag: &str) -> Result<Replay, String> {
        let base = || ServerConfig {
            budget: Some(1e9),
            epsilon: EPSILON,
            sample_size: 1_000,
            seed: env.seed,
            threads: serve::CLIENTS,
            cache_capacity: w.cache_capacity,
            ..ServerConfig::default()
        };
        let serving = ServerState::new(ServerConfig {
            store_path: Some(serve::store_dir(dir)),
            attach: w.shapes.iter().map(|s| s.name.to_string()).collect(),
            ..base()
        })
        .map_err(|e| format!("in-process serving state: {e}"))?;
        let spender = ServerState::new(ServerConfig {
            datasets: w
                .shapes
                .iter()
                .map(|s| DatasetSpec::synthetic(s.name, 16, 97))
                .collect(),
            ledger_path: Some(dir.join(format!("replay-{tag}.jsonl"))),
            ..base()
        })
        .map_err(|e| format!("in-process spending state: {e}"))?;
        Ok(Replay {
            serving,
            spender,
            reply: String::new(),
        })
    }

    /// One request through every layer, in the daemon's order.
    fn op(&mut self, tracer: &mut Tracer, op_id: u64, line: &str) -> Result<(), String> {
        tracer.span("request", op_id, |t| {
            let request = t.span(PARSE_REQUEST, op_id, |_| {
                wire::parse(line)
                    .map_err(|e| e.to_string())
                    .and_then(|v| Request::from_json(&v))
            })?;
            let Request::Release {
                dataset,
                query,
                column,
                ..
            } = request
            else {
                return Err("the replay only sends releases".to_string());
            };
            let cached = t.span(CACHE_LOOKUP, op_id, |_| {
                self.serving.cached_prepared(&dataset, query, &column)
            });
            let hit = cached.is_some();
            let (prepared, query_id) = match cached {
                Some(p) => (p, ServerState::query_id(&dataset, query, &column)),
                None => t
                    .span(PREPARE_COLD, op_id, |_| {
                        self.serving.prepare(&dataset, query, &column)
                    })
                    .map(|(p, id, _)| (p, id))
                    .map_err(|e| e.to_string())?,
            };
            t.span(SPEND, op_id, |_| {
                self.spender.spend(&dataset, &query_id, EPSILON)
            })
            .map_err(|e| e.to_string())?;
            let outcome = t
                .span(
                    if hit { RELEASE_WARM } else { RELEASE_FIRST },
                    op_id,
                    |_| {
                        self.serving.release_prepared(
                            &dataset,
                            &query_id,
                            &prepared,
                            Some(EPSILON),
                            false,
                        )
                    },
                )
                .map_err(|e| e.to_string())?;
            let response = Response::Released(Box::new(outcome));
            self.reply.clear();
            t.span(ENCODE_RESPONSE, op_id, |_| {
                response.write_line(&mut self.reply)
            });
            t.span(PARSE_RESPONSE, op_id, |_| {
                wire::parse(self.reply.trim_end())
                    .map_err(|e| e.to_string())
                    .and_then(|v| Response::from_json(&v))
            })
            .map(|_| ())
        })
    }

    /// Warm-up, then `ops` requests of client 0's sequence. Returns the
    /// median time of one measured request, µs.
    fn run(
        &mut self,
        w: &ServeWorkload,
        sequence: &[u32],
        ops: usize,
        tracer: &mut Tracer,
    ) -> Result<f64, String> {
        let keys = w.keys();
        let lines: Vec<String> = keys
            .iter()
            .map(|&k| w.request(k, false).to_line())
            .collect();
        let mut untraced = Tracer::new(false);
        let skip = match w.warmup {
            Warmup::EveryKey => {
                // Traced: these are the workload's only cold prepares.
                for (k, line) in lines.iter().enumerate() {
                    self.op(tracer, WARMUP_OP + k as u64, line)?;
                }
                0
            }
            Warmup::Ops(n) => {
                for &k in &sequence[..n] {
                    self.op(&mut untraced, 0, &lines[k as usize])?;
                }
                n
            }
        };
        let mut op_us = Vec::with_capacity(ops);
        for (i, &k) in sequence[skip..skip + ops].iter().enumerate() {
            let (result, seconds) = timed(|| self.op(tracer, i as u64, &lines[k as usize]));
            result?;
            op_us.push(seconds * 1e6);
        }
        Ok(median(&op_us))
    }
}

/// Op ids at or above this belong to the replay's warm-up.
const WARMUP_OP: u64 = 1 << 40;

/// The traced run proper: replays the seeded request sequence in process
/// once without and once with spans (fresh states each time, so enforcer
/// history is the same on both), writes `trace-<workload>.json`, and
/// reconciles the layer times with the daemon-driven latency.
fn replay(
    w: &ServeWorkload,
    env: &RunEnv,
    run: &ServingRun<'_>,
    report: &mut RunReport,
) -> Result<(), String> {
    let sequence = &run.sequences[0];
    let ops = w.ops_per_trial(env);
    let plain_us =
        Replay::new(w, env, run.dir, "plain")?.run(w, sequence, ops, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced_us = Replay::new(w, env, run.dir, "traced")?.run(w, sequence, ops, &mut tracer)?;

    let path = env.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(
        &path,
        trace::to_json(w.name, tracer.spans()).to_line() + "\n",
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let layers = trace::median_self_us(tracer.spans());
    let median_us = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let m = &mut report.metrics;
    m.set("wire.parse_request_us", median_us(PARSE_REQUEST));
    m.set("wire.encode_response_us", median_us(ENCODE_RESPONSE));
    m.set("wire.parse_response_us", median_us(PARSE_RESPONSE));
    m.set("state.cache_lookup_us", median_us(CACHE_LOOKUP));
    m.set("state.spend_us", median_us(SPEND));
    m.set("state.release_warm_us", median_us(RELEASE_WARM));
    m.set("state.prepare_cold_us", median_us(PREPARE_COLD));
    // Median request against median request: one slow fsync in either
    // loop must not read as tracing overhead.
    m.set("trace.overhead_frac", traced_us / plain_us - 1.0);

    // Shares of the measured requests' accounted time (warm-up excluded).
    let own = trace::self_times_ns(tracer.spans());
    let share_of = |names: &[&str]| {
        let (mut picked, mut total) = (0u64, 0u64);
        for (span, ns) in tracer.spans().iter().zip(&own) {
            if span.op_id < WARMUP_OP && span.name != "request" {
                total += ns;
                if names.contains(&span.name) {
                    picked += ns;
                }
            }
        }
        picked as f64 / total.max(1) as f64
    };
    // `spend` is one budget CAS plus the group-commit submit: ledger time.
    m.set(
        "trace.share_ledger_wire",
        share_of(&[PARSE_REQUEST, ENCODE_RESPONSE, PARSE_RESPONSE, SPEND]),
    );
    m.set(
        "trace.share_core_dataflow",
        share_of(&[PREPARE_COLD, RELEASE_FIRST, RELEASE_WARM]),
    );

    // Reconciliation: what the daemon-driven median latency holds beyond
    // the sum of the layers on its blocking path.
    let common = run.ping_rtt_us
        + median_us(PARSE_REQUEST)
        + median_us(CACHE_LOOKUP)
        + median_us(SPEND)
        + median_us(ENCODE_RESPONSE);
    match w.expect {
        CacheExpect::AllHits => {
            let residual = run.untraced_p50_us - common - median_us(RELEASE_WARM);
            m.set("residual.serve_warm_us", residual);
            m.set("residual.serve_warm_frac", residual / run.untraced_p50_us);
        }
        CacheExpect::AllMisses => {
            let residual =
                run.untraced_p50_us - common - median_us(PREPARE_COLD) - median_us(RELEASE_FIRST);
            m.set("residual.serve_cold_us", residual);
            m.set("residual.serve_cold_frac", residual / run.untraced_p50_us);
        }
        CacheExpect::Mixed => {}
    }
    report.facts.push(("replay_ops".into(), ops.into()));
    report.facts.push((
        "replay_release_first_us".into(),
        median_us(RELEASE_FIRST).into(),
    ));
    report
        .facts
        .push(("replay_request_us".into(), traced_us.into()));
    report
        .facts
        .push(("replay_spans".into(), tracer.spans().len().into()));
    report
        .facts
        .push(("trace_file".into(), path.display().to_string().into()));
    Ok(())
}
