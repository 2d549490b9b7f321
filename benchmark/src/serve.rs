//! The three serving workloads: a real `upa-serverd` child process over a
//! store the benchmark ingested, driven from outside by a closed loop of
//! two clients through `Client::builder()` and `proto::Request` only.

use crate::daemon::{self, Daemon};
use crate::gen::{self, Exact, KeyChoice};
use crate::json::Json;
use crate::layers;
use crate::report::{Check, RunReport};
use crate::stats::{median, median_of_trials, percentile, samples_beyond, sorted};
use crate::{RunEnv, TRIALS};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use upa_server::proto::{Request, Response};
use upa_server::{AggKind, Client};
use upa_store::{IngestOptions, Store};

/// ε of every release (the daemon's `--epsilon`; requests carry none).
pub const EPSILON: f64 = 0.1;
/// Closed-loop clients = connections = generator threads. Never more
/// than the 2 cores the numbers are sized for.
pub const CLIENTS: usize = 2;
/// A finite budget nothing here can exhaust, so `budget` reports `spent`.
const BUDGET: f64 = 1e9;
/// Draws a key needs before its Laplace scale is checked on its own.
const PER_KEY_DRAWS: usize = 2_000;

/// One store-backed dataset.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Dataset name.
    pub name: &'static str,
    /// Rows per column.
    pub rows: usize,
    /// Columns `c0..`.
    pub columns: usize,
}

/// What the unmeasured warm-up sends on each connection.
#[derive(Debug, Clone, Copy)]
pub enum Warmup {
    /// One release of every key, so all of them are prepared and cached.
    EveryKey,
    /// The first `n` requests of the client's own sequence.
    Ops(usize),
}

/// What every measured reply's `cache` field must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheExpect {
    /// 100 % `cache: hit`.
    AllHits,
    /// 100 % `cache: miss`.
    AllMisses,
    /// Hits and misses interleave; nothing asserted.
    Mixed,
}

/// One serving workload's frozen shape.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Permanent name.
    pub name: &'static str,
    /// The datasets, one `Mutex<Upa>` each in the daemon.
    pub shapes: &'static [Shape],
    /// Aggregates asked of every column.
    pub kinds: &'static [AggKind],
    /// The daemon's `--cache-capacity`.
    pub cache_capacity: usize,
    /// How clients pick keys.
    pub choice: KeyChoice,
    /// Every other request carries `deadline_ms = 60000`, which routes it
    /// through the scheduler even when its key is cached.
    pub deadline_every_other: bool,
    /// Requests each client issues per requested second of measurement.
    /// Frozen from the seed commit at 2 cores so a run of `--seconds S`
    /// measures for about S seconds there; the *count* is what stays
    /// fixed across commits, so per-release state (enforcer history,
    /// audits) grows identically on both sides of a comparison.
    pub ops_per_client_second: usize,
    /// The unmeasured warm-up.
    pub warmup: Warmup,
    /// The cache state every measured reply must report.
    pub expect: CacheExpect,
    /// End with SIGKILL mid-traffic and a restart on the same ledger.
    pub crash_restart: bool,
}

/// One key: an aggregate over one column of one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// Index into the workload's shapes.
    pub dataset: usize,
    /// Column index.
    pub column: usize,
    /// The aggregate.
    pub kind: AggKind,
}

impl ServeWorkload {
    /// Every key, dataset-major then column then aggregate.
    pub fn keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for (dataset, shape) in self.shapes.iter().enumerate() {
            for column in 0..shape.columns {
                for &kind in self.kinds {
                    keys.push(Key {
                        dataset,
                        column,
                        kind,
                    });
                }
            }
        }
        keys
    }

    /// Measured requests per client in one trial.
    pub fn ops_per_trial(&self, env: &RunEnv) -> usize {
        let ops = self.ops_per_client_second * env.seconds as usize / env.ops_divisor();
        (ops / TRIALS).max(2)
    }

    fn warmup_ops(&self) -> usize {
        match self.warmup {
            Warmup::EveryKey => 0,
            Warmup::Ops(n) => n,
        }
    }

    /// The request of `key`, with or without the scheduler-routing
    /// deadline.
    pub fn request(&self, key: Key, deadline: bool) -> Request {
        Request::Release {
            dataset: self.shapes[key.dataset].name.to_string(),
            query: key.kind,
            column: format!("c{}", key.column),
            epsilon: None,
            audit: false,
            deadline_ms: deadline.then_some(60_000),
        }
    }

    /// Per-client key sequences of one trial: warm-up prefix plus the
    /// measured part.
    pub fn sequences(&self, env: &RunEnv, trial: usize) -> Vec<Vec<u32>> {
        let ops = self.warmup_ops() + self.ops_per_trial(env);
        (0..CLIENTS)
            .map(|c| gen::key_sequence(env.seed, trial, c, self.keys().len(), ops, self.choice))
            .collect()
    }

    /// FNV-1a over every trial's sequences: `workload.sequence_fnv`.
    pub fn sequence_fnv(&self, env: &RunEnv) -> u64 {
        let all: Vec<Vec<u32>> = (0..TRIALS).flat_map(|t| self.sequences(env, t)).collect();
        gen::sequence_fnv(&all)
    }

    /// Arguments of the daemon under test. The flush policy is the
    /// daemon's default (`--ledger-commit-us 200`, fsync before reply).
    fn daemon_args(&self, dir: &Path, seed: u64) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--store".into(),
            store_dir(dir).display().to_string(),
            "--ledger".into(),
            ledger_path(dir).display().to_string(),
            "--budget".into(),
            format!("{BUDGET:e}"),
            "--epsilon".into(),
            EPSILON.to_string(),
            "--sample-size".into(),
            "1000".into(),
            "--seed".into(),
            seed.to_string(),
            "--port".into(),
            "0".into(),
            "--threads".into(),
            CLIENTS.to_string(),
            "--max-inflight".into(),
            CLIENTS.to_string(),
            "--cache-capacity".into(),
            self.cache_capacity.to_string(),
        ];
        for shape in self.shapes {
            args.push("--attach".into());
            args.push(shape.name.into());
        }
        args
    }
}

/// The store directory inside a scratch directory.
pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

/// The ledger file inside a scratch directory.
pub fn ledger_path(dir: &Path) -> PathBuf {
    dir.join("ledger.jsonl")
}

/// The exact aggregate of `key`, from the generator's own data.
pub fn exact(key: Key, data: &[Vec<Exact>]) -> f64 {
    let column = &data[key.dataset][key.column];
    match key.kind {
        AggKind::Sum => column.sum,
        AggKind::Mean => column.mean(),
        AggKind::Count => column.rows as f64,
    }
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `<out>/scratch-<pid>-<tag>` afresh.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn create(out: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out.join(format!("scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One release reply, as the checks need it.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Index into [`ServeWorkload::keys`].
    pub key: u32,
    /// Client-observed round trip, µs.
    pub latency_us: f64,
    /// `cache: hit`.
    pub cached: bool,
    /// The noisy answer.
    pub released: f64,
    /// The reported Laplace scale.
    pub noise_scale: f64,
    /// A finite answer at the right ε. Anything else — error reply,
    /// `busy`/`deadline` refusal, wrong ε — is a failure and misses every
    /// latency figure.
    pub ok: bool,
}

/// Sends one request and times the round trip.
fn issue(client: &mut Client, key: u32, request: &Request) -> OpRecord {
    let start = Instant::now();
    let reply = client.request(request);
    let latency_us = start.elapsed().as_secs_f64() * 1e6;
    match reply {
        Ok(Response::Released(outcome))
            if outcome.released.is_finite() && (outcome.epsilon - EPSILON).abs() < 1e-12 =>
        {
            OpRecord {
                key,
                latency_us,
                cached: outcome.cached,
                released: outcome.released,
                noise_scale: outcome.noise_scale,
                ok: true,
            }
        }
        _ => OpRecord {
            key,
            latency_us,
            cached: false,
            released: f64::NAN,
            noise_scale: f64::NAN,
            ok: false,
        },
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::builder()
        .connect_timeout(Duration::from_secs(10))
        .read_timeout(Duration::from_secs(120))
        .connect(addr)
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// What one ingest wrote, summed over the workload's datasets.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestTotals {
    /// Bytes of `f64` values handed to `Store::ingest`.
    pub user_bytes: u64,
    /// Bytes the store wrote (chunks plus manifests).
    pub disk_bytes: u64,
    /// Seconds inside `Store::ingest`.
    pub seconds: f64,
}

/// A set-up serving stack, ready to be measured.
struct Live {
    scratch: Scratch,
    data: Vec<Vec<Exact>>,
    daemon: Daemon,
    clients: Vec<Client>,
    ingest: IngestTotals,
    /// Releases acknowledged during warm-up, per dataset.
    warm_acked: Vec<u64>,
}

/// Set-up: generate, ingest, spawn the daemon, first `ping`, warm up.
/// All of it is `setup_s`.
fn set_up(
    w: &ServeWorkload,
    env: &RunEnv,
    sequences: &[Vec<u32>],
    trial: usize,
) -> Result<(Live, f64), String> {
    let start = Instant::now();
    let scratch = Scratch::create(&env.out_dir, &format!("{}-{trial}", w.name))?;
    let store =
        Store::open(store_dir(&scratch.0)).map_err(|e| format!("opening the store: {e}"))?;
    let mut data = Vec::new();
    let mut ingest = IngestTotals::default();
    for (d, shape) in w.shapes.iter().enumerate() {
        let columns = gen::dataset(
            env.seed,
            d as u64,
            shape.rows / env.rows_divisor(),
            shape.columns,
        );
        let ingest_start = Instant::now();
        let report = store
            .ingest(shape.name, &columns, &IngestOptions::default())
            .map_err(|e| format!("ingesting {}: {e}", shape.name))?;
        ingest.seconds += ingest_start.elapsed().as_secs_f64();
        ingest.user_bytes += report.rows * report.columns.len() as u64 * 8;
        ingest.disk_bytes += report.bytes;
        data.push(
            columns
                .iter()
                .map(|(_, values)| Exact::of(values))
                .collect(),
        );
    }
    let daemon = Daemon::spawn(
        &daemon::serverd_path().map_err(|e| e.to_string())?,
        &w.daemon_args(&scratch.0, env.seed),
        &scratch.0.join("daemon.stderr"),
    )
    .map_err(|e| format!("spawning the daemon: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(connect(daemon.addr())?);
    }
    clients[0]
        .request(&Request::Ping)
        .map_err(|e| format!("first ping: {e}"))?;

    // Warm-up: connections, prepared cache, group committer. Unmeasured,
    // but its releases spend budget, so they are counted for the check.
    let keys = w.keys();
    let mut warm_acked = vec![0u64; w.shapes.len()];
    let warm: Vec<Vec<OpRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sequences)
            .map(|(client, sequence)| {
                let keys = &keys;
                scope.spawn(move || match w.warmup {
                    Warmup::EveryKey => (0..keys.len() as u32)
                        .map(|k| issue(client, k, &w.request(keys[k as usize], false)))
                        .collect::<Vec<_>>(),
                    Warmup::Ops(n) => sequence[..n]
                        .iter()
                        .map(|&k| issue(client, k, &w.request(keys[k as usize], false)))
                        .collect(),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client thread"))
            .collect()
    });
    for op in warm.iter().flatten() {
        if !op.ok {
            return Err(format!("a warm-up release of key {} failed", op.key));
        }
        warm_acked[keys[op.key as usize].dataset] += 1;
    }
    let live = Live {
        scratch,
        data,
        daemon,
        clients,
        ingest,
        warm_acked,
    };
    Ok((live, start.elapsed().as_secs_f64()))
}

/// The measured phase of one trial: both clients start together and each
/// issues its sequence back to back. Returns each client's records and
/// the wall time from the common start to the last reply.
fn measure(
    w: &ServeWorkload,
    clients: &mut [Client],
    sequences: &[Vec<u32>],
) -> (Vec<Vec<OpRecord>>, f64) {
    let keys = w.keys();
    let requests: Vec<[Request; 2]> = keys
        .iter()
        .map(|&k| [w.request(k, false), w.request(k, true)])
        .collect();
    let barrier = Barrier::new(CLIENTS + 1);
    let skip = w.warmup_ops();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sequences)
            .map(|(client, sequence)| {
                let (barrier, requests) = (&barrier, &requests);
                scope.spawn(move || {
                    barrier.wait();
                    sequence[skip..]
                        .iter()
                        .enumerate()
                        .map(|(i, &key)| {
                            let deadline = w.deadline_every_other && i % 2 == 1;
                            issue(client, key, &requests[key as usize][usize::from(deadline)])
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let records = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (records, start.elapsed().as_secs_f64())
    })
}

/// `budget.spent` of one dataset.
fn spent(client: &mut Client, dataset: &str) -> Result<f64, String> {
    match client.request(&Request::Budget {
        dataset: dataset.to_string(),
    }) {
        Ok(Response::Budget {
            budget: Some((_, spent, _)),
            ..
        }) => Ok(spent),
        other => Err(format!("budget of {dataset}: unexpected reply {other:?}")),
    }
}

/// Check (a) for one trial: the daemon's accountant agrees with what was
/// acknowledged, per dataset, within 1e-6 relative. Returns the failures.
fn spent_mismatches(
    w: &ServeWorkload,
    client: &mut Client,
    acked: &[u64],
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    for (shape, &acked) in w.shapes.iter().zip(acked) {
        let reported = spent(client, shape.name)?;
        let expected = acked as f64 * EPSILON;
        if (reported - expected).abs() > 1e-6 * expected.max(f64::MIN_POSITIVE) {
            mismatches.push(format!(
                "{}: spent {reported} vs {acked} acked x {EPSILON} = {expected}",
                shape.name
            ));
        }
    }
    Ok(mismatches)
}

/// Check (b): the noise actually delivered is Laplace at the reported
/// scale around the exact aggregate. With `z = (released − exact) /
/// noise_scale`, a Laplace draw has `E|z − median| = 1`; a speed-up that
/// quietly changed sampling, record removal or the draw moves it.
fn check_noise(keys: &[Key], data: &[Vec<Exact>], ops: &[OpRecord], checks: &mut Vec<Check>) {
    let mut per_key: Vec<Vec<f64>> = vec![Vec::new(); keys.len()];
    for op in ops.iter().filter(|op| op.ok && op.noise_scale > 0.0) {
        let z = (op.released - exact(keys[op.key as usize], data)) / op.noise_scale;
        per_key[op.key as usize].push(z);
    }
    let spread = |z: &[f64]| {
        let centre = median(z);
        let mad = z.iter().map(|v| (v - centre).abs()).sum::<f64>() / z.len() as f64;
        (centre, mad)
    };
    // 5 % of the scale, as long as that is at least five standard errors
    // of the mean of |z| (sd 1): from 10 000 draws on it is exactly 5 %.
    let tolerance = |n: usize| (5.0 / (n as f64).sqrt()).max(0.05);
    let mut checked = 0usize;
    let mut worst: Option<(usize, usize, f64, f64, f64)> = None;
    for (k, z) in per_key
        .iter()
        .enumerate()
        .filter(|(_, z)| z.len() >= PER_KEY_DRAWS)
    {
        let (centre, mad) = spread(z);
        checked += 1;
        let badness = (mad - 1.0).abs() / tolerance(z.len()) + centre.abs() / 4.0;
        if worst.is_none_or(|w| badness > w.4) {
            worst = Some((k, z.len(), centre, mad, badness));
        }
    }
    if let Some((k, n, centre, mad, _)) = worst {
        checks.push(Check::new(
            "laplace_scale.per_key",
            (mad - 1.0).abs() <= tolerance(n) && centre.abs() <= 4.0,
            format!(
                "{checked} keys with >= {PER_KEY_DRAWS} draws; worst key {k} ({n} draws): mean |z - median| = {mad} (tolerance {}), median z = {centre}",
                tolerance(n)
            ),
        ));
    }
    // Keys with too few draws of their own still count in the pool.
    let pooled: Vec<f64> = per_key.into_iter().flatten().collect();
    if pooled.len() >= 1_000 {
        let (centre, mad) = spread(&pooled);
        let pooled_tolerance = tolerance(pooled.len());
        checks.push(Check::new(
            "laplace_scale.pooled",
            (mad - 1.0).abs() <= pooled_tolerance && centre.abs() <= 4.0,
            format!(
                "{} draws: mean |z - median| = {mad} (tolerance {pooled_tolerance}), median z = {centre}",
                pooled.len()
            ),
        ));
    }
}

/// Check (d): the workload exercised the cache state it exists for.
fn check_cache(expect: CacheExpect, ops: &[OpRecord], checks: &mut Vec<Check>) {
    let hits = ops.iter().filter(|op| op.ok && op.cached).count();
    let misses = ops.iter().filter(|op| op.ok && !op.cached).count();
    let passed = match expect {
        CacheExpect::AllHits => misses == 0,
        CacheExpect::AllMisses => hits == 0,
        CacheExpect::Mixed => hits > 0 && misses > 0,
    };
    checks.push(Check::new(
        "cache_state",
        passed,
        format!("{hits} hits, {misses} misses, expected {expect:?}"),
    ));
}

/// Keeps both clients releasing, SIGKILLs the daemon under them, restarts
/// it on the same ledger and store, and checks (c): every acknowledged
/// spend was replayed, and nothing beyond what was sent. Returns the new
/// stack and the seconds from the kill to the first `budget` reply.
fn crash_and_restart(
    w: &ServeWorkload,
    env: &RunEnv,
    live: Live,
    acked_before: u64,
    checks: &mut Vec<Check>,
) -> Result<(Scratch, Daemon, Client, f64), String> {
    let Live {
        scratch,
        daemon,
        mut clients,
        ..
    } = live;
    let key = w.keys()[0];
    let request = w.request(key, false);
    let start = Instant::now();
    let (burst, killed_at): (Vec<(u64, u64)>, Instant) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let request = &request;
                scope.spawn(move || {
                    let (mut sent, mut acked) = (0u64, 0u64);
                    // Bounded so a daemon that survives the kill cannot
                    // hang the run.
                    while start.elapsed() < Duration::from_secs(10) {
                        sent += 1;
                        if !issue(client, 0, request).ok {
                            break;
                        }
                        acked += 1;
                    }
                    (sent, acked)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        let killed_at = Instant::now();
        daemon.kill();
        let burst = handles
            .into_iter()
            .map(|h| h.join().expect("burst client thread"))
            .collect();
        (burst, killed_at)
    });
    let daemon = Daemon::spawn(
        &daemon::serverd_path().map_err(|e| e.to_string())?,
        &w.daemon_args(&scratch.0, env.seed),
        &scratch.0.join("daemon-restarted.stderr"),
    )
    .map_err(|e| format!("restarting the daemon: {e}"))?;
    let mut client = connect(daemon.addr())?;
    let replayed = spent(&mut client, w.shapes[key.dataset].name)?;
    let restart_s = killed_at.elapsed().as_secs_f64();

    let sent = acked_before + burst.iter().map(|(s, _)| s).sum::<u64>();
    let acked = acked_before + burst.iter().map(|(_, a)| a).sum::<u64>();
    let slack = 1e-6 * replayed.abs();
    checks.push(Check::new(
        "crash_replay",
        acked as f64 * EPSILON <= replayed + slack && replayed <= sent as f64 * EPSILON + slack,
        format!(
            "replayed spent {replayed}; acked {acked} x {EPSILON} = {}, sent {sent} x {EPSILON} = {}",
            acked as f64 * EPSILON,
            sent as f64 * EPSILON
        ),
    ));
    Ok((scratch, daemon, client, restart_s))
}

fn ask_to_stop(mut client: Client, daemon: Daemon) {
    let _ = client.request(&Request::Shutdown);
    drop(client);
    daemon.wait_exit(Duration::from_secs(10));
}

/// Runs one serving workload: `TRIALS` independent trials, each with its
/// own store, daemon and connections.
///
/// # Errors
///
/// Set-up failures (no daemon binary, ingest or spawn errors): nothing
/// was measured, so there is no result to print.
pub fn run(w: &ServeWorkload, env: &RunEnv) -> Result<RunReport, String> {
    let keys = w.keys();
    let mut report = RunReport {
        workload: w.name,
        traced: env.traced,
        ..RunReport::default()
    };
    let mut checks = Vec::new();
    let mut spent_failures = Vec::new();
    let mut all: Vec<OpRecord> = Vec::new();
    let mut setup_times = Vec::with_capacity(TRIALS);
    let (mut qps, mut p50, mut p90, mut peak_rss_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hit_p99, mut miss_p50) = (Vec::new(), Vec::new());
    let mut p99 = Vec::new();
    let mut beyond_p90 = usize::MAX;
    let mut measured_wall_s = 0.0;
    let mut data: Vec<Vec<Exact>> = Vec::new();

    for trial in 0..TRIALS {
        let last = trial + 1 == TRIALS;
        let sequences = w.sequences(env, trial);
        let (mut live, setup_s) = set_up(w, env, &sequences, trial)?;
        setup_times.push(setup_s);
        // Every trial generates the same data from the seed; keep one copy
        // for the checks.
        data = std::mem::take(&mut live.data);

        // The per-layer extras ride on the last trial's stack.
        let ping_rtt_us = if env.traced && last {
            let client = &mut live.clients[0];
            let rtts: Vec<f64> = (0..500)
                .map(|_| {
                    let start = Instant::now();
                    let _ = client.request(&Request::Ping);
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&rtts)
        } else {
            0.0
        };
        let rss_before_kb = live.daemon.status_kb("VmRSS").unwrap_or(0);

        let (records, wall) = measure(w, &mut live.clients, &sequences);

        let rss_after_kb = live.daemon.status_kb("VmRSS").unwrap_or(0);
        peak_rss_mb.push(live.daemon.status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0);
        measured_wall_s += wall;
        let ops: Vec<OpRecord> = records.into_iter().flatten().collect();
        let mut acked = live.warm_acked.clone();
        for op in ops.iter().filter(|op| op.ok) {
            acked[keys[op.key as usize].dataset] += 1;
        }
        let total_acked: u64 = acked.iter().sum();
        for mismatch in spent_mismatches(w, &mut live.clients[0], &acked)? {
            spent_failures.push(format!("trial {trial}: {mismatch}"));
        }

        let latencies = sorted(
            ops.iter()
                .filter(|op| op.ok)
                .map(|op| op.latency_us)
                .collect(),
        );
        if !latencies.is_empty() {
            qps.push(latencies.len() as f64 / wall);
            p50.push(percentile(&latencies, 50.0));
            p90.push(percentile(&latencies, 90.0));
            p99.push(percentile(&latencies, 99.0));
            beyond_p90 = beyond_p90.min(samples_beyond(latencies.len(), 90.0));
            let of = |cached: bool| {
                sorted(
                    ops.iter()
                        .filter(|op| op.ok && op.cached == cached)
                        .map(|op| op.latency_us)
                        .collect(),
                )
            };
            let (hits, misses) = (of(true), of(false));
            if !hits.is_empty() {
                hit_p99.push(percentile(&hits, 99.0));
            }
            if !misses.is_empty() {
                miss_p50.push(percentile(&misses, 50.0));
            }
        }
        let trial_ok = latencies.len();
        all.extend(ops);

        // The last trial's stack also serves the per-layer extras, and on
        // `serve_warm` the crash; every stack ends with a graceful stop.
        let crash = last && w.crash_restart;
        let layered = last && env.traced;
        // Scraped before the crash phase replaces the daemon.
        let scraped = if layered {
            Some(layers::scrape(&mut live.clients[0])?)
        } else {
            None
        };
        let ingest = live.ingest;
        let (scratch, daemon, client, restart_s) = if crash {
            crash_and_restart(w, env, live, total_acked, &mut checks)?
        } else {
            let Live {
                scratch,
                daemon,
                mut clients,
                ..
            } = live;
            (scratch, daemon, clients.swap_remove(0), 0.0)
        };
        ask_to_stop(client, daemon);

        if let Some(scraped) = &scraped {
            let m = &mut report.metrics;
            m.set("client.ping_rtt_us", ping_rtt_us);
            m.set(
                "server.rss_growth_bytes_per_release",
                rss_after_kb.saturating_sub(rss_before_kb) as f64 * 1024.0 / trial_ok.max(1) as f64,
            );
            m.set("ledger.restart_s", restart_s);
            m.set(
                "workload.sequence_fnv",
                crate::stats::hash_as_f64(w.sequence_fnv(env)),
            );
            layers::serving_layers(
                w,
                env,
                &layers::ServingRun {
                    dir: &scratch.0,
                    sequences: &sequences,
                    scraped,
                    releases: total_acked,
                    untraced_p50_us: *p50.last().ok_or("no release has succeeded yet")?,
                    ingest,
                    ping_rtt_us,
                },
                &mut report,
            )?;
        }
        drop(scratch);
    }
    if qps.is_empty() {
        return Err("no release succeeded in any trial; see the daemon's stderr".into());
    }

    report.attempted = all.len() as u64;
    report.failed = all.iter().filter(|op| !op.ok).count() as u64;
    checks.push(Check::new(
        "budget_spent",
        spent_failures.is_empty(),
        format!("budget.spent = acked releases x {EPSILON} within 1e-6 on every dataset of {TRIALS} trials; mismatches: {spent_failures:?}"),
    ));
    check_noise(&keys, &data, &all, &mut checks);
    check_cache(w.expect, &all, &mut checks);

    let trials = [
        ("qps", median_of_trials(qps)),
        ("p50_us", median_of_trials(p50)),
        ("p90_us", median_of_trials(p90)),
        ("peak_rss_mb", median_of_trials(peak_rss_mb)),
        ("setup_s", median_of_trials(setup_times)),
    ];
    let m = &mut report.metrics;
    if env.traced {
        m.set(
            "serve.fail_rate",
            report.failed as f64 / report.attempted as f64,
        );
        m.set("serve.p99_us", median(&p99));
        if !hit_p99.is_empty() {
            m.set("serve.hit_p99_us", median(&hit_p99));
        }
        if !miss_p50.is_empty() {
            m.set("serve.miss_p50_us", median(&miss_p50));
        }
    } else {
        for (name, summary) in &trials {
            m.set(name, summary.median);
        }
    }
    report.trials = trials
        .into_iter()
        .map(|(name, s)| (name.to_string(), s))
        .collect();
    let per_trial = w.ops_per_trial(env);
    let mut facts = vec![
        ("rows".to_string(), Json::Arr(data.iter().map(|d| Json::from(d[0].rows)).collect())),
        ("columns".to_string(), Json::Arr(w.shapes.iter().map(|s| Json::from(s.columns)).collect())),
        ("keys".to_string(), keys.len().into()),
        ("clients".to_string(), CLIENTS.into()),
        ("ops_per_client_per_trial".to_string(), per_trial.into()),
        ("ops_per_trial".to_string(), (per_trial * CLIENTS).into()),
        ("samples_beyond_p90_per_trial".to_string(), beyond_p90.into()),
        ("measured_wall_s".to_string(), measured_wall_s.into()),
        (
            "loop".to_string(),
            "closed, 2 clients: analysts and jobs wait for each noisy answer before asking the next".into(),
        ),
    ];
    facts.append(&mut report.facts);
    report.facts = facts;
    report.checks = checks;
    Ok(report)
}
