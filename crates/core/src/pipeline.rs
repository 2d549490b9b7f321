//! The UPA pipeline — the paper's Algorithm 1 plus the iDP release.
//!
//! [`Upa::run`] executes the four phases end to end:
//!
//! 1. **Partition & Sample** — every record falls in one of two logical
//!    halves `x1`/`x2`, [`half_of`] its query's stable half key, so a
//!    record's half depends on its content alone; `n` differing records
//!    `S` are sampled uniformly from the whole input and `n` candidate
//!    additions from the record domain.
//! 2. **Parallel Map** — the mapper runs over `S′` (the remainder) on the
//!    engine, fused into the reduce, and over the 2·n sampled records
//!    inline (they are few).
//! 3. **Union-Preserving Reduce** — the remainder reduces **once**,
//!    per-half, one engine task per slab, in place (`S′` is never
//!    materialised); exchanging the per-slab partials models RANGE
//!    ENFORCER's record exchange (the engine-visible cost UPA adds to
//!    local queries, cf. Figure 2(b)). A query handed its source's exact
//!    half totals ([`MapReduceQuery::with_half_totals`], the served
//!    aggregates) folds nothing: each half's remainder is its exact total
//!    less its sampled records, `R(M(S′))_h = T_h ⊖ Σ_{s ∈ S_h} M(s)`,
//!    rounded once, so it reads only its sample. Prefix/suffix partial
//!    reductions over the mapped sample then yield every `f(x − sᵢ)` in
//!    O(1) each — the concrete realisation of "reuse `R(M(S′))`".
//! 4. **iDP Enforcement** — per-component MLE normal fit of the 2·n
//!    neighbour outputs, P1–P99 range, RANGE ENFORCER (Algorithm 2),
//!    range clamping, Laplace release. The fit draws no randomness, so
//!    [`Upa::prepare`] runs it with phases 1–3; a release starts at RANGE
//!    ENFORCER.

use crate::audit::QueryAudit;
use crate::budget::BudgetAccountant;
use crate::config::UpaConfig;
use crate::domain::{DomainDraws, DomainSampler};
use crate::enforcer::{EnforceOutcome, EnforceState, QuerySignature, RangeEnforcer};
use crate::error::UpaError;
use crate::output::{DpOutput, OutputRange};
use crate::query::{half_of, MapReduceQuery};
use crate::source::RecordSource;
use dataflow::columnar::ColumnarDataset;
use dataflow::{Context, Data, MetricsSnapshot, SpanRecorder, SpanScope, StageSpan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use upa_stats::sampling::FloydDraws;
use upa_stats::{LaplaceMechanism, Normal};

/// One slab task's remainder fold: one accumulator per logical half,
/// and the records read, for the `reduce` span.
type SlabFold<Acc> = ([Option<Acc>; 2], u64);

/// The result of one UPA query execution.
#[derive(Debug, Clone)]
pub struct UpaResult<Out> {
    /// The value released to the analyst (noisy unless
    /// [`UpaConfig::add_noise`] is off).
    pub released: Out,
    /// The range-enforced output before noise (never released in
    /// production; exposed for the accuracy experiments).
    pub enforced: Out,
    /// The exact query output `f(x)` before enforcement.
    pub raw: Out,
    /// Per-component inferred local sensitivity (`P99 − P1` of the MLE
    /// normal fit to the neighbour outputs) — the width of the enforced
    /// range, and therefore the noise calibration (Algorithm 1, line 20).
    pub sensitivity: Vec<f64>,
    /// Per-component *empirical* local-sensitivity estimate: the largest
    /// observed `|f(x) − f(y)|` over the sampled neighbouring datasets.
    /// This is the quantity the paper's Figure 2(a) compares against the
    /// brute-force ground truth of Definition II.1 (the percentile width
    /// above deliberately over-covers it, so it is not the comparison
    /// target).
    pub empirical_sensitivity: Vec<f64>,
    /// The enforced output range `Ô_f`.
    pub range: OutputRange,
    /// Outputs of the query on `x − sᵢ` for each sampled record. Shared
    /// with the prepared query, so a repeat release copies none of them.
    pub removal_outputs: Arc<[Out]>,
    /// Outputs of the query on `x + s̄ᵢ` for each sampled addition
    /// (shared like `removal_outputs`).
    pub addition_outputs: Arc<[Out]>,
    /// What RANGE ENFORCER did.
    pub enforce_outcome: EnforceOutcome,
    /// Effective sample size (min of the configured `n` and `|x|`).
    pub sample_size: usize,
    /// Privacy budget charged for this release.
    pub epsilon: f64,
}

impl<Out: DpOutput> UpaResult<Out> {
    /// The maximum sensitivity component — the scalar the paper reports
    /// for scalar queries.
    pub fn max_sensitivity(&self) -> f64 {
        self.sensitivity.iter().copied().fold(0.0, f64::max)
    }

    /// The maximum empirical-sensitivity component (L∞ over components),
    /// comparable to [`crate::brute::GroundTruth::local_sensitivity`].
    pub fn max_empirical_sensitivity(&self) -> f64 {
        self.empirical_sensitivity
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// How many recent audits a [`Upa`] is guaranteed to retain; it holds at
/// most twice as many (see [`Upa::audits`]).
pub const AUDIT_RING: usize = 1024;

/// The UPA system: the engine handle and the configuration, read without
/// a lock, and the state concurrent queries must see in one order — the
/// RNG, the RANGE ENFORCER history, the audit ring and the privacy-budget
/// accountant — behind one short critical section.
///
/// Every method takes `&self`, so one `Upa` serves concurrent callers. A
/// preparation holds the lock only for its `2n` RNG draws — Floyd's `n`
/// over the records, then the domain's `n` — and resolves, gathers and
/// reads them after releasing it (a closure-backed domain sampler makes
/// its records while drawing, under the lock); a release holds it for
/// its budget charge, RANGE ENFORCER pass and noise draw. The scan, the
/// neighbour outputs and the MLE fit run outside it.
pub struct Upa {
    ctx: Context,
    config: UpaConfig,
    serial: Mutex<Serial>,
}

/// The part of a [`Upa`] that concurrent queries must see in one order.
struct Serial {
    rng: StdRng,
    enforcer: RangeEnforcer,
    audits: Vec<Arc<QueryAudit>>,
    budget: Option<BudgetAccountant>,
}

/// A read view of the RANGE ENFORCER of a [`Upa`]; holds the engine's
/// lock until dropped, so drop it before the next query on that engine.
pub struct EnforcerRef<'a>(MutexGuard<'a, Serial>);

impl std::ops::Deref for EnforcerRef<'_> {
    type Target = RangeEnforcer;

    fn deref(&self) -> &RangeEnforcer {
        &self.0.enforcer
    }
}

impl std::fmt::Debug for Upa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Upa")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Upa {
    /// Creates a UPA instance over an engine context.
    pub fn new(ctx: Context, config: UpaConfig) -> Self {
        let seed = config.seed;
        Upa {
            ctx,
            config,
            serial: Mutex::new(Serial {
                rng: StdRng::seed_from_u64(seed),
                enforcer: RangeEnforcer::new(),
                audits: Vec::new(),
                budget: None,
            }),
        }
    }

    /// Adds a total privacy budget; each [`Upa::run`] charges its ε and
    /// fails with [`UpaError::BudgetExhausted`] once it runs out.
    pub fn with_budget(mut self, total_epsilon: f64) -> Self {
        self.serial
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .budget = Some(BudgetAccountant::new(total_epsilon));
        self
    }

    /// The engine context.
    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// The active configuration.
    pub fn config(&self) -> &UpaConfig {
        &self.config
    }

    /// The critical section. A query that panicked inside it leaves the
    /// state consistent (its budget charge stands, its release does not
    /// count), so a poisoned lock is safe to keep using.
    fn serial(&self) -> MutexGuard<'_, Serial> {
        self.serial.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The RANGE ENFORCER (for inspecting its history).
    pub fn enforcer(&self) -> EnforcerRef<'_> {
        EnforcerRef(self.serial())
    }

    /// Remaining privacy budget, if an accountant is attached.
    pub fn remaining_budget(&self) -> Option<f64> {
        self.serial().budget.as_ref().map(|b| b.remaining())
    }

    /// The audit record of the most recent successful release.
    pub fn last_audit(&self) -> Option<Arc<QueryAudit>> {
        self.serial().audits.last().cloned()
    }

    /// Audit records of the most recent successful releases, oldest
    /// first. The audits form a ring: at least the last [`AUDIT_RING`]
    /// releases are kept and at most twice that, the older half being
    /// dropped at once when the ring is full, so a long-lived engine holds
    /// bounded audit state.
    pub fn audits(&self) -> Vec<Arc<QueryAudit>> {
        self.serial().audits.clone()
    }

    /// Drops every retained audit (long-lived sessions and benchmarks).
    pub fn clear_audits(&self) {
        self.serial().audits.clear();
    }

    /// Runs a query end to end under iDP.
    ///
    /// # Errors
    ///
    /// * [`UpaError::EmptyDataset`] if `data` has no records;
    /// * [`UpaError::InvalidConfig`] if the configuration is invalid;
    /// * [`UpaError::BudgetExhausted`] if an attached budget cannot cover
    ///   this query's ε.
    pub fn run<T, S, Acc, Out>(
        &self,
        data: &S,
        query: &MapReduceQuery<T, Acc, Out>,
        domain: &dyn DomainSampler<T>,
    ) -> Result<UpaResult<Out>, UpaError>
    where
        T: Data,
        S: RecordSource<T>,
        Acc: Data,
        Out: DpOutput,
    {
        let prepared = self.prepare(data, query, domain)?;
        self.release(&prepared)
    }

    /// Phases 1–3 and the release-independent half of phase 4: samples,
    /// maps and reduces, then computes the `2n` neighbour outputs and the
    /// MLE sensitivity fit, returning a [`PreparedQuery`] that can be
    /// [`Upa::release`]d repeatedly. This realises the paper's §VI-E
    /// extension — "reusing the results computed from the sampled
    /// neighbouring datasets across repeated queries": re-releasing costs
    /// no engine work (no new stages or shuffles), only fresh noise and a
    /// fresh ε budget charge.
    ///
    /// Only the RNG draws take the engine lock: Floyd's `n` draws
    /// ([`FloydDraws::draw`]), then the domain's `n`
    /// ([`DomainSampler::draw_n`]); they alone must be ordered against
    /// other queries. Resolving Floyd's draws into sorted indices,
    /// gathering the sample and reading the domain draws
    /// ([`DomainSampler::materialise`]) follow the lock's release, as do
    /// the scan and the fit, so a concurrent release on this engine never
    /// waits for them. The same RNG stream gives the same sample as
    /// [`upa_stats::sampling::sample_indices`] then
    /// [`DomainSampler::sample_n`].
    ///
    /// `data` is a row [`dataflow::Dataset`] or a
    /// [`dataflow::ColumnarDataset`]; this one body serves both, so what
    /// decides a release is the same by construction: the RNG draws, the
    /// records' logical halves ([`half_of`] the query's half key, the one
    /// rule every path takes them by), and the remainder's fold order —
    /// per slab, one left fold in record order per logical half; the slab
    /// partials left-folded per half, ascending by slab — or, for a query
    /// with exact half totals, no order at all. `S′` is never
    /// materialised: the reduce walks the source in place around the
    /// sampled rows, or reads only the sample.
    ///
    /// # Errors
    ///
    /// * [`UpaError::EmptyDataset`] if `data` has no records;
    /// * [`UpaError::InvalidConfig`] if the configuration is invalid.
    ///
    /// # Panics
    ///
    /// If the query's half totals count other than `data`'s records.
    pub fn prepare<T, S, Acc, Out>(
        &self,
        data: &S,
        query: &MapReduceQuery<T, Acc, Out>,
        domain: &dyn DomainSampler<T>,
    ) -> Result<PreparedQuery<T, Acc, Out>, UpaError>
    where
        T: Data,
        S: RecordSource<T>,
        Acc: Data,
        Out: DpOutput,
    {
        let spans = SpanRecorder::new();
        let prepare_scope = spans.enter("prepare");

        // ---- Phase 1: Partition & Sample -------------------------------
        let len = data.len();
        let (floyd, domain_draws) = self.draw_sample(&spans, len, domain)?;
        let (indices, sampled) = {
            let _scope = spans.enter("partition");
            let indices = floyd.resolve();
            let sampled = data.gather_sorted(&indices);
            (indices, sampled)
        };
        let n = indices.len();
        let (additions, sampled_halves) = {
            let _scope = spans.enter("sample");
            let additions = domain.materialise(domain_draws);
            let hk = query.half_key();
            let halves: Vec<usize> = sampled.iter().map(|t| half_of(hk(t))).collect();
            (additions, halves)
        };

        // ---- Phase 2: Parallel Map --------------------------------------
        let (mapped_sampled, mapped_additions) = {
            let mut scope = spans.enter("map");
            scope.add_records(2 * n as u64);
            let mapped_sampled: Vec<Acc> = sampled.iter().map(|t| query.map(t)).collect();
            let mapped_additions: Vec<Acc> = additions.iter().map(|t| query.map(t)).collect();
            (mapped_sampled, mapped_additions)
        };

        // ---- Phase 3: Union-Preserving Reduce ---------------------------
        // `ReduceByPar` (Algorithm 1, line 7). `R` is commutative and
        // associative (§II-C); `f64` addition is not associative, so a
        // query either fixes one grouping or sums exactly.
        //
        // A query with exact half totals (the served aggregates) takes each
        // half's remainder as its total less its sampled records, rounded
        // once, and reads nothing but its sample.
        //
        // Every other query folds the remainder: one engine task per slab
        // folds the un-sampled records into one accumulator per logical
        // half, each a left fold in record order, and the slab partials
        // then left-fold per half in ascending slab order. A source's runs
        // continue their slab's fold, so chunk layout never reaches it.
        let (rem_half, engine) = match query.exact_remainder() {
            Some(exact) => {
                assert_eq!(
                    exact.totals.records(),
                    len as u64,
                    "half totals of another source"
                );
                let mut scope = spans.enter("reduce");
                scope.add_records(n as u64);
                let rem = exact.remainder(&mapped_sampled, &sampled_halves);
                let engine = MetricsSnapshot {
                    records_processed: n as u64,
                    ..MetricsSnapshot::default()
                };
                (rem, engine)
            }
            None => {
                let mut scope = spans.enter("reduce");
                let folds: Vec<SlabFold<Acc>> = {
                    let q = query.clone();
                    data.fold_slabs(
                        "reduce[remainder]",
                        move |(halves, folded): &mut SlabFold<Acc>, at, run: &[T]| {
                            // One [`MapReduceQuery::fold_run`] call per
                            // uninterrupted stretch between sampled rows,
                            // so a fused kernel sees a plain slice and the
                            // skip test never executes inside the hot loop.
                            let mut next = indices.partition_point(|&g| g < at);
                            let mut pos = 0usize;
                            while pos < run.len() {
                                let stop = match indices.get(next) {
                                    Some(&g) if g < at + run.len() => g - at,
                                    _ => run.len(),
                                };
                                q.fold_run(&run[pos..stop], halves);
                                *folded += (stop - pos) as u64;
                                next += 1;
                                pos = stop + 1;
                            }
                        },
                    )
                };
                // The merge below is RANGE ENFORCER's record exchange: one
                // combined record per (slab, half). The preparation counts
                // its own engine work — this stage and this exchange, and
                // the records it read — because the context's counters also
                // move with every concurrent query.
                let slabs = folds.len() as u64;
                let exchanged = 2 * slabs;
                let bytes = exchanged * std::mem::size_of::<Acc>() as u64;
                self.ctx.record_logical_shuffle(exchanged, bytes);
                let engine = MetricsSnapshot {
                    stages: 1,
                    tasks: slabs,
                    shuffles: 1,
                    shuffle_records: exchanged,
                    shuffle_bytes: bytes,
                    records_processed: len as u64,
                    ..MetricsSnapshot::default()
                };
                let mut rem: [Option<Acc>; 2] = [None, None];
                for (halves, folded) in folds {
                    scope.add_records(folded);
                    for (h, partial) in halves.into_iter().enumerate() {
                        rem[h] = query.merge_opt(rem[h].take(), partial);
                    }
                }
                (rem, engine)
            }
        };

        self.fit(
            spans,
            prepare_scope,
            query,
            mapped_sampled,
            &mapped_additions,
            sampled_halves,
            rem_half,
            engine,
        )
    }

    /// [`Upa::prepare`] under the name the benchmark harness calls.
    ///
    /// # Errors
    ///
    /// As [`Upa::prepare`].
    pub fn prepare_columnar<Acc, Out>(
        &self,
        data: &ColumnarDataset,
        query: &MapReduceQuery<f64, Acc, Out>,
        domain: &dyn DomainSampler<f64>,
    ) -> Result<PreparedQuery<f64, Acc, Out>, UpaError>
    where
        Acc: Data,
        Out: DpOutput,
    {
        self.prepare(data, query, domain)
    }

    /// Releases one noisy output from a prepared query at the configured
    /// ε. Each call charges ε, draws fresh noise and records a RANGE
    /// ENFORCER entry; no engine stages run.
    ///
    /// # Errors
    ///
    /// As [`Upa::release_with`].
    pub fn release<T, Acc, Out>(
        &self,
        prepared: &PreparedQuery<T, Acc, Out>,
    ) -> Result<UpaResult<Out>, UpaError>
    where
        T: Data,
        Acc: Data,
        Out: DpOutput,
    {
        self.release_with(prepared, self.config.epsilon, |_| {})
            .map(|(result, _)| result)
    }

    /// Releases one noisy output from a prepared query at `epsilon` and
    /// returns it with the release's audit. `stamp` edits the audit before
    /// the ring retains it: a frontend whose budget lives outside the
    /// engine writes its own accounting in.
    ///
    /// The release is one critical section: the budget charge; on the
    /// preparation's first release, RANGE ENFORCER (Algorithm 2) over the
    /// prepared fit, whose enforced value the preparation then keeps; the
    /// Laplace draw; the audit. A later release re-records the first one's
    /// enforcer signature (a repeat-count bump) and draws fresh noise over
    /// the kept value. It skips the separation loop on purpose: its
    /// partition outputs are the first release's, so the loop could only
    /// flag the query against its own history and mangle a legitimate
    /// repeat. The check for a kept value and the enforcement share the
    /// critical section, so of concurrent first releases exactly one
    /// enforces.
    ///
    /// # Errors
    ///
    /// * [`UpaError::InvalidConfig`] if `epsilon` is not finite-positive;
    /// * [`UpaError::BudgetExhausted`] if an attached budget cannot cover
    ///   `epsilon`.
    pub fn release_with<T, Acc, Out>(
        &self,
        prepared: &PreparedQuery<T, Acc, Out>,
        epsilon: f64,
        stamp: impl FnOnce(&mut QueryAudit),
    ) -> Result<(UpaResult<Out>, Arc<QueryAudit>), UpaError>
    where
        T: Data,
        Acc: Data,
        Out: DpOutput,
    {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(UpaError::InvalidConfig("epsilon"));
        }
        let p = prepared;
        let spans = SpanRecorder::new();
        let mut guard = self.serial();
        let serial = &mut *guard;
        let release_scope = spans.enter("release");
        serial.charge_budget(&spans, epsilon)?;
        let enforced = match p.enforced.get() {
            Some(enforced) => {
                serial.enforcer.record(enforced.signature.clone());
                enforced
            }
            None => {
                let mut state = PipelineState::new(p);
                let outcome =
                    serial
                        .enforcer
                        .enforce_traced(&mut state, &p.range, &mut serial.rng, &spans);
                p.enforced.get_or_init(|| Enforced {
                    value: Out::from_components(state.output_components()),
                    outcome,
                    signature: serial
                        .enforcer
                        .last_signature()
                        .cloned()
                        .expect("enforcement records a signature"),
                })
            }
        };
        let released = serial.draw_noise(
            &spans,
            self.config.add_noise,
            epsilon,
            &enforced.value,
            &p.sensitivity,
        );
        drop(release_scope);

        let (all_spans, total_nanos) = audit_spans(&p.spans, &spans);
        let mut audit = QueryAudit {
            query: p.query.name().to_string(),
            epsilon,
            budget_remaining: serial.budget.as_ref().map(|b| b.remaining()),
            sensitivity: p.sensitivity.clone(),
            range: p.range.bounds.clone(),
            clamped: enforced.outcome.clamped,
            attack_detected: enforced.outcome.attack_suspected,
            removed_records: enforced.outcome.removed_records,
            sample_size: p.sample_size(),
            group_size: p.group_size,
            spans: all_spans,
            engine: p.engine,
            total_nanos,
        };
        stamp(&mut audit);
        let audit = Arc::new(audit);
        serial.push_audit(Arc::clone(&audit));
        drop(guard);

        let result = UpaResult {
            released,
            enforced: enforced.value.clone(),
            raw: p.raw.clone(),
            sensitivity: p.sensitivity.clone(),
            empirical_sensitivity: p.empirical_sensitivity.clone(),
            range: p.range.clone(),
            removal_outputs: Arc::clone(&p.removal_outputs),
            addition_outputs: Arc::clone(&p.addition_outputs),
            enforce_outcome: enforced.outcome,
            sample_size: p.sample_size(),
            epsilon,
        };
        Ok((result, audit))
    }

    /// The phase-1 draws, shared with the join path and the only part of a
    /// preparation that takes the engine lock: validates the
    /// configuration, rejects an empty input, then, under the lock, makes
    /// Floyd's `n` draws over the `len` records and after them the
    /// domain's `n` draws. The caller resolves both after the lock is
    /// released: [`FloydDraws::resolve`] gives the sorted global indices
    /// of the `n` differing records, [`DomainSampler::materialise`] the
    /// `n` candidate additions.
    pub(crate) fn draw_sample<T>(
        &self,
        spans: &SpanRecorder,
        len: usize,
        domain: &dyn DomainSampler<T>,
    ) -> Result<(FloydDraws, DomainDraws<T>), UpaError> {
        self.config.validate()?;
        if len == 0 {
            return Err(UpaError::EmptyDataset);
        }
        let n = self.config.sample_size.min(len);
        let mut serial = self.serial();
        let floyd = {
            let mut scope = spans.enter("partition");
            scope.add_records(len as u64);
            FloydDraws::draw(&mut serial.rng, len, n)
        };
        let mut scope = spans.enter("sample");
        scope.add_records(2 * n as u64);
        Ok((floyd, domain.draw_n(&mut serial.rng, n)))
    }

    /// The release-independent half of phase 4, shared by
    /// [`Upa::prepare`] and the joinDP path ([`crate::join`]): the `2n`
    /// neighbour outputs — a union-preserving reduce over the sampled
    /// accumulators — and the per-component MLE sensitivity fit and range.
    /// Neither draws from the RNG, so both run here, outside the engine
    /// lock, before `prepare_scope` closes; the result is the
    /// [`PreparedQuery`] every release shares. Both go through
    /// [`Context::par_map`], which keeps a sample of ordinary size on the
    /// calling thread.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit<T, Acc, Out>(
        &self,
        spans: SpanRecorder,
        prepare_scope: SpanScope,
        query: &MapReduceQuery<T, Acc, Out>,
        mapped_sampled: Vec<Acc>,
        mapped_additions: &[Acc],
        sampled_halves: Vec<usize>,
        rem_half: [Option<Acc>; 2],
        engine: MetricsSnapshot,
    ) -> Result<PreparedQuery<T, Acc, Out>, UpaError>
    where
        T: Data,
        Acc: Data,
        Out: DpOutput,
    {
        let n = mapped_sampled.len();
        // R(M(S′)) — computed once, reused for every neighbour output.
        let r_sprime = query.merge_ref(rem_half[0].as_ref(), rem_half[1].as_ref());

        // Group-level privacy (§VI-E extension): with group_size g > 1
        // the differing records are evaluated in disjoint groups of g, so
        // each neighbour output reflects the joint influence of g
        // records. g = 1 is the paper's iDP setting.
        let g = self.config.group_size;
        let (raw, removal_outputs, addition_outputs) = {
            let mut scope = spans.enter("neighbours");
            scope.add_records(n as u64);
            let grouped_sampled: Vec<Acc> = mapped_sampled
                .chunks(g)
                .map(|chunk| query.reduce_all(chunk).expect("chunks are non-empty"))
                .collect();
            let grouped_additions: Vec<Acc> = mapped_additions
                .chunks(g)
                .map(|chunk| query.reduce_all(chunk).expect("chunks are non-empty"))
                .collect();
            let (raw, removals, additions) = neighbour_outputs(
                &self.ctx,
                query,
                r_sprime,
                &grouped_sampled,
                grouped_additions,
            );
            (
                raw,
                Arc::<[Out]>::from(removals),
                Arc::<[Out]>::from(additions),
            )
        };

        // ---- Phase 4: the sensitivity fit --------------------------------
        let dims = raw.components().len();
        let (bounds, sensitivity, empirical_sensitivity) = {
            let _scope = spans.enter("mle_fit");
            // The per-component fits are mutually independent. Each reads
            // its component of every neighbour output in place: one pass
            // for the count and the observed extremes, then the fit's own
            // two passes.
            let fits: Vec<Result<(f64, f64, f64), UpaError>> = {
                let removals = Arc::clone(&removal_outputs);
                let additions = Arc::clone(&addition_outputs);
                let raws: Vec<f64> = raw.components().to_vec();
                self.ctx.par_map(raws, move |c, raw_c: f64| {
                    let samples = removals
                        .iter()
                        .chain(additions.iter())
                        .filter_map(|o| o.components().get(c).copied());
                    let (len, sample_min, sample_max) = samples
                        .clone()
                        .fold((0, f64::INFINITY, f64::NEG_INFINITY), |(k, lo, hi), v| {
                            (k + 1, lo.min(v), hi.max(v))
                        });
                    let fit = Normal::mle_iter(len, samples)?;
                    // The enforced range is the envelope of the fit's
                    // P1–P99 interval (Algorithm 1, line 19) and the
                    // *observed* extremes of the sampled neighbour outputs —
                    // the paper's Figure 3 describes the red lines as the
                    // min/max inferred from the sample, and the envelope
                    // guarantees every sampled neighbour is covered even
                    // when the distribution is strongly non-normal
                    // (discrete counts, heavy tails).
                    let lo = fit.quantile(0.01).min(sample_min);
                    let hi = fit.quantile(0.99).max(sample_max);
                    // The largest |v − f(x)|: rounding is monotone, so
                    // `v − f(x)` is extreme at the extreme samples.
                    let emp = 0.0f64
                        .max((sample_min - raw_c).abs())
                        .max((sample_max - raw_c).abs());
                    Ok((lo, hi, emp))
                })
            };
            let mut bounds = Vec::with_capacity(dims);
            let mut sensitivity = Vec::with_capacity(dims);
            let mut empirical_sensitivity = Vec::with_capacity(dims);
            for fit in fits {
                let (lo, hi, emp) = fit?;
                bounds.push((lo, hi));
                sensitivity.push(hi - lo);
                empirical_sensitivity.push(emp);
            }
            (bounds, sensitivity, empirical_sensitivity)
        };
        drop(prepare_scope);
        Ok(PreparedQuery {
            query: query.clone(),
            mapped_sampled,
            sampled_halves,
            rem_half,
            spans: spans.spans(),
            engine,
            raw,
            sensitivity,
            empirical_sensitivity,
            range: OutputRange::new(bounds),
            removal_outputs,
            addition_outputs,
            group_size: g,
            enforced: OnceLock::new(),
        })
    }
}

/// Algorithm 1's union-preserving reuse: `f(x)`, then `f(x − aᵢ)` for
/// every accumulator `aᵢ` and `f(x + d)` for every addition `d`, where
/// `x` is `base` (`R(M(S′))`, or `None` when every record is an `aᵢ`)
/// with all of `accs`. Prefix and suffix folds over `accs`, built by
/// reference, give `R(x − aᵢ) = base ⊕ (prefix[i] ⊕ suffix[i+1])` in O(1)
/// reduces each, and every addition is one reduce onto `R(x)`. With no
/// base, no accumulator is cloned beyond the folds' first steps.
///
/// The neighbour finalizations are independent. Through
/// [`Context::par_map`] they run on the calling thread at an ordinary
/// sample size (the pool's hand-off would cost more than the work) and
/// in one contiguous block per worker beyond it; either way this is
/// driver-side work, not an engine stage — releases keep reporting zero
/// stages and zero shuffles.
pub(crate) fn neighbour_outputs<T, Acc, Out>(
    ctx: &Context,
    query: &MapReduceQuery<T, Acc, Out>,
    base: Option<Acc>,
    accs: &[Acc],
    additions: Vec<Acc>,
) -> (Out, Vec<Out>, Vec<Out>)
where
    T: Data,
    Acc: Data,
    Out: DpOutput,
{
    let n = accs.len();
    let mut prefix = query.prefix_folds(None, accs);
    let mut suffix: Vec<Option<Acc>> = vec![None; n + 1];
    for i in (0..n).rev() {
        suffix[i] = match &suffix[i + 1] {
            Some(s) => Some(query.reduce(&accs[i], s)),
            None => Some(accs[i].clone()),
        };
    }
    // No removal reads the full fold, so R(x) takes it.
    let all = prefix.pop().expect("a fold per prefix length");
    let r_x = match &base {
        Some(b) => query.merge_ref(Some(b), all.as_ref()),
        None => all,
    };
    let raw = query.finalize(r_x.as_ref());

    let removals = {
        let q = query.clone();
        ctx.par_map((0..n).collect(), move |_t, i: usize| {
            let without_i = q.merge_ref(prefix[i].as_ref(), suffix[i + 1].as_ref());
            match &base {
                Some(b) => q.finalize(q.merge_ref(Some(b), without_i.as_ref()).as_ref()),
                None => q.finalize(without_i.as_ref()),
            }
        })
    };
    let additions = {
        let q = query.clone();
        ctx.par_map(additions, move |_t, d: Acc| {
            q.finalize(q.merge_ref(r_x.as_ref(), Some(&d)).as_ref())
        })
    };
    (raw, removals, additions)
}

impl Serial {
    /// Charges a release's ε against the attached budget, if any.
    fn charge_budget(&self, spans: &SpanRecorder, epsilon: f64) -> Result<(), UpaError> {
        let _scope = spans.enter("budget");
        match &self.budget {
            Some(budget) => {
                budget
                    .try_spend(epsilon)
                    .map(drop)
                    .map_err(|remaining| UpaError::BudgetExhausted {
                        remaining,
                        requested: epsilon,
                    })
            }
            None => Ok(()),
        }
    }

    /// The Laplace release (Algorithm 1, line 20): one fresh draw per
    /// component over the enforced output, or the enforced output itself
    /// when noise is off.
    fn draw_noise<Out: DpOutput>(
        &mut self,
        spans: &SpanRecorder,
        add_noise: bool,
        epsilon: f64,
        enforced: &Out,
        sensitivity: &[f64],
    ) -> Out {
        let _scope = spans.enter("noise");
        if !add_noise {
            return enforced.clone();
        }
        let comps = enforced
            .components()
            .iter()
            .zip(sensitivity)
            .map(|(&v, &s)| {
                LaplaceMechanism::new(s.max(0.0), epsilon)
                    .expect("validated epsilon and non-negative sensitivity")
                    .release(v, &mut self.rng)
            })
            .collect();
        Out::from_components(comps)
    }

    /// Appends a release's audit to the ring.
    fn push_audit(&mut self, audit: Arc<QueryAudit>) {
        if self.audits.len() >= 2 * AUDIT_RING {
            self.audits.drain(..AUDIT_RING);
        }
        self.audits.push(audit);
    }
}

/// A release's audit span list — the shared preparation spans, then the
/// release's own — and its total over the root spans. The audit owns the
/// list, so this is the only per-release copy of the preparation spans,
/// sized exactly because the audit ring retains it.
fn audit_spans(prepare: &[StageSpan], release: &SpanRecorder) -> (Vec<StageSpan>, u64) {
    let release = release.spans();
    let mut all = Vec::with_capacity(prepare.len() + release.len());
    all.extend_from_slice(prepare);
    all.extend(release);
    let total = all.iter().filter(|s| s.depth == 0).map(|s| s.nanos).sum();
    (all, total)
}

/// RANGE ENFORCER's verdict on a preparation, reached by its first
/// release: the range-enforced value every later release draws its noise
/// over, and the signature every later release re-records — which bumps
/// that entry's repeat count, so the enforcer counts every answered
/// release while holding one entry per distinct signature.
struct Enforced<Out> {
    value: Out,
    outcome: EnforceOutcome,
    signature: QuerySignature,
}

/// The reusable state of a query, produced by [`Upa::prepare`] and
/// consumed (repeatedly) by [`Upa::release`]: the sampled accumulators and
/// per-half remainder reductions RANGE ENFORCER separates over, and what
/// Algorithm 1 computes from them without the RNG — the neighbour outputs
/// and the MLE sensitivity fit. Config changes that feed these
/// (group size, the enforcer's history) need a fresh prepare
/// to take effect; ε does not — noise is calibrated per release.
pub struct PreparedQuery<T, Acc, Out> {
    query: MapReduceQuery<T, Acc, Out>,
    mapped_sampled: Vec<Acc>,
    sampled_halves: Vec<usize>,
    rem_half: [Option<Acc>; 2],
    /// The preparation's stage spans, folded into every release's audit.
    spans: Vec<StageSpan>,
    /// The preparation's own engine work.
    engine: MetricsSnapshot,
    raw: Out,
    sensitivity: Vec<f64>,
    empirical_sensitivity: Vec<f64>,
    range: OutputRange,
    /// Shared with every release's [`UpaResult`], so a repeat release
    /// copies none of the neighbour outputs.
    removal_outputs: Arc<[Out]>,
    addition_outputs: Arc<[Out]>,
    group_size: usize,
    /// Set by the first release, inside the engine's critical section.
    enforced: OnceLock<Enforced<Out>>,
}

impl<T, Acc, Out> std::fmt::Debug for PreparedQuery<T, Acc, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.query)
            .field("sample_size", &self.mapped_sampled.len())
            .finish()
    }
}

impl<T, Acc, Out> PreparedQuery<T, Acc, Out> {
    /// Effective sample size of the preparation.
    pub fn sample_size(&self) -> usize {
        self.mapped_sampled.len()
    }
}

/// In-flight query state handed to RANGE ENFORCER.
///
/// A removal always takes the last active sampled record of a half (see
/// [`EnforceState::remove_two_records`]), so each half's active records
/// are a prefix, in sample order, of that half's sampled records, and the
/// state is how long each prefix is. Each half's partition output is then
/// a prefix fold, `R(M(S′))_h ⊕ s₁ ⊕ … ⊕ s_k` in the same left order as a
/// fold over its active records, kept per prefix length from the first
/// removal on, so a removal costs O(1) and the whole separation loop
/// O(n + removals).
struct PipelineState<'q, T, Acc, Out> {
    query: &'q MapReduceQuery<T, Acc, Out>,
    mapped_sampled: &'q [Acc],
    sampled_halves: &'q [usize],
    rem_half: &'q [Option<Acc>; 2],
    raw: &'q Out,
    /// Active sampled records per half: half `h`'s first `active[h]`.
    active: [usize; 2],
    /// `folds[h][k]`: half `h`'s remainder folded with its first `k`
    /// sampled records. Built on the first removal.
    folds: Option<[Vec<Option<Acc>>; 2]>,
    /// The final output as RANGE ENFORCER last set it.
    output: Option<Vec<f64>>,
}

impl<'q, T: Data, Acc: Data, Out: DpOutput> PipelineState<'q, T, Acc, Out> {
    fn new(prepared: &'q PreparedQuery<T, Acc, Out>) -> Self {
        let mut active = [0; 2];
        for &h in &prepared.sampled_halves {
            active[h] += 1;
        }
        PipelineState {
            query: &prepared.query,
            mapped_sampled: &prepared.mapped_sampled,
            sampled_halves: &prepared.sampled_halves,
            rem_half: &prepared.rem_half,
            raw: &prepared.raw,
            active,
            folds: None,
            output: None,
        }
    }

    /// Half `h`'s remainder folded with its active sampled records: one
    /// `finalize` of a prefix fold once they are built, a fold before.
    fn half_output(&self, h: usize) -> Out {
        match &self.folds {
            Some(folds) => self.query.finalize(folds[h][self.active[h]].as_ref()),
            None => self.fold_active(self.rem_half[h].as_ref().map(Cow::Borrowed), |sh| sh == h),
        }
    }

    /// `seed` folded with the active sampled records of the halves `keep`
    /// admits, in sample order, by reference: a `Cow`-carried accumulator
    /// means each step is one `reduce` call with no per-merge clone of the
    /// sampled accumulators.
    fn fold_active<'a>(&'a self, seed: Option<Cow<'a, Acc>>, keep: impl Fn(usize) -> bool) -> Out {
        let mut acc = seed;
        let mut seen = [0; 2];
        for (s, &h) in self.mapped_sampled.iter().zip(self.sampled_halves) {
            if keep(h) && seen[h] < self.active[h] {
                acc = Some(match acc {
                    Some(a) => Cow::Owned(self.query.reduce(a.as_ref(), s)),
                    None => Cow::Borrowed(s),
                });
            }
            seen[h] += 1;
        }
        self.query.finalize(acc.as_deref())
    }

    /// The query's output over the remainder and the active sampled
    /// records: the two halves' remainders reduced, then every active
    /// record folded in sample order.
    fn active_output(&self) -> Out {
        let seed = match self.rem_half {
            [Some(a), Some(b)] => Some(Cow::Owned(self.query.reduce(a, b))),
            [Some(a), None] => Some(Cow::Borrowed(a)),
            [None, b] => b.as_ref().map(Cow::Borrowed),
        };
        self.fold_active(seed, |_| true)
    }
}

impl<T: Data, Acc: Data, Out: DpOutput> EnforceState for PipelineState<'_, T, Acc, Out> {
    fn partition_outputs(&self) -> [Vec<f64>; 2] {
        [0, 1].map(|h| self.half_output(h).components().to_vec())
    }

    fn remove_two_records(&mut self) -> bool {
        // One record from each half so both partition outputs move; two
        // from one half when the other has none left. Either way the last
        // active ones, so every half stays a prefix.
        let [a, b] = self.active;
        self.active = match (a, b) {
            (1.., 1..) => [a - 1, b - 1],
            (2.., 0) => [a - 2, 0],
            (0, 2..) => [0, b - 2],
            _ => return false,
        };
        if self.folds.is_none() {
            let half = |h| {
                let sampled = self.mapped_sampled.iter().zip(self.sampled_halves);
                sampled.filter(move |&(_, &sh)| sh == h).map(|(s, _)| s)
            };
            self.folds =
                Some([0, 1].map(|h| self.query.prefix_folds(self.rem_half[h].clone(), half(h))));
        }
        true
    }

    fn output_components(&self) -> Vec<f64> {
        match (&self.output, &self.folds) {
            (Some(set), _) => set.clone(),
            // No record was removed: the output is the prepared one.
            (None, None) => self.raw.components().to_vec(),
            (None, Some(_)) => self.active_output().components().to_vec(),
        }
    }

    fn set_output_components(&mut self, components: Vec<f64>) {
        self.output = Some(components);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::EmpiricalSampler;
    use crate::query::HalfTotals;

    fn small_upa(sample_size: usize) -> (Context, Upa) {
        let ctx = Context::with_threads(4);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        (ctx, upa)
    }

    /// A `(v, 1)` sum over `values`, keyed by the value's bits and handed
    /// the exact half totals of `values`.
    fn exact_sum_query(values: &[f64]) -> MapReduceQuery<f64, (f64, f64), f64> {
        MapReduceQuery::new(
            "sum",
            |x: &f64| x.to_bits(),
            |x: &f64| (*x, 1.0),
            |a: &(f64, f64), b: &(f64, f64)| (a.0 + b.0, a.1 + b.1),
            |acc: Option<&(f64, f64)>| acc.map_or(0.0, |a| a.0),
        )
        .with_half_totals(Arc::new(HalfTotals::of_values(values, |x| x.to_bits())))
    }

    /// Distinct fractional values, so a sampled record is known by its
    /// bits and a float fold would depend on its grouping.
    fn fractional_values(len: u32) -> Vec<f64> {
        (0..len).map(|i| (f64::from(i) * 0.7).sin() * 1e3).collect()
    }

    /// The per-record state the prefix folds replace: an active flag per
    /// sampled record, the last active record of a half picked by a scan
    /// from the end, and every output re-folded over the active records
    /// once a record is removed (the prepared `f(x)` before).
    struct FlagState<'q> {
        p: &'q PreparedQuery<f64, f64, f64>,
        active: Vec<bool>,
    }

    impl FlagState<'_> {
        fn fold(&self, seed: Option<f64>, keep: impl Fn(usize) -> bool) -> f64 {
            let q = &self.p.query;
            let mut acc = seed;
            for (i, s) in self.p.mapped_sampled.iter().enumerate() {
                if self.active[i] && keep(i) {
                    acc = Some(acc.map_or(*s, |a| q.reduce(&a, s)));
                }
            }
            q.finalize(acc.as_ref())
        }

        fn partition_outputs(&self) -> [f64; 2] {
            [0, 1].map(|h| self.fold(self.p.rem_half[h], |i| self.p.sampled_halves[i] == h))
        }

        fn output(&self) -> f64 {
            if self.active.iter().all(|&a| a) {
                return self.p.raw;
            }
            let seed = match self.p.rem_half {
                [Some(a), Some(b)] => Some(self.p.query.reduce(&a, &b)),
                [a, b] => a.or(b),
            };
            self.fold(seed, |_| true)
        }

        fn remove_two_records(&mut self) -> bool {
            let pick = |active: &[bool], half: Option<usize>, skip: Option<usize>| {
                (0..active.len()).rev().find(|&i| {
                    active[i]
                        && Some(i) != skip
                        && half.is_none_or(|h| self.p.sampled_halves[i] == h)
                })
            };
            let Some(first) =
                pick(&self.active, Some(0), None).or_else(|| pick(&self.active, None, None))
            else {
                return false;
            };
            let Some(second) = pick(&self.active, Some(1), Some(first))
                .or_else(|| pick(&self.active, None, Some(first)))
            else {
                return false;
            };
            self.active[first] = false;
            self.active[second] = false;
            true
        }
    }

    /// A pool sampler that notes whether the engine lock was held on any
    /// of its draws and on any read of its draws.
    struct LockProbe<'u> {
        upa: &'u Upa,
        pool: EmpiricalSampler<f64>,
        held_drawing: std::sync::atomic::AtomicBool,
        held_reading: std::sync::atomic::AtomicBool,
    }

    impl LockProbe<'_> {
        fn note(&self, flag: &std::sync::atomic::AtomicBool) {
            let held = self.upa.serial.try_lock().is_err();
            flag.fetch_or(held, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl DomainSampler<f64> for LockProbe<'_> {
        fn sample(&self, rng: &mut StdRng) -> f64 {
            self.pool.sample(rng)
        }

        fn draw_n(&self, rng: &mut StdRng, n: usize) -> DomainDraws<f64> {
            self.note(&self.held_drawing);
            self.pool.draw_n(rng, n)
        }

        fn materialise(&self, draws: DomainDraws<f64>) -> Vec<f64> {
            self.note(&self.held_reading);
            self.pool.materialise(draws)
        }
    }

    /// A preparation holds the engine lock while the domain draws and has
    /// released it by the time the draws are read, and the split draw
    /// gives the release that `sample_n` under the lock gives.
    #[test]
    fn domain_draws_are_read_after_the_engine_lock_is_released() {
        let values = fractional_values(500);
        let query = exact_sum_query(&values);
        let (ctx, upa) = small_upa(40);
        let data = ctx.parallelize(values.clone(), 3);
        let probe = LockProbe {
            upa: &upa,
            pool: EmpiricalSampler::new(values.clone()),
            held_drawing: false.into(),
            held_reading: false.into(),
        };
        let split = upa.prepare(&data, &query, &probe).unwrap();
        assert!(probe.held_drawing.into_inner(), "drawn outside the lock");
        assert!(!probe.held_reading.into_inner(), "read under the lock");

        let (_, reference) = small_upa(40);
        let domain = EmpiricalSampler::new(values);
        let whole = reference.prepare(&data, &query, &domain).unwrap();
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&split.addition_outputs), bits(&whole.addition_outputs));
        assert_eq!(bits(&split.removal_outputs), bits(&whole.removal_outputs));
    }

    /// After every removal, down to an exhausted sample, the prefix-fold
    /// state gives the bits the per-record state gives: balanced halves,
    /// every record in one half, and a sample that is the whole input.
    #[test]
    fn prefix_folds_match_per_record_refolds_bit_for_bit() {
        let values = fractional_values(600);
        let keys: [fn(&f64) -> u64; 2] = [|x| x.to_bits(), |_| 0];
        for (len, half_key) in [(600, keys[0]), (600, keys[1]), (40, keys[0])] {
            let (ctx, upa) = small_upa(40);
            let query = MapReduceQuery::scalar_sum("sum", half_key, |x: &f64| *x);
            let data = ctx.parallelize(values[..len].to_vec(), 3);
            let domain = EmpiricalSampler::new(values.clone());
            let p = upa.prepare(&data, &query, &domain).unwrap();
            let mut state = PipelineState::new(&p);
            let mut flags = FlagState {
                p: &p,
                active: vec![true; p.sample_size()],
            };
            let bits = |v: [f64; 2]| v.map(f64::to_bits);
            loop {
                let got = state.partition_outputs().map(|c| c[0]);
                assert_eq!(bits(got), bits(flags.partition_outputs()), "len={len}");
                assert_eq!(
                    state.output_components()[0].to_bits(),
                    flags.output().to_bits(),
                    "len={len}"
                );
                let removed = state.remove_two_records();
                assert_eq!(removed, flags.remove_two_records(), "len={len}");
                if !removed {
                    break;
                }
            }
            assert!(state.active.iter().sum::<usize>() < 2);
        }
    }

    /// A query with half totals releases, per half, the correctly rounded
    /// exact sum of the un-sampled records — summed here directly, not by
    /// subtraction — over a row dataset and a columnar one alike.
    #[test]
    fn exact_remainder_is_the_rounded_exact_sum_of_the_unsampled_records() {
        use dataflow::columnar::ColumnarBuf;
        use upa_stats::ExactSum;

        let (ctx, upa) = small_upa(64);
        let values = fractional_values(5_000);
        let query = exact_sum_query(&values);
        let domain = EmpiricalSampler::new(values.clone());
        let check = |p: &PreparedQuery<f64, (f64, f64), f64>| {
            let sampled: std::collections::HashSet<u64> =
                p.mapped_sampled.iter().map(|a| a.0.to_bits()).collect();
            assert_eq!(sampled.len(), 64);
            for h in 0..2 {
                let rest: Vec<f64> = values
                    .iter()
                    .copied()
                    .filter(|v| half_of(v.to_bits()) == h && !sampled.contains(&v.to_bits()))
                    .collect();
                let mut exact = ExactSum::new();
                rest.iter().for_each(|&v| exact.add(v));
                let want = (exact.to_f64().to_bits(), rest.len() as f64);
                let got = p.rem_half[h].map(|(s, n)| (s.to_bits(), n));
                assert_eq!(got, Some(want), "half {h}");
            }
        };
        let rows = ctx.parallelize(values.clone(), 7);
        check(&upa.prepare(&rows, &query, &domain).unwrap());
        let column = ColumnarDataset::new(&ctx, ColumnarBuf::from_values(values.to_vec(), 333));
        check(&upa.prepare(&column, &query, &domain).unwrap());
    }

    /// The record count is the one check that ties a query's totals to
    /// the source it is prepared over.
    #[test]
    #[should_panic(expected = "half totals of another source")]
    fn half_totals_of_another_source_are_refused() {
        let (ctx, upa) = small_upa(64);
        let values = fractional_values(5_000);
        let query = exact_sum_query(&values);
        let fewer = values[..4_999].to_vec();
        let domain = EmpiricalSampler::new(fewer.clone());
        let _ = upa.prepare(&ctx.parallelize(fewer, 7), &query, &domain);
    }

    #[test]
    fn count_query_end_to_end() {
        let (ctx, upa) = small_upa(100);
        let data: Vec<f64> = (0..4_000).map(|i| (i % 10) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 8);
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);
        let domain = EmpiricalSampler::new(data);
        let result = upa.run(&ds, &query, &domain).unwrap();
        assert_eq!(result.raw, 4_000.0);
        // Every removal neighbour of a count is exactly total − 1 and every
        // addition neighbour is total + 1.
        assert!(result.removal_outputs.iter().all(|&o| o == 3_999.0));
        assert!(result.addition_outputs.iter().all(|&o| o == 4_001.0));
        // The inferred sensitivity covers the true local sensitivity (1.0)
        // scaled by the percentile width of the bimodal ±1 sample.
        assert!(result.max_sensitivity() >= 2.0 * 0.9);
        assert_eq!(result.sample_size, 100);
    }

    #[test]
    fn neighbour_outputs_match_direct_recomputation() {
        // The union-preservation property: f(x − sᵢ) computed through
        // prefix/suffix reuse equals direct evaluation on x − sᵢ.
        let (ctx, upa) = small_upa(50);
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 * 0.5).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data.clone());
        let result = upa.run(&ds, &query, &domain).unwrap();
        let total: f64 = data.iter().sum();
        assert!((result.raw - total).abs() < 1e-6);
        // Each removal output must equal total − s for some record s of x.
        for &o in result.removal_outputs.iter() {
            let removed = total - o;
            assert!(
                data.iter().any(|&v| (v - removed).abs() < 1e-6),
                "removal output {o} does not correspond to any record"
            );
        }
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let (ctx, upa) = small_upa(10);
        let ds = ctx.parallelize(Vec::<f64>::new(), 2);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(vec![1.0]);
        assert_eq!(
            upa.run(&ds, &query, &domain).unwrap_err(),
            UpaError::EmptyDataset
        );
    }

    #[test]
    fn small_dataset_samples_every_record() {
        let (ctx, upa) = small_upa(1000);
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let ds = ctx.parallelize(data.clone(), 2);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let result = upa.run(&ds, &query, &domain).unwrap();
        assert_eq!(result.sample_size, 5);
        assert_eq!(result.removal_outputs.len(), 5);
        // With every record sampled the removal outputs are exact:
        // {15−1, …, 15−5}.
        let mut removed: Vec<f64> = result.removal_outputs.iter().map(|o| 15.0 - o).collect();
        removed.sort_by(f64::total_cmp);
        for (i, r) in removed.iter().enumerate() {
            assert!((r - (i + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn output_is_clamped_into_range() {
        let (ctx, upa) = small_upa(64);
        let data: Vec<f64> = (0..2_000).map(|i| (i % 7) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let result = upa.run(&ds, &query, &domain).unwrap();
        assert!(result.range.contains(result.enforced.components()));
    }

    #[test]
    fn noise_is_added_when_enabled() {
        let ctx = Context::with_threads(2);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 64,
                add_noise: true,
                ..UpaConfig::default()
            },
        );
        let data: Vec<f64> = (0..2_000).map(|i| (i % 13) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let result = upa.run(&ds, &query, &domain).unwrap();
        assert_ne!(
            result.released, result.enforced,
            "Laplace noise should perturb the output (almost surely)"
        );
    }

    #[test]
    fn budget_is_charged_and_exhausts() {
        let ctx = Context::with_threads(2);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 16,
                epsilon: 0.4,
                add_noise: false,
                ..UpaConfig::default()
            },
        )
        .with_budget(1.0);
        let data: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        assert!(upa.run(&ds, &query, &domain).is_ok());
        assert!(upa.run(&ds, &query, &domain).is_ok());
        // Third query needs 0.4 but only 0.2 remains.
        match upa.run(&ds, &query, &domain) {
            Err(UpaError::BudgetExhausted { remaining, .. }) => {
                assert!((remaining - 0.2).abs() < 1e-9);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn repeated_query_on_neighbouring_dataset_is_separated() {
        let ctx = Context::with_threads(4);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 32,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let data: Vec<f64> = (0..1_000).map(|i| (i % 10) as f64).collect();
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);
        let domain = EmpiricalSampler::new(data.clone());
        let ds = ctx.parallelize(data.clone(), 8);
        let r1 = upa.run(&ds, &query, &domain).unwrap();
        assert!(!r1.enforce_outcome.attack_suspected);
        // The attack: same query, one record removed.
        let mut neighbour = data.clone();
        neighbour.pop();
        let ds2 = ctx.parallelize(neighbour, 8);
        let r2 = upa.run(&ds2, &query, &domain).unwrap();
        assert!(
            r2.enforce_outcome.attack_suspected,
            "neighbouring repeat must be flagged"
        );
        assert!(r2.enforce_outcome.removed_records >= 2);
    }

    #[test]
    fn vector_query_gets_per_component_treatment() {
        let (ctx, upa) = small_upa(64);
        let data: Vec<f64> = (0..3_000).map(|i| (i % 11) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        // Output = [count, sum]: components with very different scales.
        let query: MapReduceQuery<f64, (f64, f64), Vec<f64>> = MapReduceQuery::new(
            "count_and_sum",
            |x: &f64| x.to_bits(),
            |x: &f64| (1.0, *x),
            |a, b| (a.0 + b.0, a.1 + b.1),
            |acc| match acc {
                Some((c, s)) => vec![*c, *s],
                None => vec![0.0, 0.0],
            },
        );
        let domain = EmpiricalSampler::new(data);
        let result = upa.run(&ds, &query, &domain).unwrap();
        assert_eq!(result.sensitivity.len(), 2);
        // Count sensitivity ~2·P99-width of ±1; sum sensitivity larger
        // (records up to 10).
        assert!(result.sensitivity[1] > result.sensitivity[0]);
        assert_eq!(result.range.dim(), 2);
    }

    #[test]
    fn group_size_scales_sensitivity() {
        // For a count, removing a group of g records changes the output
        // by exactly g, so the empirical sensitivity must scale with g.
        let ctx = Context::with_threads(4);
        let data: Vec<f64> = (0..5_000).map(|i| (i % 3) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 8);
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);
        let domain = EmpiricalSampler::new(data);
        let mut results = Vec::new();
        for g in [1usize, 5, 10] {
            let upa = Upa::new(
                ctx.clone(),
                UpaConfig {
                    sample_size: 100,
                    add_noise: false,
                    group_size: g,
                    ..UpaConfig::default()
                },
            );
            let r = upa.run(&ds, &query, &domain).unwrap();
            assert_eq!(
                r.max_empirical_sensitivity(),
                g as f64,
                "a count's group influence is exactly g"
            );
            assert_eq!(r.removal_outputs.len(), 100usize.div_ceil(g));
            results.push(r.max_sensitivity());
        }
        assert!(
            results[2] > results[0],
            "group-10 noise must exceed individual noise ({results:?})"
        );
    }

    #[test]
    fn prepare_release_reuses_engine_work() {
        let ctx = Context::with_threads(4);
        let data: Vec<f64> = (0..3_000).map(|i| (i % 7) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 8);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 50,
                add_noise: true,
                ..UpaConfig::default()
            },
        );
        let prepared = upa.prepare(&ds, &query, &domain).unwrap();
        assert_eq!(prepared.sample_size(), 50);
        let before = ctx.metrics();
        let r1 = upa.release(&prepared).unwrap();
        let r2 = upa.release(&prepared).unwrap();
        let delta = ctx.metrics().since(&before);
        assert_eq!(delta.stages, 0, "releases must not run engine stages");
        assert_eq!(delta.shuffles, 0);
        assert_eq!(r1.raw, r2.raw);
        assert_eq!(r1.sensitivity, r2.sensitivity);
        assert_ne!(r1.released, r2.released, "fresh noise per release");
        assert_eq!(upa.enforcer().history_len(), 2);
    }

    /// Repeat releases ride the cached pre-noise core: the deterministic
    /// fit is identical, each draw is fresh, ε responds per release, and
    /// a legitimate repeat is never treated as an attack on itself —
    /// while the enforcer still counts every release.
    #[test]
    fn cached_repeat_releases_draw_fresh_noise_without_self_attack() {
        let ctx = Context::with_threads(4);
        let data: Vec<f64> = (0..3_000).map(|i| (i % 7) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 8);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 50,
                epsilon: 0.2,
                add_noise: true,
                ..UpaConfig::default()
            },
        );
        let prepared = upa.prepare(&ds, &query, &domain).unwrap();
        let r1 = upa.release(&prepared).unwrap();
        let r2 = upa.release(&prepared).unwrap();
        let r3 = upa.release(&prepared).unwrap();

        // The deterministic core is shared…
        assert_eq!(r1.enforced, r2.enforced);
        assert_eq!(r1.sensitivity, r3.sensitivity);
        assert_eq!(r1.range, r3.range);
        // …the noise is not.
        assert_ne!(r2.released, r3.released);
        // A repeat of the same preparation is not an attack on itself.
        assert!(!r2.enforce_outcome.attack_suspected);
        assert_eq!(r2.enforce_outcome.removed_records, 0);
        assert_eq!(r3.enforce_outcome, r1.enforce_outcome);
        // Every answered release is counted and audited; the repeats share
        // the first release's signature entry.
        assert_eq!(upa.enforcer().history_len(), 3);
        assert_eq!(upa.enforcer().distinct_len(), 1);
        assert_eq!(upa.audits().len(), 3);
        let audit = upa.last_audit().unwrap();
        assert_eq!(audit.sample_size, 50);
        assert_eq!(audit.epsilon, 0.2);

        // ε is applied per release, not baked into the preparation: the
        // kept value's noise is calibrated to each release's own ε.
        let (r4, audit) = upa.release_with(&prepared, 0.9, |_| {}).unwrap();
        assert_eq!(r4.epsilon, 0.9);
        assert_eq!(audit.epsilon, 0.9);
        assert_eq!(r4.sensitivity, r1.sensitivity);
    }

    #[test]
    fn prepare_release_charges_budget_per_release() {
        let ctx = Context::with_threads(2);
        let data: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 20,
                epsilon: 0.4,
                add_noise: false,
                ..UpaConfig::default()
            },
        )
        .with_budget(1.0);
        // Preparation itself is free.
        let prepared = upa.prepare(&ds, &query, &domain).unwrap();
        assert_eq!(upa.remaining_budget(), Some(1.0));
        assert!(upa.release(&prepared).is_ok());
        assert!(upa.release(&prepared).is_ok());
        assert!(matches!(
            upa.release(&prepared),
            Err(UpaError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn release_with_charges_its_own_epsilon() {
        let ctx = Context::with_threads(2);
        let data: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let upa = Upa::new(
            ctx,
            UpaConfig {
                sample_size: 16,
                epsilon: 0.5,
                add_noise: false,
                ..UpaConfig::default()
            },
        )
        .with_budget(1.0);
        let prepared = upa.prepare(&ds, &query, &domain).unwrap();
        let stamp = |audit: &mut QueryAudit| audit.budget_remaining = Some(7.0);
        let (r, audit) = upa.release_with(&prepared, 0.25, stamp).unwrap();
        assert_eq!(r.epsilon, 0.25);
        assert_eq!(upa.remaining_budget(), Some(0.75));
        // The stamp reaches the audit the ring retains.
        assert_eq!(audit.budget_remaining, Some(7.0));
        assert_eq!(upa.last_audit().unwrap().budget_remaining, Some(7.0));
        assert_eq!(
            upa.release_with(&prepared, f64::NAN, |_| {}).unwrap_err(),
            UpaError::InvalidConfig("epsilon")
        );
        // A refused release charges nothing and leaves the default ε.
        assert_eq!(upa.remaining_budget(), Some(0.75));
        assert_eq!(upa.config().epsilon, 0.5);
    }

    #[test]
    fn run_records_audit_with_stage_timings() {
        let (ctx, upa) = small_upa(50);
        let data: Vec<f64> = (0..1_000).map(|i| (i % 10) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("count", |x: &f64| x.to_bits(), |_x: &f64| 1.0);
        let domain = EmpiricalSampler::new(data);
        let _ = upa.run(&ds, &query, &domain).unwrap();
        let audit = upa.last_audit().expect("run records an audit");
        assert_eq!(audit.query, "count");
        assert_eq!(audit.sample_size, 50);
        for stage in [
            "partition",
            "sample",
            "map",
            "reduce",
            "neighbours",
            "mle_fit",
            "enforce",
            "clamp",
            "noise",
        ] {
            assert!(audit.stage_nanos(stage) > 0, "stage {stage} has zero time");
        }
        // The fit draws no randomness, so it is preparation work.
        for path in ["prepare/neighbours", "prepare/mle_fit", "release/enforce"] {
            assert!(audit.spans.iter().any(|s| s.path == path), "no {path} span");
        }
        assert!(audit.engine.stages > 0);
        assert!(audit.engine.shuffles >= 1);
        assert!(audit.engine.shuffle_bytes > 0);
        assert!(audit.total_nanos > 0);
        let _ = upa.run(&ds, &query, &domain).unwrap();
        assert_eq!(upa.audits().len(), 2);
        upa.clear_audits();
        assert!(upa.last_audit().is_none());
    }

    #[test]
    fn columnar_prepare_records_stages_and_shuffles() {
        use crate::domain::ColumnarEmpiricalSampler;
        use dataflow::columnar::ColumnarBuf;

        let ctx = Context::with_threads(4);
        let values: Vec<f64> = (0..2_000).map(|i| (i % 11) as f64).collect();
        let buf = ColumnarBuf::from_values(values.to_vec(), 128);
        let cds = ColumnarDataset::new(&ctx, buf.clone());
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 32,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = ColumnarEmpiricalSampler::new(buf);
        let prepared = upa.prepare(&cds, &query, &domain).unwrap();
        assert_eq!(prepared.engine.stages, 1, "one reduce stage on the engine");
        assert_eq!(prepared.engine.shuffles, 1, "half-exchange must count");
        assert!(prepared.engine.records_processed >= 2_000);
        let _ = upa.release(&prepared).unwrap();
        let audit = upa.last_audit().unwrap();
        for stage in ["partition", "sample", "map", "reduce", "noise"] {
            assert!(audit.stage_nanos(stage) > 0, "stage {stage} has zero time");
        }
    }

    #[test]
    fn release_audits_include_prepare_spans() {
        let ctx = Context::with_threads(2);
        let data: Vec<f64> = (0..800).map(|i| (i % 5) as f64).collect();
        let ds = ctx.parallelize(data.clone(), 4);
        let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
        let domain = EmpiricalSampler::new(data);
        let upa = Upa::new(
            ctx,
            UpaConfig {
                sample_size: 20,
                add_noise: true,
                ..UpaConfig::default()
            },
        );
        let prepared = upa.prepare(&ds, &query, &domain).unwrap();
        assert!(upa.last_audit().is_none(), "prepare alone releases nothing");
        let _ = upa.release(&prepared).unwrap();
        let _ = upa.release(&prepared).unwrap();
        assert_eq!(upa.audits().len(), 2);
        for audit in upa.audits() {
            // Every release's audit carries the (shared) preparation cost.
            assert!(audit.stage_nanos("sample") > 0);
            assert!(audit.stage_nanos("reduce") > 0);
            assert!(audit.stage_nanos("noise") > 0);
        }
    }
}
