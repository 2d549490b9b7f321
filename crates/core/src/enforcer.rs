//! RANGE ENFORCER — the paper's Algorithm 2.
//!
//! UPA's inferred local sensitivity is estimated from *sampled* neighbour
//! outputs, so by itself it may under-estimate the true local sensitivity.
//! RANGE ENFORCER restores the iDP guarantee (§IV-C) by:
//!
//! 1. detecting whether the current query is a repeat of a previously
//!    answered query on a *neighbouring* dataset — the attack in UPA's
//!    threat model. Detection compares the query's outputs on the two
//!    logical partitions of its input against every previous query's
//!    partition outputs: if **fewer than two** partition outputs differ,
//!    the inputs may differ by a single record;
//! 2. when an attack is suspected, removing two records at a time from the
//!    sampled set and recomputing the partition outputs until both differ
//!    from the suspicious previous query (forcing the datasets to be
//!    non-neighbouring);
//! 3. constraining the final output into the inferred output range `Ô_f`,
//!    replacing any out-of-range component with a uniform draw from the
//!    range (Algorithm 2, lines 17–18). This clamping is what makes the
//!    inferred sensitivity a *sound* upper bound: after clamping, no two
//!    neighbouring outputs can differ by more than `max(Ô_f) − min(Ô_f)`.
//!
//! The loop reads the partition outputs once up front and once per
//! removal, and records its last read as the query's signature; the final
//! output is read once, by the clamp. The pipeline's state
//! (`PipelineState` in `pipeline.rs`) answers every read after its first
//! removal from per-half prefix folds in O(1), and computes the final
//! output only when the clamp asks, so enforcing a query that removes `R`
//! of its `n` sampled records costs O(n + R) reduces.
//!
//! The history keeps **one entry per distinct signature**: a release whose
//! partition outputs are bit-identical to an earlier entry's (every cached
//! re-release of a prepared query) bumps that entry's repeat count, found
//! through a hash of the bits, instead of pushing. In the separation loop a
//! repeat is a no-op: the loop has already separated the query from the
//! first occurrence, and record removal draws no randomness. There is one
//! exception. The loop is one pass over the history, and a removal forced
//! by a *later* prior can bring the partition outputs back within the
//! tolerance of an earlier signature; a non-repeated prior is never
//! re-checked in that case either, but the full history would have
//! compared against the repeat once more (at its later position) and
//! removed two more records. Deduplication drops that second look.

use crate::output::OutputRange;
use dataflow::partitioner::WordHasher;
use dataflow::SpanRecorder;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The per-query record RANGE ENFORCER keeps: the query's output on each
/// of the two logical partitions of its input dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySignature {
    /// Output components on partition `x1` and `x2`.
    pub partition_outputs: [Vec<f64>; 2],
}

/// Mutable view of an in-flight query that RANGE ENFORCER can manipulate.
///
/// The pipeline implements this; Algorithm 2 needs to (re)read partition
/// outputs, drop sampled records and recompute.
pub trait EnforceState {
    /// Current output components on the two logical partitions.
    ///
    /// Contract: the result is a pure function of the state and changes
    /// only through [`EnforceState::remove_two_records`] (in particular
    /// not through [`EnforceState::set_output_components`]). The enforcer
    /// relies on this to compute it once per separation step rather than
    /// once per prior query, and to record its last read as the query's
    /// signature.
    fn partition_outputs(&self) -> [Vec<f64>; 2];

    /// Removes two records from the sampled set — one from **each**
    /// logical partition, so that both partition outputs move away from
    /// the suspicious previous query. Returns `false` when no more records
    /// can be removed (the enforcer then gives up on separating further —
    /// with a 1000-record sample this is unreachable in practice).
    ///
    /// It need not recompute the final output: the enforcer reads that
    /// once, after its separation loop, through
    /// [`EnforceState::output_components`].
    fn remove_two_records(&mut self) -> bool;

    /// Current final output components: the output over the records not
    /// removed, or what [`EnforceState::set_output_components`] last set.
    /// Read once per enforcement, by the range clamp.
    fn output_components(&self) -> Vec<f64>;

    /// Overwrites the final output components (range clamping).
    fn set_output_components(&mut self, components: Vec<f64>);
}

/// What RANGE ENFORCER did to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnforceOutcome {
    /// Records removed to break suspected neighbouring inputs.
    pub removed_records: usize,
    /// Whether the final output was clamped into the range.
    pub clamped: bool,
    /// Whether any previous query looked like the same query on a
    /// neighbouring dataset.
    pub attack_suspected: bool,
}

/// The stateful enforcer; one per UPA deployment (it must observe every
/// query answered from the protected datasets).
#[derive(Debug, Default)]
pub struct RangeEnforcer {
    /// Distinct signatures in first-recorded order — the order the
    /// separation loop compares against.
    history: Vec<Entry>,
    /// Index into `history` by [`bits_digest`]. A digest shared by two
    /// different bit patterns keeps its first entry; the second is then
    /// appended on every record, which is the full-history behaviour: a
    /// missed hit costs memory and comparisons, never a check.
    index: HashMap<u64, usize>,
    /// The entry the most recent release recorded.
    last: Option<usize>,
}

#[derive(Debug)]
struct Entry {
    signature: QuerySignature,
    /// Releases that recorded this signature.
    repeats: usize,
}

/// A hash of the partition outputs' exact bits (lengths included), on
/// the engine's [`WordHasher`]: std's hasher may change its algorithm
/// between Rust releases, and this one is pinned for every run and
/// machine.
fn bits_digest(outputs: &[Vec<f64>; 2]) -> u64 {
    let mut h = WordHasher::default();
    for part in outputs {
        part.len().hash(&mut h);
        for v in part {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Bit-for-bit equality of two signatures' partition outputs.
fn same_bits(a: &[Vec<f64>; 2], b: &[Vec<f64>; 2]) -> bool {
    a.iter().zip(b).all(|(x, y)| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

/// Component comparison with a tight relative tolerance.
///
/// The paper compares partition outputs exactly; this reproduction's
/// pipeline folds partial reductions in an order that depends on the
/// random sample, so two evaluations of the *same* partition can differ in
/// the last few ULPs. A relative tolerance of `1e-9` (absolute `1e-12`)
/// absorbs that float jitter while still distinguishing any real
/// one-record change, which is many orders of magnitude larger for every
/// evaluated query.
fn component_eq(x: f64, y: f64) -> bool {
    let diff = (x - y).abs();
    diff <= 1e-12 || diff <= 1e-9 * x.abs().max(y.abs())
}

fn vec_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| component_eq(*x, *y))
}

impl RangeEnforcer {
    /// Creates an enforcer with empty history.
    pub fn new() -> Self {
        RangeEnforcer::default()
    }

    /// Number of releases recorded so far, repeats of one signature
    /// included.
    pub fn history_len(&self) -> usize {
        self.history.iter().map(|e| e.repeats).sum()
    }

    /// Number of distinct signatures held — the priors a new query is
    /// compared against.
    pub fn distinct_len(&self) -> usize {
        self.history.len()
    }

    /// Runs Algorithm 2 on an in-flight query and records its signature.
    pub fn enforce<S: EnforceState>(
        &mut self,
        state: &mut S,
        range: &OutputRange,
        rng: &mut StdRng,
    ) -> EnforceOutcome {
        self.enforce_traced(state, range, rng, &SpanRecorder::new())
    }

    /// [`RangeEnforcer::enforce`] with stage timing: the detection loop is
    /// recorded as an `enforce` span (its record count is the number of
    /// removed records) and the range constraint as a `clamp` span, nested
    /// under whatever scope is open on `spans`. The pipeline passes its
    /// per-query recorder so audits break the enforcer's cost out.
    pub fn enforce_traced<S: EnforceState>(
        &mut self,
        state: &mut S,
        range: &OutputRange,
        rng: &mut StdRng,
        spans: &SpanRecorder,
    ) -> EnforceOutcome {
        let mut outcome = EnforceOutcome::default();

        // Lines 2–15: compare against every previous query; force at least
        // two differing partition outputs. The partition outputs only
        // change when records are removed, so they are read once up
        // front and again after each removal — each prior costs one
        // comparison, not a re-fold of the whole sample — and the last
        // read is what line 19 records. Repeats of a signature are
        // compared once (see the module doc).
        let current = {
            let mut scope = spans.enter("enforce");
            let mut current = state.partition_outputs();
            for prior in &self.history {
                loop {
                    let diff_num = current
                        .iter()
                        .zip(prior.signature.partition_outputs.iter())
                        .filter(|(c, p)| !vec_eq(c, p))
                        .count();
                    if diff_num >= 2 {
                        break;
                    }
                    outcome.attack_suspected = true;
                    if !state.remove_two_records() {
                        // Sample exhausted; stop separating (outputs are still
                        // range-clamped below, so the release stays within Ô_f).
                        break;
                    }
                    outcome.removed_records += 2;
                    current = state.partition_outputs();
                }
            }
            scope.add_records(outcome.removed_records as u64);
            current
        };

        // Lines 16–18: constrain the final output into Ô_f.
        {
            let _scope = spans.enter("clamp");
            let mut components = state.output_components();
            outcome.clamped = range.constrain(&mut components, rng);
            state.set_output_components(components);
        }

        // Lines 19–21: record this query's partition outputs (clamping
        // leaves them as they are).
        self.record(QuerySignature {
            partition_outputs: current,
        });
        outcome
    }

    /// Records a query signature without running the separation loop.
    ///
    /// Used for *cached* re-releases of an already-enforced query: the
    /// partition outputs are byte-identical to the recorded first
    /// release, so the loop in [`RangeEnforcer::enforce`] could only
    /// flag the query against its own history and mangle a legitimate
    /// repeat. A signature bit-identical to a held entry bumps that
    /// entry's repeat count in O(1); any other is appended, so genuinely
    /// new queries keep being compared against every answered release.
    pub fn record(&mut self, signature: QuerySignature) {
        let digest = bits_digest(&signature.partition_outputs);
        let at = match self.index.get(&digest) {
            Some(&i)
                if same_bits(
                    &self.history[i].signature.partition_outputs,
                    &signature.partition_outputs,
                ) =>
            {
                self.history[i].repeats += 1;
                i
            }
            _ => {
                self.history.push(Entry {
                    signature,
                    repeats: 1,
                });
                let i = self.history.len() - 1;
                self.index.entry(digest).or_insert(i);
                i
            }
        };
        self.last = Some(at);
    }

    /// The most recently recorded signature (what the release that just
    /// ran recorded, repeat or not), if any.
    pub fn last_signature(&self) -> Option<&QuerySignature> {
        self.last.map(|i| &self.history[i].signature)
    }

    /// Clears the history (test/bench helper; production deployments must
    /// never clear it).
    pub fn reset(&mut self) {
        self.history.clear();
        self.index.clear();
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The digest is the engine hasher's, pinned: a history persisted by
    /// one build must index the same way in the next.
    #[test]
    fn bits_digest_is_pinned() {
        let digest = bits_digest(&[vec![1.0, 2.5], vec![-0.0]]);
        assert_eq!(digest, 0xd206_6cb6_a355_d7f1, "{digest:#018x}");
        assert_ne!(digest, bits_digest(&[vec![1.0, 2.5, -0.0], vec![]]));
    }

    /// A toy state over a vector of numbers: partitions are the two
    /// halves, output is the sum, sampled-record removal pops one record
    /// from each half.
    #[derive(Clone)]
    struct SumState {
        half1: Vec<f64>,
        half2: Vec<f64>,
        output: Vec<f64>,
    }

    impl SumState {
        fn new(half1: Vec<f64>, half2: Vec<f64>) -> Self {
            let output = vec![half1.iter().sum::<f64>() + half2.iter().sum::<f64>()];
            SumState {
                half1,
                half2,
                output,
            }
        }
    }

    impl EnforceState for SumState {
        fn partition_outputs(&self) -> [Vec<f64>; 2] {
            [
                vec![self.half1.iter().sum::<f64>()],
                vec![self.half2.iter().sum::<f64>()],
            ]
        }
        fn remove_two_records(&mut self) -> bool {
            if self.half1.is_empty() || self.half2.is_empty() {
                return false;
            }
            self.half1.pop();
            self.half2.pop();
            self.output = vec![self.half1.iter().sum::<f64>() + self.half2.iter().sum::<f64>()];
            true
        }
        fn output_components(&self) -> Vec<f64> {
            self.output.clone()
        }
        fn set_output_components(&mut self, components: Vec<f64>) {
            self.output = components;
        }
    }

    fn wide_range() -> OutputRange {
        OutputRange::new(vec![(f64::NEG_INFINITY, f64::INFINITY)])
    }

    #[test]
    fn first_query_passes_untouched() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = SumState::new(vec![1.0, 2.0], vec![3.0]);
        let out = enforcer.enforce(&mut state, &wide_range(), &mut rng);
        assert_eq!(out.removed_records, 0);
        assert!(!out.attack_suspected);
        assert_eq!(enforcer.history_len(), 1);
        assert_eq!(state.output_components(), vec![6.0]);
    }

    #[test]
    fn disjoint_queries_are_not_attacks() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut q1 = SumState::new(vec![1.0, 2.0], vec![3.0]);
        enforcer.enforce(&mut q1, &wide_range(), &mut rng);
        // Both partitions differ: not neighbouring.
        let mut q2 = SumState::new(vec![10.0, 20.0], vec![30.0]);
        let out = enforcer.enforce(&mut q2, &wide_range(), &mut rng);
        assert!(!out.attack_suspected);
        assert_eq!(out.removed_records, 0);
    }

    #[test]
    fn neighbouring_repeat_triggers_removal() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut q1 = SumState::new(vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0]);
        enforcer.enforce(&mut q1, &wide_range(), &mut rng);
        // Same second half (partition output equal) and first half
        // differing by one record: the attack case.
        let mut q2 = SumState::new(vec![1.0, 2.0, 3.0], vec![5.0, 6.0]);
        let out = enforcer.enforce(&mut q2, &wide_range(), &mut rng);
        assert!(out.attack_suspected);
        assert!(out.removed_records >= 2);
        // After enforcement, both partition outputs differ from q1's.
        let sig1 = [vec![10.0], vec![11.0]];
        let cur = q2.partition_outputs();
        let diff = cur
            .iter()
            .zip(sig1.iter())
            .filter(|(c, p)| !vec_eq(c, p))
            .count();
        assert_eq!(diff, 2);
    }

    #[test]
    fn component_comparison_tolerates_float_jitter() {
        assert!(component_eq(1.0e6, 1.0e6 + 1e-5));
        assert!(!component_eq(100.0, 101.0));
        assert!(component_eq(0.0, 0.0));
        assert!(component_eq(0.0, 1e-13));
        assert!(!component_eq(0.0, 1.0));
    }

    #[test]
    fn clamping_pulls_output_into_range() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = SumState::new(vec![100.0], vec![200.0]);
        let range = OutputRange::new(vec![(0.0, 10.0)]);
        let out = enforcer.enforce(&mut state, &range, &mut rng);
        assert!(out.clamped);
        let v = state.output_components()[0];
        assert!((0.0..=10.0).contains(&v));
    }

    #[test]
    fn exhausted_sample_stops_gracefully() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut q1 = SumState::new(Vec::new(), Vec::new());
        enforcer.enforce(&mut q1, &wide_range(), &mut rng);
        // Identical query with nothing left to remove: the enforcer must
        // stop gracefully rather than loop.
        let mut q2 = SumState::new(Vec::new(), Vec::new());
        let out = enforcer.enforce(&mut q2, &wide_range(), &mut rng);
        assert!(out.attack_suspected);
        assert_eq!(out.removed_records, 0);
        assert_eq!(enforcer.history_len(), 2);
    }

    #[test]
    fn enforce_traced_records_enforce_and_clamp_spans() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = SumState::new(vec![1.0], vec![2.0]);
        let spans = SpanRecorder::new();
        enforcer.enforce_traced(&mut state, &wide_range(), &mut rng, &spans);
        assert!(spans.nanos_of("enforce") >= 1);
        assert!(spans.nanos_of("clamp") >= 1);
    }

    #[test]
    fn reset_clears_history() {
        let mut enforcer = RangeEnforcer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut q = SumState::new(vec![1.0], vec![2.0]);
        enforcer.enforce(&mut q, &wide_range(), &mut rng);
        enforcer.reset();
        assert_eq!(enforcer.history_len(), 0);
    }

    /// Counts `partition_outputs()` calls on the wrapped state.
    struct Counting<S> {
        inner: S,
        calls: std::cell::Cell<usize>,
    }

    impl<S: EnforceState> EnforceState for Counting<S> {
        fn partition_outputs(&self) -> [Vec<f64>; 2] {
            self.calls.set(self.calls.get() + 1);
            self.inner.partition_outputs()
        }
        fn remove_two_records(&mut self) -> bool {
            self.inner.remove_two_records()
        }
        fn output_components(&self) -> Vec<f64> {
            self.inner.output_components()
        }
        fn set_output_components(&mut self, components: Vec<f64>) {
            self.inner.set_output_components(components);
        }
    }

    fn counting(half1: Vec<f64>, half2: Vec<f64>) -> Counting<SumState> {
        Counting {
            inner: SumState::new(half1, half2),
            calls: std::cell::Cell::new(0),
        }
    }

    /// A prior whose partition outputs differ from every state built in
    /// these tests.
    fn disjoint_prior(i: usize) -> QuerySignature {
        let v = 1e9 + i as f64;
        QuerySignature {
            partition_outputs: [vec![v], vec![-v]],
        }
    }

    #[test]
    fn separation_folds_once_regardless_of_history() {
        let mut enforcer = RangeEnforcer::new();
        for i in 0..1000 {
            enforcer.record(disjoint_prior(i));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = counting(vec![1.0, 2.0], vec![3.0]);
        let out = enforcer.enforce(&mut state, &wide_range(), &mut rng);
        assert!(!out.attack_suspected);
        // One fold before the loop, which is also the recorded signature.
        assert_eq!(state.calls.get(), 1);
    }

    #[test]
    fn separation_refolds_only_after_removals() {
        let half1: Vec<f64> = (1..=10).map(f64::from).collect();
        let half2: Vec<f64> = (101..=110).map(f64::from).collect();
        // Plant, among disjoint priors, one neighbour of the state as it
        // stands after each of 0, 1 and 2 removals: each matches the
        // second partition only, so each forces exactly one removal.
        let mut enforcer = RangeEnforcer::new();
        for k in 0..3 {
            for i in 0..100 {
                enforcer.record(disjoint_prior(k * 100 + i));
            }
            let second: f64 = half2[..half2.len() - k].iter().sum();
            enforcer.record(QuerySignature {
                partition_outputs: [vec![-1.0], vec![second]],
            });
        }
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = counting(half1, half2);
        let out = enforcer.enforce(&mut state, &wide_range(), &mut rng);
        assert!(out.attack_suspected);
        assert_eq!(out.removed_records, 6);
        assert_eq!(state.calls.get(), 1 + out.removed_records / 2);
    }

    #[test]
    fn repeats_count_without_growing_the_distinct_history() {
        let mut enforcer = RangeEnforcer::new();
        enforcer.record(disjoint_prior(0));
        enforcer.record(disjoint_prior(1));
        for _ in 0..1000 {
            enforcer.record(disjoint_prior(0));
        }
        assert_eq!(enforcer.history_len(), 1002);
        assert_eq!(enforcer.distinct_len(), 2);
        // The last release was a repeat of the first entry, not the newest.
        assert_eq!(enforcer.last_signature(), Some(&disjoint_prior(0)));
        // Equal within tolerance is not bit-identical: -0.0 and 0.0 stay
        // two entries, both compared.
        let zero = |z: f64| QuerySignature {
            partition_outputs: [vec![z], vec![z]],
        };
        enforcer.record(zero(0.0));
        enforcer.record(zero(-0.0));
        assert_eq!(enforcer.distinct_len(), 4);
        enforcer.reset();
        assert_eq!(enforcer.history_len(), 0);
        assert_eq!(enforcer.last_signature(), None);
    }

    /// The original separation loop: partition outputs are re-folded for
    /// every prior of the full history, repeats included. The hoisted,
    /// deduplicated loop must match it outside the re-approach case the
    /// module doc describes.
    fn enforce_reference<S: EnforceState>(
        history: &mut Vec<QuerySignature>,
        state: &mut S,
        range: &OutputRange,
        rng: &mut StdRng,
    ) -> EnforceOutcome {
        let mut outcome = EnforceOutcome::default();
        for prior in history.iter() {
            loop {
                let current = state.partition_outputs();
                let diff_num = current
                    .iter()
                    .zip(prior.partition_outputs.iter())
                    .filter(|(c, p)| !vec_eq(c, p))
                    .count();
                if diff_num >= 2 {
                    break;
                }
                outcome.attack_suspected = true;
                if !state.remove_two_records() {
                    break;
                }
                outcome.removed_records += 2;
            }
        }
        let mut components = state.output_components();
        outcome.clamped = range.constrain(&mut components, rng);
        state.set_output_components(components);
        history.push(QuerySignature {
            partition_outputs: state.partition_outputs(),
        });
        outcome
    }

    /// An enforcer that has recorded `history` in order.
    fn recorded(history: &[QuerySignature]) -> RangeEnforcer {
        let mut enforcer = RangeEnforcer::new();
        for s in history {
            enforcer.record(s.clone());
        }
        enforcer
    }

    /// `history` without bit-identical repeats, in first-occurrence order.
    fn distinct(history: &[QuerySignature]) -> Vec<QuerySignature> {
        let mut out: Vec<QuerySignature> = Vec::new();
        for s in history {
            if !out
                .iter()
                .any(|d| same_bits(&d.partition_outputs, &s.partition_outputs))
            {
                out.push(s.clone());
            }
        }
        out
    }

    /// Partition outputs of a [`SumState`] over `half1`/`half2` after `j`
    /// removals (the state pops one record from each half per removal);
    /// `j` past the shorter half gives those of an exhausted sample.
    fn sums_after(half1: &[f64], half2: &[f64], j: usize) -> [f64; 2] {
        [half1, half2].map(|h| h[..h.len().saturating_sub(j)].iter().sum())
    }

    /// A prior planted against partition sums `[a, b]`: kind 0 matches
    /// neither partition (`v` is off the integer lattice), 1 the first, 2
    /// the second, 3 both.
    fn plant(kind: usize, [a, b]: [f64; 2], v: i64) -> QuerySignature {
        let v = v as f64 + 0.5;
        QuerySignature {
            partition_outputs: match kind {
                0 => [vec![v], vec![-v]],
                1 => [vec![a], vec![v]],
                2 => [vec![v], vec![b]],
                _ => [vec![a], vec![b]],
            },
        }
    }

    fn to_f64(v: Vec<i64>) -> Vec<f64> {
        v.into_iter().map(|v| v as f64).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against the reference over the deduplicated history, which the
        /// enforcer compares against, the hoisted loop matches exactly.
        #[test]
        fn hoisted_loop_matches_reference(
            half1 in prop::collection::vec(-50i64..50, 0..8),
            half2 in prop::collection::vec(-50i64..50, 0..8),
            priors in prop::collection::vec((0usize..4, 0usize..5, -200i64..200), 0..24),
            range_lo in -300i64..300,
            range_width in 0i64..400,
            seed in 0u64..1000,
        ) {
            let (half1, half2) = (to_f64(half1), to_f64(half2));
            let state = SumState::new(half1.clone(), half2.clone());
            // Neighbours of the state after j removals trigger mid-history
            // and after earlier removals.
            let history: Vec<QuerySignature> = priors
                .into_iter()
                .map(|(kind, j, v)| plant(kind, sums_after(&half1, &half2, j), v))
                .collect();
            let range = OutputRange::new(vec![(
                range_lo as f64,
                (range_lo + range_width) as f64,
            )]);

            let mut fast = recorded(&history);
            let mut fast_state = state.clone();
            let fast_out = fast.enforce(
                &mut fast_state,
                &range,
                &mut StdRng::seed_from_u64(seed),
            );
            let mut slow = distinct(&history);
            let mut slow_state = state;
            let slow_out = enforce_reference(
                &mut slow,
                &mut slow_state,
                &range,
                &mut StdRng::seed_from_u64(seed),
            );
            prop_assert_eq!(fast_out, slow_out);
            prop_assert_eq!(
                fast_state.output_components(),
                slow_state.output_components()
            );
            prop_assert_eq!(fast.last_signature(), slow.last());
            prop_assert_eq!(fast.history_len(), history.len() + 1);
        }

        /// Repeats interleaved anywhere after their first occurrence give
        /// the outcome and output of the reference over the *full*
        /// history. The re-approach case is excluded by construction:
        /// records are positive, so each partition sum falls strictly with
        /// every removal until the sample is exhausted, and the distinct
        /// priors are planted in order of the removal count they match, so
        /// the count never climbs back to a prior compared earlier.
        #[test]
        fn deduplicated_history_matches_full_history_reference(
            half1 in prop::collection::vec(1i64..50, 0..8),
            half2 in prop::collection::vec(1i64..50, 0..8),
            priors in prop::collection::vec((0usize..4, 0usize..5, -200i64..200), 1..12),
            repeats in prop::collection::vec((0usize..64, 0usize..64), 0..24),
            range_lo in -300i64..300,
            range_width in 0i64..400,
            seed in 0u64..1000,
        ) {
            let (half1, half2) = (to_f64(half1), to_f64(half2));
            let state = SumState::new(half1.clone(), half2.clone());
            let mut priors = priors;
            priors.sort_by_key(|&(_, j, _)| j);
            let mut history: Vec<QuerySignature> = priors
                .into_iter()
                .map(|(kind, j, v)| plant(kind, sums_after(&half1, &half2, j), v))
                .collect();
            for (src, dst) in repeats {
                let src = src % history.len();
                let dst = src + 1 + dst % (history.len() - src);
                history.insert(dst, history[src].clone());
            }
            let range = OutputRange::new(vec![(
                range_lo as f64,
                (range_lo + range_width) as f64,
            )]);

            let mut fast = recorded(&history);
            let mut fast_state = state.clone();
            let fast_out = fast.enforce(
                &mut fast_state,
                &range,
                &mut StdRng::seed_from_u64(seed),
            );
            let mut slow = history;
            let mut slow_state = state;
            let slow_out = enforce_reference(
                &mut slow,
                &mut slow_state,
                &range,
                &mut StdRng::seed_from_u64(seed),
            );
            prop_assert_eq!(fast_out, slow_out);
            prop_assert_eq!(
                fast_state.output_components(),
                slow_state.output_components()
            );
            prop_assert_eq!(fast.history_len(), slow.len());
            prop_assert_eq!(fast.distinct_len(), distinct(&slow).len());
            prop_assert_eq!(fast.last_signature(), slow.last());
        }
    }
}
