//! The in-place fold both training steps share.
//!
//! Folded through the generic closures, a training step allocates twice
//! per record: the mapper builds the record's accumulator, and the
//! reducer builds a third from the running one and that. A step that can
//! add one record straight into an accumulator it already holds
//! ([`InPlaceStep::add`]) skips both. [`step_query`] attaches that as the
//! query's fused slice-fold kernel, which `Upa::prepare` runs over the
//! remainder, and [`fold_plain`] runs it as the vanilla step.

use dataflow::{Data, Dataset};
use upa_core::query::{half_of, MapReduceQuery};
use upa_core::DpOutput;

/// One training step's per-record arithmetic: the mapper, the reducer,
/// and an in-place add that stands for the two composed.
pub(crate) trait InPlaceStep: Clone + Send + Sync + 'static {
    /// The record type.
    type Record: Data;
    /// The accumulator type.
    type Acc: Data;
    /// The mapper: one record's accumulator.
    fn map(&self, r: &Self::Record) -> Self::Acc;
    /// Turns `acc` into `reduce(acc, map(r))` in place, bit for bit: every
    /// component gets exactly the addition the reducer would make, a
    /// `+0.0` included (`-0.0 + 0.0` is `+0.0`, so skipping it moves bits).
    fn add(&self, acc: &mut Self::Acc, r: &Self::Record);
    /// The reducer.
    fn reduce(a: &Self::Acc, b: &Self::Acc) -> Self::Acc;
    /// The stable half key.
    fn half_key(r: &Self::Record) -> u64;
}

/// The step as a query: `step`'s half key, mapper and reducer,
/// `finalize`, and as the fused slice-fold kernel the generic fold with
/// `reduce(acc, map(r))` replaced by `add`. A half a run opens still
/// starts from `map(r)`, so its accumulator carries the first record's
/// own bits (a `-0.0` included).
pub(crate) fn step_query<S: InPlaceStep, Out: DpOutput>(
    step: &S,
    name: impl Into<String>,
    finalize: impl Fn(Option<&S::Acc>) -> Out + Send + Sync + 'static,
) -> MapReduceQuery<S::Record, S::Acc, Out> {
    let (mapper, kernel) = (step.clone(), step.clone());
    let map = move |r: &S::Record| mapper.map(r);
    MapReduceQuery::new(name, S::half_key, map, S::reduce, finalize).with_slice_fold(
        move |slice, halves| {
            for r in slice {
                match &mut halves[half_of(S::half_key(r))] {
                    Some(acc) => kernel.add(acc, r),
                    half => *half = Some(kernel.map(r)),
                }
            }
        },
    )
}

/// The step's reduction over a whole dataset, without privacy: each
/// partition maps its first record and adds the rest in place, and the
/// partials merge with the reducer in partition order. Bit for bit
/// `data.map(map).reduce(reduce)`, in one stage instead of two.
pub(crate) fn fold_plain<S: InPlaceStep>(step: &S, data: &Dataset<S::Record>) -> Option<S::Acc> {
    let step = step.clone();
    data.run_partitions("reduce", move |_, part| {
        let (first, rest) = part.split_first()?;
        let mut acc = step.map(first);
        for r in rest {
            step.add(&mut acc, r);
        }
        Some(acc)
    })
    .into_iter()
    .flatten()
    .reduce(|a, b| S::reduce(&a, &b))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dataflow::Context;

    /// Asserts that the query's kernel leaves both halves exactly as the
    /// generic fold does, wherever the pipeline cuts a run (the second
    /// part of every split folds onto the halves the first part left
    /// behind), and that [`fold_plain`] and `step_plain` equal the old
    /// `map().reduce()` over five uneven partitions. `bits` flattens an
    /// accumulator to its bit patterns.
    pub(crate) fn assert_kernel_matches_generic<S: InPlaceStep, Out: DpOutput>(
        step: &S,
        query: &MapReduceQuery<S::Record, S::Acc, Out>,
        step_plain: impl Fn(&Dataset<S::Record>) -> Out,
        cases: &[Vec<S::Record>],
        bits: impl Fn(&S::Acc) -> Vec<u64>,
    ) {
        let half_bits = |halves: &[Option<S::Acc>; 2]| -> Vec<Option<Vec<u64>>> {
            halves.iter().map(|a| a.as_ref().map(&bits)).collect()
        };
        let kernel = query.slice_fold().expect("ML queries carry a fused kernel");
        let ctx = Context::with_threads(2);
        for (c, records) in cases.iter().enumerate() {
            let len = records.len();
            let mut generic = [None, None];
            query.fold_run_generic(records, &mut generic);
            for split in [0, 1, 3, 4, 5, len / 2, len] {
                let split = split.min(len);
                let mut fused = [None, None];
                kernel(&records[..split], &mut fused);
                kernel(&records[split..], &mut fused);
                assert_eq!(
                    half_bits(&fused),
                    half_bits(&generic),
                    "case {c}, {len} records, split {split}"
                );
            }
            // Five uneven partitions, the third one empty.
            let cuts = [0, len / 10, 2 * len / 5, 2 * len / 5, 3 * len / 5, len];
            let ds = cuts
                .windows(2)
                .map(|w| ctx.parallelize(records[w[0]..w[1]].to_vec(), 1))
                .reduce(|a, b| a.union(&b))
                .expect("five parts");
            assert_eq!(ds.num_partitions(), 5);
            let (m, r) = (query.mapper(), query.reducer());
            let old = ds.map(move |x| m(x)).reduce(move |a, b| r(a, b));
            assert_eq!(
                fold_plain(step, &ds).as_ref().map(&bits),
                old.as_ref().map(&bits),
                "case {c}: fold_plain against map().reduce()"
            );
            let out_bits =
                |out: Out| -> Vec<u64> { out.components().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                out_bits(step_plain(&ds)),
                out_bits(query.finalize(old.as_ref())),
                "case {c}: step_plain against map().reduce()"
            );
        }
    }
}
