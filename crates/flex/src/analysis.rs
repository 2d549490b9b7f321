//! The FLEX sensitivity analysis, read off the relational plan the
//! engine executes.
//!
//! Recursive rule (elastic sensitivity at distance 0, specialised to the
//! counting queries this paper compares on):
//!
//! ```text
//! S(Scan t)                  = 1
//! S(Filter p), S(Project p)  = S(p)            -- predicates are opaque
//! S(Join l r on a = b)       = max( S(l) · mf(b),  S(r) · mf(a) )
//! S(COUNT(*) p)              = S(p)            -- grouped or not
//! S(SUM(e) p)                = unsupported
//! ```
//!
//! where `mf(c)` is the metadata max frequency of join key `c`. Chained
//! joins therefore multiply max frequencies — the error-magnification the
//! paper describes for TPCH16/TPCH21.

use crate::metadata::{ColumnRef, Metadata};
use crate::plan::{split_column, AggregateKind};
use upa_relational::plan::Aggregate;
use upa_relational::LogicalPlan;

/// Why FLEX cannot analyse a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlexUnsupported {
    /// The plan's root aggregate is not COUNT (SUM and ML are the paper's
    /// "possible extensions" that FLEX does not realise).
    NonCountAggregate(AggregateKind),
    /// The plan has no aggregate at all (raw row output cannot be
    /// released under DP by FLEX).
    NoAggregate,
    /// A join key has no recorded max-frequency metadata.
    MissingMetadata(ColumnRef),
}

impl std::fmt::Display for FlexUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlexUnsupported::NonCountAggregate(kind) => {
                write!(f, "FLEX supports only COUNT, not {kind}")
            }
            FlexUnsupported::NoAggregate => write!(f, "plan has no aggregate to release"),
            FlexUnsupported::MissingMetadata(c) => {
                write!(f, "no max-frequency metadata for join key {c}")
            }
        }
    }
}

impl std::error::Error for FlexUnsupported {}

/// Analyses a counting plan, returning FLEX's local-sensitivity bound
/// (elastic sensitivity at distance 0).
///
/// # Errors
///
/// Returns [`FlexUnsupported`] for non-count queries or missing metadata —
/// the "FLEX supports 5 of 9 queries" rows of the paper's Table II.
pub fn analyze(plan: &LogicalPlan, metadata: &Metadata) -> Result<f64, FlexUnsupported> {
    elastic_sensitivity(plan, metadata, 0)
}

/// Elastic sensitivity at distance `k`: the local-sensitivity bound for
/// any dataset at edit distance `k` from the metadata's dataset. At
/// distance `k`, each join key's max frequency can have grown by `k`
/// (every edited record could pile onto the most frequent key) —
/// FLEX's `mf_k = mf + k` rule. This is the ingredient of smooth
/// sensitivity (see [`crate::smooth`]).
///
/// # Errors
///
/// Same conditions as [`analyze`].
pub fn elastic_sensitivity(
    plan: &LogicalPlan,
    metadata: &Metadata,
    k: u64,
) -> Result<f64, FlexUnsupported> {
    match plan {
        // A grouped count has the same per-record influence bound as the
        // ungrouped count: one record lands in one group.
        LogicalPlan::Aggregate { input, agg } | LogicalPlan::GroupBy { input, agg, .. } => {
            match agg {
                Aggregate::CountStar => relation_sensitivity(input, metadata, k),
                Aggregate::Sum(_) => Err(FlexUnsupported::NonCountAggregate(AggregateKind::Sum)),
            }
        }
        // Descend through non-aggregating roots looking for the aggregate.
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            elastic_sensitivity(input, metadata, k)
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } => Err(FlexUnsupported::NoAggregate),
    }
}

/// How many output rows of `plan` one protected record can influence, at
/// edit distance `k`.
fn relation_sensitivity(
    plan: &LogicalPlan,
    metadata: &Metadata,
    k: u64,
) -> Result<f64, FlexUnsupported> {
    match plan {
        LogicalPlan::Scan { .. } => Ok(1.0),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::GroupBy { input, .. } => relation_sensitivity(input, metadata, k),
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let max_freq = |key: &str| {
                let column = split_column(key);
                match metadata.max_freq(&column) {
                    Some(mf) => Ok(mf + k),
                    None => Err(FlexUnsupported::MissingMetadata(column)),
                }
            };
            let mf_left = max_freq(left_key)?;
            let mf_right = max_freq(right_key)?;
            let s_left = relation_sensitivity(left, metadata, k)?;
            let s_right = relation_sensitivity(right, metadata, k)?;
            // One record on the left joins with up to mf(right_key) rows
            // on the right, and vice versa.
            Ok((s_left * mf_right as f64).max(s_right * mf_left as f64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upa_relational::parse_sql;

    fn meta() -> Metadata {
        let mut m = Metadata::new();
        m.set_max_freq("orders", "orderkey", 1);
        m.set_max_freq("lineitem", "orderkey", 7);
        m.set_max_freq("lineitem", "suppkey", 120);
        m.set_max_freq("supplier", "suppkey", 1);
        m
    }

    fn sql(text: &str) -> LogicalPlan {
        parse_sql(text).unwrap()
    }

    fn orders_join_lineitem() -> LogicalPlan {
        LogicalPlan::scan("orders").join(
            LogicalPlan::scan("lineitem"),
            "orders.orderkey",
            "lineitem.orderkey",
        )
    }

    #[test]
    fn plain_count_has_unit_sensitivity() {
        let plan = sql("SELECT COUNT(*) FROM lineitem");
        assert_eq!(analyze(&plan, &meta()).unwrap(), 1.0);
    }

    #[test]
    fn filters_are_invisible() {
        let filtered = sql("SELECT COUNT(*) FROM lineitem WHERE shipdate < 1000");
        let unfiltered = sql("SELECT COUNT(*) FROM lineitem");
        assert_eq!(
            analyze(&filtered, &meta()).unwrap(),
            analyze(&unfiltered, &meta()).unwrap(),
            "FLEX cannot exploit filters"
        );
    }

    #[test]
    fn join_multiplies_max_frequencies() {
        let plan = orders_join_lineitem().count();
        // max(1 · mf(lineitem.orderkey), 1 · mf(orders.orderkey)) = 7.
        assert_eq!(analyze(&plan, &meta()).unwrap(), 7.0);
    }

    #[test]
    fn chained_joins_magnify_error() {
        let plan = sql("SELECT COUNT(*) FROM orders \
             JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             JOIN supplier ON lineitem.suppkey = supplier.suppkey");
        // Inner join: 7. Outer: max(7 · mf(supplier.suppkey)=7,
        // 1 · mf(lineitem.suppkey)=120) = 120.
        assert_eq!(analyze(&plan, &meta()).unwrap(), 120.0);
    }

    #[test]
    fn non_count_aggregates_are_unsupported() {
        let sum = Err(FlexUnsupported::NonCountAggregate(AggregateKind::Sum));
        let plan = sql("SELECT SUM(quantity) FROM lineitem");
        assert_eq!(analyze(&plan, &meta()), sum);
        let grouped = sql("SELECT orderkey, SUM(quantity) FROM lineitem GROUP BY orderkey");
        assert_eq!(analyze(&grouped, &meta()), sum);
    }

    #[test]
    fn plan_without_aggregate_is_rejected() {
        assert_eq!(
            analyze(&LogicalPlan::scan("lineitem"), &meta()),
            Err(FlexUnsupported::NoAggregate)
        );
        assert_eq!(
            analyze(&orders_join_lineitem(), &meta()),
            Err(FlexUnsupported::NoAggregate)
        );
    }

    #[test]
    fn missing_metadata_is_reported() {
        let plan = LogicalPlan::scan("a")
            .join(LogicalPlan::scan("b"), "a.k", "b.k")
            .count();
        match analyze(&plan, &Metadata::new()) {
            Err(FlexUnsupported::MissingMetadata(c)) => assert_eq!(c.table, "a"),
            other => panic!("expected missing metadata, got {other:?}"),
        }
    }

    #[test]
    fn elastic_sensitivity_grows_with_distance() {
        let plan = orders_join_lineitem().count();
        let m = meta();
        let e0 = elastic_sensitivity(&plan, &m, 0).unwrap();
        let e5 = elastic_sensitivity(&plan, &m, 5).unwrap();
        assert_eq!(e0, 7.0);
        assert_eq!(e5, 12.0, "mf + k on both keys, max rule");
        assert!(elastic_sensitivity(&plan, &m, 100).unwrap() > e5);
    }

    #[test]
    fn elastic_sensitivity_at_zero_is_analyze() {
        let plan = LogicalPlan::scan("lineitem").count();
        let m = meta();
        assert_eq!(
            elastic_sensitivity(&plan, &m, 0).unwrap(),
            analyze(&plan, &m).unwrap()
        );
    }

    #[test]
    fn count_above_filter_above_join() {
        let plan = sql("SELECT COUNT(*) FROM orders \
             JOIN lineitem ON orders.orderkey = lineitem.orderkey \
             WHERE lineitem.commitdate < lineitem.receiptdate");
        assert_eq!(analyze(&plan, &meta()).unwrap(), 7.0);
    }
}
