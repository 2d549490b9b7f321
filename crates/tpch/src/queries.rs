//! The seven TPC-H queries of the UPA evaluation (Table II).
//!
//! Each query is a **Map/Reduce decomposition** — a [`MapReduceQuery`]
//! over the *protected table's* records (the iDP unit), with other tables
//! folded in through broadcast lookup maps. UPA and the brute-force ground
//! truth both consume this form, and the evaluation suite's vanilla
//! baseline (`run_plain`, the "vanilla Spark" of Figure 2(b)) runs its
//! mapper as a plain dataflow job. Q4 and Q13 also expose their keyed
//! join inputs ([`Q4::keyed`]), which `joinDP` and the vanilla shuffle
//! join read.
//!
//! The other form, the SQL text whose parsed plan FLEX analyses, is in
//! [`crate::sql`].
//!
//! Predicates are simplified to the generated columns but keep each
//! query's *operator structure* — how many joins and filters, and which
//! table's records carry the privacy unit:
//!
//! | Query | Protected table | Shape |
//! |-------|-----------------|-------|
//! | Q1    | lineitem        | plain COUNT, no filter/join (FLEX exact)  |
//! | Q4    | orders          | 1 join + 2 filters, COUNT                 |
//! | Q6    | lineitem        | 3 filters, SUM (arithmetic — FLEX: no)    |
//! | Q11   | partsupp        | 1 join + 1 filter, SUM (FLEX: no)         |
//! | Q13   | orders          | 1 join + 1 filter, COUNT                  |
//! | Q16   | partsupp        | 2 joins + 3 filters, COUNT                |
//! | Q21   | supplier        | 3 joins + 3 filters, COUNT (skew outliers)|

use crate::gen::{Tables, TpchDatasets};
use crate::rows::*;
use std::collections::HashMap;
use std::sync::Arc;
use upa_core::query::MapReduceQuery;

/// The keyed join inputs of Q4/Q13: `(orders by orderkey, lineitem by
/// orderkey)`.
pub type OrderLineitemJoin = (
    dataflow::Dataset<(u64, Order)>,
    dataflow::Dataset<(u64, Lineitem)>,
);

fn lineitems_by_orderkey(tables: &Tables) -> Arc<HashMap<u64, Vec<Lineitem>>> {
    let mut m: HashMap<u64, Vec<Lineitem>> = HashMap::new();
    for l in &tables.lineitem {
        m.entry(l.orderkey).or_default().push(*l);
    }
    Arc::new(m)
}

fn lineitems_by_suppkey(tables: &Tables) -> Arc<HashMap<u64, Vec<Lineitem>>> {
    let mut m: HashMap<u64, Vec<Lineitem>> = HashMap::new();
    for l in &tables.lineitem {
        m.entry(l.suppkey).or_default().push(*l);
    }
    Arc::new(m)
}

fn orders_by_key(tables: &Tables) -> Arc<HashMap<u64, Order>> {
    Arc::new(tables.orders.iter().map(|o| (o.orderkey, *o)).collect())
}

fn parts_by_key(tables: &Tables) -> Arc<HashMap<u64, Part>> {
    Arc::new(tables.part.iter().map(|p| (p.partkey, *p)).collect())
}

fn suppliers_by_key(tables: &Tables) -> Arc<HashMap<u64, Supplier>> {
    Arc::new(tables.supplier.iter().map(|s| (s.suppkey, *s)).collect())
}

/// Stable half key for lineitem rows (content-defined; see
/// [`MapReduceQuery::new`]).
fn lineitem_half_key(l: &Lineitem) -> u64 {
    l.orderkey.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (l.suppkey << 17)
        ^ ((l.partkey) << 3)
        ^ l.shipdate as u64
}

/// Stable half key for partsupp rows.
fn partsupp_half_key(ps: &PartSupp) -> u64 {
    ps.partkey.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ps.suppkey
}

/// Stable half key for orders rows.
fn order_half_key(o: &Order) -> u64 {
    o.orderkey
}

// ---------------------------------------------------------------------------
// TPCH1 — plain COUNT of lineitem (no filter, no join): the query FLEX
// gets exactly right (sensitivity 1).
// ---------------------------------------------------------------------------

/// TPCH Query 1 (simplified to the COUNT the paper evaluates).
#[derive(Debug, Clone)]
pub struct Q1 {
    query: MapReduceQuery<Lineitem, f64, f64>,
}

impl Q1 {
    /// Builds the query (no broadcast state needed).
    pub fn new(_tables: &Tables) -> Q1 {
        Q1 {
            query: MapReduceQuery::scalar_sum("TPCH1", lineitem_half_key, |_l: &Lineitem| 1.0),
        }
    }

    /// The Map/Reduce decomposition over the protected `lineitem` rows.
    pub fn query(&self) -> &MapReduceQuery<Lineitem, f64, f64> {
        &self.query
    }
}

// ---------------------------------------------------------------------------
// TPCH4 — orders ⋈ lineitem with a date-window filter on orders and the
// commit/receipt filter on lineitem; COUNT of qualifying joined pairs.
// Protected: orders (removing an order removes all its joined pairs).
// ---------------------------------------------------------------------------

/// Start of Q4's quarter-long order-date window.
pub const Q4_DATE_LO: u32 = 2 * DAYS_PER_YEAR;
/// End (exclusive) of Q4's window.
pub const Q4_DATE_HI: u32 = Q4_DATE_LO + 90;

/// Q4's join predicate (public so harnesses can rebuild the aggregate
/// with a different output shape).
pub fn q4_qualifies(o: &Order, l: &Lineitem) -> bool {
    o.orderdate >= Q4_DATE_LO && o.orderdate < Q4_DATE_HI && l.commitdate < l.receiptdate
}

/// TPCH Query 4 (simplified).
#[derive(Debug, Clone)]
pub struct Q4 {
    query: MapReduceQuery<Order, f64, f64>,
}

impl Q4 {
    /// Builds broadcast state and the query.
    pub fn new(tables: &Tables) -> Q4 {
        let by_order = lineitems_by_orderkey(tables);
        let query = MapReduceQuery::scalar_sum("TPCH4", order_half_key, move |o: &Order| {
            by_order
                .get(&o.orderkey)
                .map(|ls| ls.iter().filter(|l| q4_qualifies(o, l)).count() as f64)
                .unwrap_or(0.0)
        });
        Q4 { query }
    }

    /// The Map/Reduce decomposition over the protected `orders` rows
    /// (map-side join form; used for ground truth).
    pub fn query(&self) -> &MapReduceQuery<Order, f64, f64> {
        &self.query
    }

    /// The two keyed inputs of the join.
    pub fn keyed(data: &TpchDatasets) -> OrderLineitemJoin {
        (
            data.orders.key_by(|o| o.orderkey),
            data.lineitem.key_by(|l| l.orderkey),
        )
    }
}

// ---------------------------------------------------------------------------
// TPCH6 — SUM(extendedprice · discount) under three filters; arithmetic,
// so FLEX cannot analyse it. Protected: lineitem.
// ---------------------------------------------------------------------------

/// Start of Q6's one-year ship-date window.
pub const Q6_DATE_LO: u32 = 4 * DAYS_PER_YEAR;
/// End (exclusive) of Q6's window.
pub const Q6_DATE_HI: u32 = 5 * DAYS_PER_YEAR;

/// TPCH Query 6 (simplified).
#[derive(Debug, Clone)]
pub struct Q6 {
    query: MapReduceQuery<Lineitem, f64, f64>,
}

impl Q6 {
    /// Builds the query.
    pub fn new(_tables: &Tables) -> Q6 {
        Q6 {
            query: MapReduceQuery::scalar_sum("TPCH6", lineitem_half_key, |l: &Lineitem| {
                if l.shipdate >= Q6_DATE_LO
                    && l.shipdate < Q6_DATE_HI
                    && (0.05..=0.07).contains(&l.discount)
                    && l.quantity < 24.0
                {
                    l.extendedprice * l.discount
                } else {
                    0.0
                }
            }),
        }
    }

    /// The Map/Reduce decomposition over the protected `lineitem` rows.
    pub fn query(&self) -> &MapReduceQuery<Lineitem, f64, f64> {
        &self.query
    }
}

// ---------------------------------------------------------------------------
// TPCH11 — SUM(supplycost · availqty) for partsupp of suppliers in one
// nation group: partsupp ⋈ supplier + filter; arithmetic (FLEX: no).
// Protected: partsupp.
// ---------------------------------------------------------------------------

/// Nations Q11 restricts to (nationkey below this bound; see
/// [`Q21_NATION_BOUND`] for why a nation group replaces TPC-H's single
/// nation at this scale).
pub const Q11_NATION_BOUND: u8 = 8;

/// TPCH Query 11 (simplified).
#[derive(Debug, Clone)]
pub struct Q11 {
    query: MapReduceQuery<PartSupp, f64, f64>,
}

impl Q11 {
    /// Builds broadcast state and the query.
    pub fn new(tables: &Tables) -> Q11 {
        let suppliers = suppliers_by_key(tables);
        Q11 {
            query: MapReduceQuery::scalar_sum("TPCH11", partsupp_half_key, move |ps: &PartSupp| {
                match suppliers.get(&ps.suppkey) {
                    Some(s) if s.nationkey < Q11_NATION_BOUND => ps.supplycost * ps.availqty as f64,
                    _ => 0.0,
                }
            }),
        }
    }

    /// The Map/Reduce decomposition over the protected `partsupp` rows.
    pub fn query(&self) -> &MapReduceQuery<PartSupp, f64, f64> {
        &self.query
    }
}

// ---------------------------------------------------------------------------
// TPCH13 — orders ⋈ lineitem, COUNT of pairs for non-urgent orders.
// Protected: orders.
// ---------------------------------------------------------------------------

/// Q13's join predicate.
pub fn q13_qualifies(o: &Order, _l: &Lineitem) -> bool {
    o.orderpriority >= 2
}

/// TPCH Query 13 (simplified).
#[derive(Debug, Clone)]
pub struct Q13 {
    query: MapReduceQuery<Order, f64, f64>,
}

impl Q13 {
    /// Builds broadcast state and the query.
    pub fn new(tables: &Tables) -> Q13 {
        let by_order = lineitems_by_orderkey(tables);
        let query = MapReduceQuery::scalar_sum("TPCH13", order_half_key, move |o: &Order| {
            by_order
                .get(&o.orderkey)
                .map(|ls| ls.iter().filter(|l| q13_qualifies(o, l)).count() as f64)
                .unwrap_or(0.0)
        });
        Q13 { query }
    }

    /// The Map/Reduce decomposition over the protected `orders` rows.
    pub fn query(&self) -> &MapReduceQuery<Order, f64, f64> {
        &self.query
    }
}

// ---------------------------------------------------------------------------
// TPCH16 — partsupp ⋈ part ⋈ supplier with three filters; COUNT.
// Protected: partsupp. Filters eliminate most rows, which is why UPA's
// overhead on Q16 is low (paper §VI-D) and FLEX's estimate is wildly
// conservative (it cannot see the filters).
// ---------------------------------------------------------------------------

/// Sizes Q16 keeps (TPC-H's eight-value IN list).
pub const Q16_SIZES: [u8; 8] = [1, 4, 9, 14, 19, 23, 36, 49];
/// Brand Q16 excludes.
pub const Q16_BRAND: u8 = 12;

/// TPCH Query 16 (simplified).
#[derive(Debug, Clone)]
pub struct Q16 {
    query: MapReduceQuery<PartSupp, f64, f64>,
}

impl Q16 {
    /// Builds broadcast state and the query.
    pub fn new(tables: &Tables) -> Q16 {
        let parts = parts_by_key(tables);
        let suppliers = suppliers_by_key(tables);
        Q16 {
            query: MapReduceQuery::scalar_sum("TPCH16", partsupp_half_key, move |ps: &PartSupp| {
                let part_ok = parts.get(&ps.partkey).is_some_and(|p| {
                    p.brand != Q16_BRAND && p.typ % 5 != 0 && Q16_SIZES.contains(&p.size)
                });
                let supp_ok = suppliers.get(&ps.suppkey).is_some_and(|s| !s.complaint);
                if part_ok && supp_ok {
                    1.0
                } else {
                    0.0
                }
            }),
        }
    }

    /// The Map/Reduce decomposition over the protected `partsupp` rows.
    pub fn query(&self) -> &MapReduceQuery<PartSupp, f64, f64> {
        &self.query
    }
}

// ---------------------------------------------------------------------------
// TPCH21 — supplier ⋈ lineitem ⋈ orders ⋈ nation with three filters;
// COUNT of late lineitems of suppliers in one nation whose order is
// finished. Protected: supplier — the Zipf fan-in makes a few suppliers
// own thousands of lineitems, producing the outlier sensitivities of
// Figure 3.
// ---------------------------------------------------------------------------

/// Nations Q21 restricts to (nationkey below this bound). TPC-H restricts
/// to a single nation of 25; at this reproduction's much smaller supplier
/// cardinality a single nation would often select zero suppliers, so the
/// filter keeps the same ~1/3 selectivity by accepting a nation group.
pub const Q21_NATION_BOUND: u8 = 8;

/// TPCH Query 21 (simplified).
#[derive(Debug, Clone)]
pub struct Q21 {
    query: MapReduceQuery<Supplier, f64, f64>,
}

impl Q21 {
    /// Builds broadcast state and the query.
    pub fn new(tables: &Tables) -> Q21 {
        let by_supp = lineitems_by_suppkey(tables);
        let orders = orders_by_key(tables);
        Q21 {
            query: MapReduceQuery::scalar_sum(
                "TPCH21",
                |s: &Supplier| s.suppkey,
                move |s: &Supplier| {
                    if s.nationkey >= Q21_NATION_BOUND {
                        return 0.0;
                    }
                    by_supp
                        .get(&s.suppkey)
                        .map(|ls| {
                            ls.iter()
                                .filter(|l| {
                                    l.receiptdate > l.commitdate
                                        && orders
                                            .get(&l.orderkey)
                                            .is_some_and(|o| o.orderstatus == STATUS_F)
                                })
                                .count() as f64
                        })
                        .unwrap_or(0.0)
                },
            ),
        }
    }

    /// The Map/Reduce decomposition over the protected `supplier` rows.
    pub fn query(&self) -> &MapReduceQuery<Supplier, f64, f64> {
        &self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TpchConfig;
    use dataflow::{Context, PairOps};
    use upa_relational::LogicalPlan;

    fn setup() -> (Tables, TpchDatasets, Context) {
        let tables = Tables::generate(&TpchConfig {
            orders: 800,
            ..TpchConfig::default()
        });
        let ctx = Context::with_threads(4);
        let data = TpchDatasets::load(&ctx, &tables, 8);
        (tables, data, ctx)
    }

    #[test]
    fn q1_counts_lineitems() {
        let (tables, _data, _ctx) = setup();
        let q = Q1::new(&tables);
        assert_eq!(
            q.query().evaluate_slice(&tables.lineitem),
            tables.lineitem.len() as f64
        );
    }

    #[test]
    fn q4_broadcast_form_matches_shuffle_join() {
        let (tables, data, _ctx) = setup();
        let q = Q4::new(&tables);
        let (orders, lineitem) = Q4::keyed(&data);
        let plain = orders
            .join(&lineitem)
            .filter(|(_, (o, l))| q4_qualifies(o, l))
            .count() as f64;
        let decomposed = q.query().evaluate_slice(&tables.orders);
        assert_eq!(plain, decomposed);
        assert!(plain > 0.0, "the date window must select something");
        assert!(
            plain < tables.lineitem.len() as f64,
            "filters must drop something"
        );
    }

    #[test]
    fn q13_broadcast_form_matches_shuffle_join() {
        let (tables, data, _ctx) = setup();
        let q = Q13::new(&tables);
        let (orders, lineitem) = Q4::keyed(&data);
        let plain = orders
            .join(&lineitem)
            .filter(|(_, (o, l))| q13_qualifies(o, l))
            .count() as f64;
        assert_eq!(plain, q.query().evaluate_slice(&tables.orders));
    }

    #[test]
    fn q6_matches_sequential_reference() {
        let (tables, _data, _ctx) = setup();
        let q = Q6::new(&tables);
        let reference: f64 = tables
            .lineitem
            .iter()
            .filter(|l| {
                l.shipdate >= Q6_DATE_LO
                    && l.shipdate < Q6_DATE_HI
                    && (0.05..=0.07).contains(&l.discount)
                    && l.quantity < 24.0
            })
            .map(|l| l.extendedprice * l.discount)
            .sum();
        assert!((q.query().evaluate_slice(&tables.lineitem) - reference).abs() < 1e-6);
        assert!(reference > 0.0);
    }

    #[test]
    fn q11_restricts_to_one_nation() {
        let (tables, _data, _ctx) = setup();
        let q = Q11::new(&tables);
        let reference: f64 = tables
            .partsupp
            .iter()
            .filter(|ps| {
                tables
                    .supplier
                    .iter()
                    .find(|s| s.suppkey == ps.suppkey)
                    .map(|s| s.nationkey < Q11_NATION_BOUND)
                    .unwrap_or(false)
            })
            .map(|ps| ps.supplycost * ps.availqty as f64)
            .sum();
        assert!((q.query().evaluate_slice(&tables.partsupp) - reference).abs() < 1e-6);
    }

    #[test]
    fn q16_filters_most_rows() {
        let (tables, _data, _ctx) = setup();
        let q = Q16::new(&tables);
        let count = q.query().evaluate_slice(&tables.partsupp);
        assert!(count > 0.0);
        // Eight sizes of fifty and 4/5 of the types survive, so the
        // surviving fraction is well under a quarter.
        assert!(count < tables.partsupp.len() as f64 / 4.0);
    }

    #[test]
    fn q21_has_skewed_per_supplier_influence() {
        let (tables, _data, _ctx) = setup();
        let q = Q21::new(&tables);
        let total = q.query().evaluate_slice(&tables.supplier);
        assert!(total > 0.0);
        // Per-supplier contributions (the removal influences) must be
        // heavy-tailed: the max dominates the mean.
        let contributions: Vec<f64> = tables.supplier.iter().map(|s| q.query().map(s)).collect();
        let max = contributions.iter().copied().fold(0.0, f64::max);
        let mean = contributions.iter().sum::<f64>() / contributions.len() as f64;
        assert!(
            max > 4.0 * mean.max(0.5),
            "expected outlier suppliers (max {max}, mean {mean})"
        );
    }

    /// FLEX's plan of query `name`: the one parsed from its SQL text.
    fn flex(name: &str) -> LogicalPlan {
        crate::sql::plan(name)
    }

    /// The `(joins, filters)` of a plan.
    fn joins_and_filters(plan: &LogicalPlan) -> (usize, usize) {
        match plan {
            LogicalPlan::Scan { .. } => (0, 0),
            LogicalPlan::Filter { input, .. } => {
                let (joins, filters) = joins_and_filters(input);
                (joins, filters + 1)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::GroupBy { input, .. } => joins_and_filters(input),
            LogicalPlan::Join { left, right, .. } => {
                let (lj, lf) = joins_and_filters(left);
                let (rj, rf) = joins_and_filters(right);
                (lj + rj + 1, lf + rf)
            }
        }
    }

    #[test]
    fn flex_plans_have_expected_shapes() {
        for (name, joins) in [
            ("Q1", 0),
            ("Q4", 1),
            ("Q6", 0),
            ("Q11", 1),
            ("Q13", 1),
            ("Q16", 2),
            ("Q21", 3),
        ] {
            assert_eq!(joins_and_filters(&flex(name)).0, joins, "{name}");
        }
        assert_eq!(joins_and_filters(&flex("Q21")).1, 1);
    }

    #[test]
    fn flex_supports_exactly_the_count_queries() {
        let (tables, _data, _ctx) = setup();
        let meta = crate::sql::build_metadata(&tables);
        for (name, supported) in [
            ("Q1", true),
            ("Q4", true),
            ("Q6", false),
            ("Q11", false),
            ("Q13", true),
            ("Q16", true),
            ("Q21", true),
        ] {
            let bound = upa_flex::analyze(&flex(name), &meta);
            assert_eq!(bound.is_ok(), supported, "{name}: {bound:?}");
        }
    }

    #[test]
    fn flex_overestimates_join_queries() {
        let (tables, _data, _ctx) = setup();
        let meta = crate::sql::build_metadata(&tables);
        let q1 = upa_flex::analyze(&flex("Q1"), &meta).unwrap();
        let q4 = upa_flex::analyze(&flex("Q4"), &meta).unwrap();
        let q21 = upa_flex::analyze(&flex("Q21"), &meta).unwrap();
        assert_eq!(q1, 1.0, "FLEX is exact on the plain count");
        assert!(q4 > 1.0);
        assert!(
            q21 > q4,
            "more joins must mean a larger FLEX bound ({q21} vs {q4})"
        );
    }
}
