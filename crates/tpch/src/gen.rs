//! Deterministic, seeded TPC-H-style data generator.
//!
//! Table cardinalities follow the official TPC-H ratios, parameterised by
//! the number of orders. Two deliberate deviations from the uniform
//! official generator, both load-bearing for the reproduction:
//!
//! * **lineitem fan-out per order** is Zipf-distributed (1..=12), so some
//!   orders own many lineitems — the join influence that Q4/Q13 must
//!   track;
//! * **lineitem supplier keys** are Zipf-distributed, so a few suppliers
//!   serve a large share of lineitems — the heavy-tailed sensitivity
//!   outliers that make TPCH21 the least accurate query in the paper's
//!   Figure 3.

use crate::rows::*;
use dataflow::{Context, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upa_stats::sampling::Zipf;

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchConfig {
    /// Number of `orders` rows; every other cardinality derives from it
    /// using TPC-H's ratios (lineitem ≈ 4×, part = 2/15×, supplier =
    /// 1/150× with a floor, partsupp = 4 per part).
    pub orders: usize,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
    /// Zipf exponent for the lineitem→supplier skew. 0 disables the skew;
    /// the default 1.1 produces the heavy-tailed supplier fan-in.
    pub supplier_skew: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            orders: 5_000,
            seed: 0x7C_4D,
            supplier_skew: 1.1,
        }
    }
}

/// The generated database.
#[derive(Debug, Clone, Default)]
pub struct Tables {
    /// `lineitem` rows (the biggest table).
    pub lineitem: Vec<Lineitem>,
    /// `orders` rows.
    pub orders: Vec<Order>,
    /// `part` rows.
    pub part: Vec<Part>,
    /// `supplier` rows.
    pub supplier: Vec<Supplier>,
    /// `partsupp` rows.
    pub partsupp: Vec<PartSupp>,
    /// `nation` rows (always 25).
    pub nation: Vec<Nation>,
}

impl Tables {
    /// Generates a database.
    ///
    /// # Panics
    ///
    /// Panics if `config.orders` is zero.
    pub fn generate(config: &TpchConfig) -> Tables {
        assert!(config.orders > 0, "orders must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let num_orders = config.orders;
        let num_parts = (num_orders * 2 / 15).max(20);
        let num_suppliers = (num_orders / 150).max(10);
        let fanout = Zipf::new(12, 1.0);
        let supp_pick = Zipf::new(num_suppliers, config.supplier_skew);
        let part_pick = Zipf::new(num_parts, 0.6);

        let nation: Vec<Nation> = (0..25)
            .map(|k| Nation {
                nationkey: k,
                regionkey: k / 5,
            })
            .collect();

        let supplier: Vec<Supplier> = (0..num_suppliers)
            .map(|i| Supplier {
                suppkey: i as u64 + 1,
                nationkey: rng.gen_range(0..25),
                acctbal: rng.gen_range(-999.0..9999.0),
                complaint: rng.gen_bool(0.08),
            })
            .collect();

        let part: Vec<Part> = (0..num_parts)
            .map(|i| Part {
                partkey: i as u64 + 1,
                brand: rng.gen_range(1..=25),
                typ: rng.gen_range(1..=150),
                size: rng.gen_range(1..=50),
            })
            .collect();

        // Each part is supplied by 4 suppliers, as in TPC-H.
        let mut partsupp = Vec::with_capacity(num_parts * 4);
        for p in &part {
            for _ in 0..4 {
                partsupp.push(PartSupp {
                    partkey: p.partkey,
                    suppkey: rng.gen_range(1..=num_suppliers as u64),
                    availqty: rng.gen_range(1..10_000),
                    supplycost: rng.gen_range(1.0..1_000.0),
                });
            }
        }

        let mut orders = Vec::with_capacity(num_orders);
        let mut lineitem = Vec::new();
        for i in 0..num_orders {
            let orderkey = i as u64 + 1;
            let orderdate = rng.gen_range(0..DATE_RANGE - 151);
            let status = *[STATUS_F, STATUS_O, STATUS_P]
                .get(rng.gen_range(0..3))
                .expect("three statuses");
            orders.push(Order {
                orderkey,
                custkey: rng.gen_range(1..=(num_orders as u64 / 10).max(1)),
                orderstatus: status,
                totalprice: rng.gen_range(900.0..500_000.0),
                orderdate,
                orderpriority: rng.gen_range(1..=5),
            });
            let lines = fanout.sample(&mut rng);
            for _ in 0..lines {
                let quantity = rng.gen_range(1.0..50.0);
                let shipdate = orderdate + rng.gen_range(1..121);
                lineitem.push(Lineitem {
                    orderkey,
                    partkey: part_pick.sample(&mut rng) as u64,
                    suppkey: supp_pick.sample(&mut rng) as u64,
                    quantity,
                    extendedprice: quantity * rng.gen_range(900.0..2_100.0),
                    discount: rng.gen_range(0..=10) as f64 / 100.0,
                    tax: rng.gen_range(0..=8) as f64 / 100.0,
                    shipdate,
                    commitdate: orderdate + rng.gen_range(30..91),
                    receiptdate: shipdate + rng.gen_range(1..31),
                });
            }
        }

        Tables {
            lineitem,
            orders,
            part,
            supplier,
            partsupp,
            nation,
        }
    }
}

/// The database loaded into engine datasets (the "RDDs" of the queries).
#[derive(Debug, Clone)]
pub struct TpchDatasets {
    /// `lineitem` dataset.
    pub lineitem: Dataset<Lineitem>,
    /// `orders` dataset.
    pub orders: Dataset<Order>,
    /// `part` dataset.
    pub part: Dataset<Part>,
    /// `supplier` dataset.
    pub supplier: Dataset<Supplier>,
    /// `partsupp` dataset.
    pub partsupp: Dataset<PartSupp>,
    /// `nation` dataset.
    pub nation: Dataset<Nation>,
}

impl TpchDatasets {
    /// Loads the tables into `partitions`-way datasets on `ctx`.
    pub fn load(ctx: &Context, tables: &Tables, partitions: usize) -> TpchDatasets {
        TpchDatasets {
            lineitem: ctx.parallelize(tables.lineitem.clone(), partitions),
            orders: ctx.parallelize(tables.orders.clone(), partitions),
            part: ctx.parallelize(tables.part.clone(), partitions),
            supplier: ctx.parallelize(tables.supplier.clone(), partitions),
            partsupp: ctx.parallelize(tables.partsupp.clone(), partitions),
            nation: ctx.parallelize(tables.nation.clone(), partitions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tables {
        Tables::generate(&TpchConfig {
            orders: 1_000,
            seed: 42,
            supplier_skew: 1.1,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.partsupp, b.partsupp);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = Tables::generate(&TpchConfig {
            orders: 1_000,
            seed: 43,
            supplier_skew: 1.1,
        });
        assert_ne!(a.lineitem, b.lineitem);
    }

    #[test]
    fn cardinalities_follow_ratios() {
        let t = small();
        assert_eq!(t.orders.len(), 1_000);
        assert_eq!(t.nation.len(), 25);
        assert_eq!(t.partsupp.len(), t.part.len() * 4);
        // Zipf(12, 1.0) has mean ≈ 3.9; lineitem is a few times orders.
        assert!(t.lineitem.len() > t.orders.len());
        assert!(t.lineitem.len() < t.orders.len() * 12);
    }

    #[test]
    fn foreign_keys_are_valid() {
        let t = small();
        let max_supp = t.supplier.len() as u64;
        let max_part = t.part.len() as u64;
        for l in &t.lineitem {
            assert!(l.orderkey >= 1 && l.orderkey <= t.orders.len() as u64);
            assert!(l.suppkey >= 1 && l.suppkey <= max_supp);
            assert!(l.partkey >= 1 && l.partkey <= max_part);
            assert!(l.receiptdate > l.shipdate);
            assert!(l.shipdate > 0);
        }
        for ps in &t.partsupp {
            assert!(ps.suppkey >= 1 && ps.suppkey <= max_supp);
            assert!(ps.partkey >= 1 && ps.partkey <= max_part);
        }
        for s in &t.supplier {
            assert!(s.nationkey < 25);
        }
    }

    #[test]
    fn supplier_keys_are_skewed() {
        let t = small();
        let mut counts = vec![0usize; t.supplier.len() + 1];
        for l in &t.lineitem {
            counts[l.suppkey as usize] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        let avg = t.lineitem.len() / t.supplier.len();
        assert!(
            max > avg * 3,
            "expected heavy-tailed supplier fan-in (max {max}, avg {avg})"
        );
    }

    #[test]
    fn datasets_load_with_requested_partitioning() {
        let t = small();
        let ctx = Context::with_threads(2);
        let ds = TpchDatasets::load(&ctx, &t, 4);
        assert_eq!(ds.lineitem.len(), t.lineitem.len());
        assert_eq!(ds.orders.num_partitions(), 4);
        assert_eq!(ds.nation.len(), 25);
    }
}
