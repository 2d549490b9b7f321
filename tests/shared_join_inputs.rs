//! `joinDP` on join inputs that earlier joins already used.
//!
//! The paper suite builds `orders_keyed` and `lineitem_keyed` once and
//! runs TPCH4, TPCH13 and their vanilla joins on those same two datasets.
//! Whatever state a join leaves on its inputs, a later run must release
//! exactly what it releases on freshly built inputs: the same `released`
//! and `enforced` bits, and the same removal and addition outputs. The
//! golden bits only ever see fresh inputs, so this is the check that
//! covers reuse. The float-sum aggregate is the case whose fold order
//! reaches the bits, not only its counts.

use dataflow::{Context, Dataset, PairOps};
use upa_core::domain::EmpiricalSampler;
use upa_core::join::JoinAggregate;
use upa_core::{Upa, UpaConfig, UpaResult};
use upa_repro::suite::{EvalData, EvalScale};
use upa_tpch::queries::{q13_qualifies, q4_qualifies, Q4};
use upa_tpch::{Lineitem, Order};

type Agg = JoinAggregate<u64, Order, Lineitem, f64, f64>;
type Keyed<V> = Dataset<(u64, V)>;

fn count(name: &str, pred: fn(&Order, &Lineitem) -> bool) -> Agg {
    JoinAggregate::count(name, move |_, o, l| pred(o, l))
}

fn revenue() -> Agg {
    JoinAggregate::new(
        "revenue",
        |_, _, l: &Lineitem| Some(l.extendedprice * (1.0 - l.discount)),
        |a, b| a + b,
        |acc| acc.copied().unwrap_or(0.0),
    )
}

/// `released`, `enforced`, then every removal and addition output, as bits.
fn bits(r: &UpaResult<f64>) -> Vec<u64> {
    [r.released, r.enforced]
        .iter()
        .chain(r.removal_outputs.iter())
        .chain(r.addition_outputs.iter())
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn join_dp_on_reused_inputs_releases_the_fresh_input_bits() {
    let ctx = Context::with_threads(4);
    let data = EvalData::generate(
        &ctx,
        EvalScale {
            orders: 600,
            ml_records: 50,
            partitions: 5,
            seed: 0xE7A1,
        },
    );
    let (orders, lineitem) = Q4::keyed(&data.datasets);
    let domain = EmpiricalSampler::new(orders.collect());
    let run = |orders: &Keyed<Order>, lineitem: &Keyed<Lineitem>, agg: &Agg, seed| {
        let upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 64,
                seed,
                ..UpaConfig::default()
            },
        );
        bits(&upa.run_join(orders, lineitem, agg, &domain).unwrap())
    };
    let runs = [
        (count("TPCH4", q4_qualifies), 41),
        (count("TPCH13", q13_qualifies), 42),
        (count("TPCH4", q4_qualifies), 43),
        (revenue(), 44),
        (revenue(), 45),
    ];
    for (i, (agg, seed)) in runs.iter().enumerate() {
        let shared = run(&orders, &lineitem, agg, *seed);
        let (fresh_orders, fresh_lineitem) = Q4::keyed(&data.datasets);
        let fresh = run(&fresh_orders, &fresh_lineitem, agg, *seed);
        assert_eq!(shared, fresh, "run {i} ({}) on shared inputs", agg.name());
        // The suite's vanilla pass joins the same two datasets between
        // its UPA runs.
        let vanilla = orders.join(&lineitem).count();
        assert_eq!(vanilla, fresh_orders.join(&fresh_lineitem).count());
    }
}
