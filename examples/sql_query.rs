//! One query, three treatments: execute it as SQL, analyse it with FLEX,
//! release it privately with UPA.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sql_query
//! ```
//!
//! The analyst's TPCH4-style counting query is written once as SQL text.
//! The example (1) parses it and executes the plan on the relational
//! engine, (2) hands the same plan to FLEX and compares the static
//! sensitivity bound against brute-force ground truth, and (3) runs the
//! equivalent Map/Reduce decomposition through UPA's full iDP pipeline —
//! the side-by-side that the paper's Figure 2(a) aggregates over nine
//! queries.

use dataflow::Context;
use upa_repro::upa_core::brute::exact_local_sensitivity;
use upa_repro::upa_core::domain::EmpiricalSampler;
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_flex::{analyze, SmoothMechanism};
use upa_repro::upa_tpch::queries::Q4;
use upa_repro::upa_tpch::sql::{self, build_metadata, catalog};
use upa_repro::upa_tpch::{Tables, TpchConfig};

fn main() {
    let tables = Tables::generate(&TpchConfig {
        orders: 10_000,
        ..TpchConfig::default()
    });
    let ctx = Context::default();

    // (1) Parse the SQL text and execute the plan.
    let plan = sql::plan("Q4");
    let exact = catalog(&ctx, &tables, 8)
        .execute(&plan)
        .expect("plan executes")
        .as_scalar()
        .expect("count is scalar");
    println!("SQL execution of TPCH4       : {exact}");

    // (2) Static analysis of the same plan.
    let metadata = build_metadata(&tables);
    let flex_bound = analyze(&plan, &metadata).expect("count query");
    let smooth = SmoothMechanism::new(0.1, 1e-6)
        .sensitivity(&plan, &metadata)
        .expect("count query");
    println!("FLEX local-sensitivity bound : {flex_bound}");
    println!("FLEX smooth sensitivity      : {smooth:.2}");

    // Ground truth for comparison.
    let q4 = Q4::new(&tables);
    let domain = EmpiricalSampler::new(tables.orders.clone());
    let gt = exact_local_sensitivity(&ctx, &tables.orders, q4.query(), &domain, 1_000, 7);
    println!("brute-force ground truth LS  : {}", gt.local_sensitivity);

    // (3) The UPA release.
    let upa = Upa::new(ctx.clone(), UpaConfig::default());
    let ds = ctx.parallelize_default(tables.orders.clone());
    let result = upa.run(&ds, q4.query(), &domain).expect("query runs");
    println!(
        "UPA inferred (empirical) LS  : {}",
        result.max_empirical_sensitivity()
    );
    println!("UPA noisy release (ε=0.1)    : {:.2}", result.released);

    assert_eq!(result.raw, exact, "all three views agree on f(x)");
    assert!(
        (result.max_empirical_sensitivity() - gt.local_sensitivity).abs()
            <= (flex_bound - gt.local_sensitivity).abs(),
        "UPA's dynamic estimate should beat the static bound"
    );
}
