//! Benchmarks of the relational executor (the SparkSQL substitute):
//! parse, filter scan, shuffle join and aggregate.

use dataflow::Context;
use upa_bench::report::bench;
use upa_relational::exec::Catalog;
use upa_relational::parse_sql;
use upa_relational::value::{Relation, Row, Schema, Value};

fn catalog() -> Catalog {
    let ctx = Context::with_threads(4);
    let mut c = Catalog::new();
    let facts: Vec<Row> = (0..100_000)
        .map(|i| {
            vec![
                Value::Int(i % 1_000),
                Value::Float((i % 97) as f64),
                Value::Int(i % 7),
            ]
        })
        .collect();
    c.register(Relation::from_rows(
        &ctx,
        Schema::new("facts", &["key", "amount", "grp"]),
        facts,
        8,
    ));
    let dims: Vec<Row> = (0..1_000)
        .map(|i| vec![Value::Int(i), Value::Int(i % 25)])
        .collect();
    c.register(Relation::from_rows(
        &ctx,
        Schema::new("dims", &["key", "region"]),
        dims,
        4,
    ));
    c
}

fn main() {
    let sql = "SELECT SUM(facts.amount * 2.0) FROM facts \
               JOIN dims ON facts.key = dims.key \
               WHERE dims.region < 10 AND facts.grp IN (1, 2, 3) AND NOT facts.amount >= 90.0";
    bench("relational/parse_sql", 1_000, || {
        parse_sql(std::hint::black_box(sql)).expect("parses")
    });

    let cat = catalog();
    let filter_count =
        parse_sql("SELECT COUNT(*) FROM facts WHERE amount < 50.0 AND grp <> 3").expect("parses");
    let join_sum = parse_sql(
        "SELECT SUM(facts.amount) FROM facts JOIN dims ON facts.key = dims.key \
         WHERE dims.region < 10",
    )
    .expect("parses");
    bench("relational/execute_100k/filter_count", 12, || {
        cat.execute(&filter_count).expect("runs")
    });
    bench("relational/execute_100k/join_sum", 12, || {
        cat.execute(&join_sum).expect("runs")
    });
}
