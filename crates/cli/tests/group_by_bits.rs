//! Pinned release bits of the `--sql "… GROUP BY …"` path: a per-group
//! count and a per-group filtered sum, each released under fixed
//! arguments. The constants were recorded once; a change that moves
//! them changes what an analyst is released, not only how the per-group
//! query is built.

use upa_cli::sql::run_sql_release;
use upa_cli::{Args, Output};
use upa_store::csv;

/// 2,000 rows over three cities, with repeated ages and incomes.
fn doc() -> csv::CsvDocument {
    let mut text = String::from("age,city,income\n");
    for i in 0..2_000u32 {
        let city = ["york", "leeds", "bath"][(i % 3) as usize];
        text.push_str(&format!("{},{city},{}\n", i % 90, (i * 37 % 50) * 100));
    }
    csv::parse(&text).unwrap()
}

/// The group labels and `(released, enforced, sensitivity)` per group,
/// the floats as bit patterns.
fn release_bits(sql: &str) -> (Vec<String>, Vec<[u64; 3]>) {
    let argv = "--input unused.csv --epsilon 0.5 --sample-size 64 --seed 9 --threads 4";
    let args = Args::parse(argv.split_whitespace().map(str::to_string)).unwrap();
    let Output::Grouped { labels, result } = run_sql_release(&doc(), sql, &args).unwrap().output
    else {
        panic!("{sql} is a grouped release");
    };
    let bits = (0..labels.len())
        .map(|g| {
            [
                result.released[g].to_bits(),
                result.enforced[g].to_bits(),
                result.sensitivity[g].to_bits(),
            ]
        })
        .collect();
    (labels, bits)
}

#[test]
fn group_by_release_bits_are_pinned() {
    let labels = vec!["york".to_string(), "leeds".to_string(), "bath".to_string()];
    let count = release_bits("SELECT city, COUNT(*) FROM data GROUP BY city");
    let sum = release_bits("SELECT city, SUM(income) FROM data WHERE age >= 10 GROUP BY city");
    let want_count: Vec<[u64; 3]> = vec![
        [0x4084e4f316bb6f65, 0x4084d80000000000, 0x4005c0d2684c5600],
        [0x4084e824c53a9aef, 0x4084d80000000000, 0x40079c1eb5bda200],
        [0x4084ebe038c8519c, 0x4084d00000000000, 0x400228f86b1c5000],
    ];
    let want_sum: Vec<[u64; 3]> = vec![
        [0x4135f85c3d098ae9, 0x4135e2bc00000000, 0x40c22a0000000000],
        [0x413618df08bb0690, 0x4136000800000000, 0x40c22a0000000000],
        [0x41367bf21a7a8691, 0x413644c800000000, 0x40c1f80000000000],
    ];
    assert_eq!(
        count,
        (labels.clone(), want_count),
        "count: {:#018x?}",
        count.1
    );
    assert_eq!(sum, (labels, want_sum), "sum: {:#018x?}", sum.1);
}
