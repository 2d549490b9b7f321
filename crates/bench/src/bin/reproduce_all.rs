//! Runs every table/figure reproduction in sequence (Table II, Figures
//! 2(a), 2(b), 3, 4(a), 4(b)). Scale via UPA_BENCH_* env vars.

fn main() {
    let cfg = upa_bench::ExpConfig::from_env();
    println!("configuration: {cfg:?}\n");
    upa_bench::experiments::table2(&cfg);
    println!();
    upa_bench::experiments::fig2a(&cfg);
    println!();
    upa_bench::experiments::fig2b(&cfg);
    println!();
    upa_bench::experiments::fig3(&cfg);
    println!();
    upa_bench::experiments::fig4a(&cfg);
    println!();
    upa_bench::experiments::fig4b(&cfg);
}
