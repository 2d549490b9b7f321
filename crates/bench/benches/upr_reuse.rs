//! Ablation: the union-preserving reuse (prefix/suffix partial
//! reductions over `R(M(S′))`) versus the literal brute force the paper
//! contrasts against. This is the design choice DESIGN.md calls out —
//! the reuse turns O(n·|x|) neighbour evaluation into O(|x| + n).

use dataflow::Context;
use upa_bench::report::bench;
use upa_core::brute::{blackbox_local_sensitivity, exact_local_sensitivity};
use upa_core::domain::EmpiricalSampler;
use upa_core::query::MapReduceQuery;

fn workload(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13 + 7) % 89) as f64).collect()
}

fn main() {
    let ctx = Context::with_threads(2);
    let query = MapReduceQuery::scalar_sum("sum", |x: &f64| x.to_bits(), |x: &f64| *x);
    for size in [250usize, 500, 1_000] {
        let data = workload(size);
        let domain = EmpiricalSampler::new(data.clone());
        bench(
            &format!("ground_truth/union_preserving_reuse/{size}"),
            10,
            || exact_local_sensitivity(&ctx, &data, &query, &domain, 50, 3),
        );
        bench(
            &format!("ground_truth/blackbox_bruteforce/{size}"),
            10,
            || blackbox_local_sensitivity(&data, &query, &domain, 50, 3),
        );
    }
    // The reuse path alone keeps scaling linearly far past the point
    // where the blackbox path becomes unusable.
    for size in [10_000usize, 100_000] {
        let data = workload(size);
        let domain = EmpiricalSampler::new(data.clone());
        bench(&format!("ground_truth/reuse_only/{size}"), 10, || {
            exact_local_sensitivity(&ctx, &data, &query, &domain, 50, 3)
        });
    }
}
