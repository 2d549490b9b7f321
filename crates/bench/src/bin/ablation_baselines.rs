//! Ablation: noise scales of UPA versus the alternative mechanisms the
//! paper discusses — the manual-range systems it automates away (Airavat
//! / GUPT / PINQ, §IV-B), FLEX's local bound, and FLEX's smooth
//! sensitivity (§II-B). All at the paper's ε = 0.1 on the five
//! FLEX-supported count queries.

use upa_bench::report::{sci, Table};
use upa_repro::suite::{build_queries, EvalData, EvalScale};
use upa_repro::upa_core::{Upa, UpaConfig};
use upa_repro::upa_flex::SmoothMechanism;

fn main() {
    let cfg = upa_bench::ExpConfig::from_env();
    let ctx = dataflow::Context::with_threads(cfg.threads);
    let data = EvalData::generate(
        &ctx,
        EvalScale {
            orders: cfg.orders,
            ml_records: cfg.ml_records,
            partitions: cfg.partitions,
            seed: cfg.seed,
        },
    );
    let queries = build_queries(&data);
    let epsilon = 0.1;
    let smooth_mech = SmoothMechanism::new(epsilon, 1e-6);

    println!("== Ablation: noise scale per mechanism (ε = {epsilon}, lower is better) ==");
    println!("(UPA infers a local range dynamically; FLEX bounds it statically; smooth");
    println!(" sensitivity additionally covers groups; manual-range systems make the");
    println!(" analyst declare a dataset-independent global range — here a conservative");
    println!(" 10× the vanilla output, which a cautious analyst without data access");
    println!(" would have to pick)\n");

    let mut t = Table::new(&[
        "Query",
        "ground truth LS",
        "UPA noise scale",
        "FLEX noise scale",
        "smooth noise scale",
        "manual-range noise scale",
    ]);
    for q in &queries {
        let (Ok(flex), Some(plan)) = (q.flex_sensitivity(&data), q.flex_plan()) else {
            continue;
        };
        let gt = q.ground_truth(&data, 500, cfg.seed ^ 0xAB);
        let mut upa = Upa::new(
            ctx.clone(),
            UpaConfig {
                sample_size: 1_000,
                epsilon,
                add_noise: false,
                ..UpaConfig::default()
            },
        );
        let result = q.run_upa(&mut upa, &data).expect("query runs");
        let upa_scale = result.max_sensitivity() / epsilon;
        let flex_scale = flex / epsilon;
        let smooth_scale = smooth_mech
            .noise_scale(plan, &data.metadata)
            .expect("count query");
        // A cautious analyst's manual global range: [0, 10 × f(x)].
        let manual_scale = 10.0 * q.run_plain(&data)[0] / epsilon;
        t.row(vec![
            q.name().into(),
            sci(Some(gt.local_sensitivity)),
            sci(Some(upa_scale)),
            sci(Some(flex_scale)),
            sci(Some(smooth_scale)),
            sci(Some(manual_scale)),
        ]);
    }
    t.print();
    println!("\n(UPA's noise tracks the ground-truth sensitivity within a small constant");
    println!(" on every query; the static bounds blow up by orders of magnitude exactly");
    println!(" where joins stack (TPCH16/21), smooth sensitivity amplifies that further,");
    println!(" and analyst-declared manual ranges are uniformly the worst — the paper's");
    println!(" motivation for automated dynamic inference)");
}
