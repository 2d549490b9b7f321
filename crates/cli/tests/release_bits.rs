//! Pinned release bits of the local `--query count|sum|mean` path.
//!
//! The arguments go through `Args::parse`, the way the binary reads them,
//! so a change to how the aggregate kind is declared needs no edit here.
//! The constants were recorded under fixed arguments; a change that moves
//! them changes what an analyst is released, not only how it is computed.

use upa_cli::{run_values, Args};

/// 3,000 values with repeats, so sampled neighbours differ.
fn values() -> Vec<f64> {
    (0..3_000u32)
        .map(|i| f64::from((i * 37) % 101) * 0.5)
        .collect()
}

/// `(released, enforced, sensitivity[0])` as bit patterns.
fn release_bits(query: &str) -> [u64; 3] {
    let argv = format!(
        "--input unused.csv --column x --query {query} --epsilon 0.5 \
         --sample-size 64 --seed 9 --threads 4"
    );
    let args = Args::parse(argv.split_whitespace().map(str::to_string)).unwrap();
    let r = run_values(values(), &args).unwrap();
    [
        r.released.to_bits(),
        r.enforced.to_bits(),
        r.sensitivity[0].to_bits(),
    ]
}

#[test]
fn count_sum_mean_release_bits_are_pinned() {
    let got = [
        release_bits("count"),
        release_bits("sum"),
        release_bits("mean"),
    ];
    let want: [[u64; 3]; 3] = [
        [
            0x40a7_758a_1920_87c7,
            0x40a7_7000_0000_0000,
            0x4012_9c5b_d2de_ac00,
        ],
        [
            0x40f2_5518_487f_e034,
            0x40f2_5020_0000_0000,
            0x4060_b277_8275_6000,
        ],
        [
            0x4039_045e_9b2e_51e8,
            0x4039_00da_740d_a741,
            0x3f97_a074_543d_6800,
        ],
    ];
    assert_eq!(got, want, "count, sum, mean: {got:#018x?}");
}
