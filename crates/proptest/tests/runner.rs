//! The runner's contract: the same property sees the same cases on every
//! run, `with_cases(n)` runs exactly `n` of them, and a failure names its
//! case, its seed and its inputs.

use proptest::prelude::*;
use std::cell::{Cell, RefCell};

type Case = (u64, Vec<i32>, f64, (u8, i64));

thread_local! {
    static SEEN: RefCell<Vec<Case>> = const { RefCell::new(Vec::new()) };
    static CALLS: Cell<u32> = const { Cell::new(0) };
    static FAILING_CALLS: Cell<u32> = const { Cell::new(0) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    fn record(
        n in 0u64..=u64::MAX,
        v in prop::collection::vec(-5i32..5, 0..6),
        x in -1.0f64..1.0,
        pair in (1u8..=3, -2i64..0),
    ) {
        prop_assert!((-1.0..1.0).contains(&x));
        prop_assert!(v.len() < 6 && v.iter().all(|e| (-5..5).contains(e)));
        prop_assert!((1..=3).contains(&pair.0) && (-2..0).contains(&pair.1), "{pair:?}");
        SEEN.with(|s| s.borrow_mut().push((n, v, x, pair)));
    }
}

fn recorded_run() -> Vec<Case> {
    record();
    SEEN.with(RefCell::take)
}

#[test]
fn the_same_property_sees_the_same_cases_on_every_run() {
    let first = recorded_run();
    assert_eq!(first.len(), 40);
    assert_eq!(first, recorded_run());
    assert!(first.windows(2).all(|w| w[0] != w[1]), "cases are distinct");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(7))]

    fn count_calls(_x in 0u8..2) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

#[test]
fn with_cases_runs_exactly_that_many_cases() {
    count_calls();
    assert_eq!(CALLS.with(Cell::get), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fails on its fourth case, with inputs the seed cannot change.
    #[test]
    #[should_panic(
        expected = "case 3 (seed 0xa0e4f6c2eb9a743f) with (x, v) = (41, [7, 7]): x is 41 on call 4"
    )]
    fn a_failure_names_its_case_seed_and_inputs(
        x in 41u8..42,
        v in prop::collection::vec(7u8..=7, 2..3),
    ) {
        let call = FAILING_CALLS.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        prop_assert_eq!(v.len(), 2);
        prop_assert!(call < 4, "x is {x} on call {call}");
    }

    /// A panicking body is reported like a failed assertion.
    #[test]
    #[should_panic(expected = "case 0 (seed 0xcf5174e2a59fb362) with (x) = (3,): boom at 3")]
    fn a_panicking_body_names_its_case_too(x in 3u8..4) {
        if x == 3 {
            panic!("boom at {x}");
        }
    }
}
