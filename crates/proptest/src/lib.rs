//! The workspace's property-test runner: the slice of the `proptest` API
//! its tests use. `proptest!` takes a `proptest_config` and functions
//! whose arguments read `name in strategy`; strategies are integer
//! `a..b`/`a..=b`, `f64` `a..b`, tuples and [`collection::vec`]. A body
//! fails its case by returning `Err(String)` — [`prop_assert!`],
//! [`prop_assert_eq!`] or `?` — or by panicking.
//!
//! Values are drawn uniformly and failures are not shrunk. Each case's
//! seed is a pure function of the property's path and the case index, so
//! a property sees the same cases on every run and every machine, and a
//! failure names the case, its seed and its inputs.

use std::any::Any;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `use proptest::prelude::*;` brings in everything a property needs.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vectors with a length drawn from `len` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The strategy [`vec`] returns.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn draw(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.draw(rng);
            (0..n).map(|_| self.element.draw(rng)).collect()
        }
    }
}

/// How many cases a property runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases.
    pub cases: u32,
}

impl ProptestConfig {
    /// A property that runs `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// SplitMix64: the per-case generator strategies draw from.
#[derive(Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform over `lo..=hi` by a widening multiply; the span is at most
    /// 2^64, so the product fits and the result never exceeds `hi`.
    fn between(&mut self, lo: i128, hi: i128) -> i128 {
        let span = (hi - lo + 1) as u128;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as i128
    }
}

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A recipe for drawing one test input.
pub trait Strategy {
    /// The drawn value; `Debug` so a failure can print it.
    type Value: Debug;

    /// Draws one value.
    fn draw(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                rng.between(self.start as i128, self.end as i128 - 1) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn draw(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range {self:?}");
                rng.between(*self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn draw(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let x = self.start + (self.end - self.start) * unit;
        // Rounding can land on the excluded end.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

macro_rules! tuple_strategies {
    () => {};
    ($s:ident $v:ident $(, $rest_s:ident $rest_v:ident)*) => {
        impl<$s: Strategy, $($rest_s: Strategy),*> Strategy for ($s, $($rest_s,)*) {
            type Value = ($s::Value, $($rest_s::Value,)*);

            fn draw(&self, rng: &mut TestRng) -> Self::Value {
                let ($v, $($rest_v,)*) = self;
                ($v.draw(rng), $($rest_v.draw(rng),)*)
            }
        }
        tuple_strategies!($($rest_s $rest_v),*);
    };
}

tuple_strategies!(A a, B b, C c, D d, E e, F f, G g, H h, I i, J j, K k, L l);

/// Runs `test` on `config.cases` draws of `strategy`; what
/// [`proptest!`] expands to. `name` seeds the cases and `inputs` names
/// the drawn tuple in a failure.
///
/// # Panics
///
/// On the first case whose `test` returns `Err` or panics, with the
/// case index, its seed, the inputs' `Debug` form and the failure.
pub fn run<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    inputs: &str,
    strategy: S,
    mut test: impl FnMut(S::Value) -> Result<(), String>,
) {
    let base = name.bytes().fold(0, |h, b| mix(h ^ u64::from(b)));
    for case in 0..config.cases {
        let seed = mix(base.wrapping_add(u64::from(case)));
        let value = strategy.draw(&mut TestRng { state: seed });
        let failure = match catch_unwind(AssertUnwindSafe(|| test(value))) {
            Ok(Ok(())) => continue,
            Ok(Err(message)) => message,
            Err(payload) => panic_message(payload.as_ref()),
        };
        // The draw is a pure function of the seed: redraw to print it.
        let value = strategy.draw(&mut TestRng { state: seed });
        panic!("{name}: case {case} (seed {seed:#018x}) with {inputs} = {value:?}: {failure}");
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panicked")
        .to_string()
}

/// Declares property tests; see the crate docs for the accepted form.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    &$config,
                    stringify!(($($arg),+)),
                    ($($strategy,)+),
                    |($($arg,)+)| -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the case unless `cond` holds, with an optional `format!`
/// message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the case unless `left == right`, printing both sides and an
/// optional `format!` message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "{} == {}", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: {}\n  left: {left:?}\n right: {right:?}",
                ::std::format!($($fmt)+)
            ),
        }
    };
}
