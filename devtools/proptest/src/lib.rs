//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no crates.io access, so the
//! real `proptest` cannot be fetched even as a dev-dependency — any registry
//! entry in any workspace manifest breaks offline lockfile resolution. This
//! crate re-implements exactly the slice of the proptest API that the
//! workspace's `tests/proptests.rs` files use, on top of the deterministic
//! [`pstrace_rng::Rng64`] generator:
//!
//! - the [`proptest!`] macro with `#![proptest_config(...)]`,
//! - integer range / range-inclusive strategies, `any::<T>()`, tuple
//!   strategies, and [`collection::vec`],
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//!   [`prop_assume!`].
//!
//! Differences from real proptest, by design:
//!
//! - **No shrinking.** On failure the generated inputs are printed verbatim;
//!   re-running is fully deterministic (fixed base seed, per-case forks), so
//!   a failing case reproduces exactly without a regression file.
//! - **Deterministic by default.** Case `k` of a test always sees the same
//!   inputs. Set `PSTRACE_PROPTEST_SEED` to explore a different stream, and
//!   `PROPTEST_CASES` to override the per-test case count.

#![forbid(unsafe_code)]

use pstrace_rng::Rng64;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Base seed for the whole test binary when `PSTRACE_PROPTEST_SEED` is unset.
const DEFAULT_SEED: u64 = 0x5053_5452_4143_4531; // "PSTRACE1"

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped, not failed.
    Reject,
    /// An assertion failed with the given message.
    Fail(String),
}

/// Result type the body of each property closure produces.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-test configuration; only the knobs this workspace uses.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A source of random values of one type.
///
/// Unlike real proptest there is no value tree / shrinking; a strategy is
/// just a deterministic function from RNG state to a value.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;
    /// Draws one value.
    fn generate(&self, rng: &mut Rng64) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                rng.gen_range_u64(self.start as u64, self.end as u64 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng64) -> $t {
                rng.gen_range_u64(*self.start() as u64, *self.end() as u64) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

/// Strategy returned by [`any`]; generates the full domain of `T`.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// A strategy over the entire domain of `T` (like proptest's `any::<T>()`).
#[must_use]
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut Rng64) -> bool {
        rng.gen_bool()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng64) -> f64 {
        rng.gen_f64()
    }
}

macro_rules! any_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng64) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
any_uint!(u8, u16, u32, u64, usize);

macro_rules! any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng64) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
any_int!(i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut Rng64) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Rng64, Strategy};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed length or a length range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec<S::Value>` with a length drawn from the range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector strategy: each element drawn from `element`, length drawn
    /// uniformly from `size` (a `usize` or a `usize` range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng64) -> Vec<S::Value> {
            let len = rng.gen_range_u64(self.size.lo as u64, self.size.hi as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner internals used by the [`proptest!`] expansion.
pub mod runner {
    use super::{ProptestConfig, TestCaseError, TestCaseResult, DEFAULT_SEED};
    use pstrace_rng::Rng64;

    /// Base seed for this test binary (env-overridable).
    fn base_seed() -> u64 {
        match std::env::var("PSTRACE_PROPTEST_SEED") {
            Ok(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("PSTRACE_PROPTEST_SEED must be a u64, got {s:?}")),
            Err(_) => DEFAULT_SEED,
        }
    }

    fn case_count(config: &ProptestConfig) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_CASES must be a u32, got {s:?}")),
            Err(_) => config.cases,
        }
    }

    /// Runs one property until `config.cases` cases are accepted.
    ///
    /// The closure receives a per-case RNG (a pure function of the base
    /// seed, the test name, and the attempt index) and returns the formatted
    /// inputs alongside the case result. Panics from the property body are
    /// reported with the inputs and re-raised.
    pub fn run<F>(config: ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut Rng64) -> (String, TestCaseResult),
    {
        let cases = case_count(&config);
        let name_tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let root = Rng64::seed_from_u64(base_seed()).fork(name_tag);
        let mut accepted = 0u32;
        let mut attempt = 0u64;
        let max_attempts = u64::from(cases) * 16 + 64;
        while accepted < cases {
            attempt += 1;
            assert!(
                attempt <= max_attempts,
                "[{name}] gave up: {accepted}/{cases} cases accepted after \
                 {max_attempts} attempts (prop_assume! rejects too much)"
            );
            let mut rng = root.fork(attempt);
            let (inputs, outcome) = case(&mut rng);
            match outcome {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "[{name}] property failed at case {n} (attempt {attempt}):\n  \
                         {msg}\n  inputs: {inputs}\n  \
                         (deterministic: rerun reproduces; set PSTRACE_PROPTEST_SEED \
                         to explore other streams)",
                        n = accepted + 1,
                    );
                }
            }
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Defines property tests (the core `proptest!` macro).
///
/// Supports the form used throughout this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     /// Doc comment.
///     #[test]
///     fn my_property(x in 0usize..10, flips in collection::vec(any::<bool>(), 4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
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
                let __config: $crate::ProptestConfig = $config;
                $crate::runner::run(__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), __rng);)+
                    let __inputs = {
                        let mut __s = String::new();
                        $(
                            if !__s.is_empty() { __s.push_str(", "); }
                            __s.push_str(concat!(stringify!($arg), " = "));
                            __s.push_str(&format!("{:?}", $arg));
                        )+
                        __s
                    };
                    let __body = std::panic::AssertUnwindSafe(
                        || -> $crate::TestCaseResult { $body Ok(()) },
                    );
                    match std::panic::catch_unwind(__body) {
                        Ok(__outcome) => (__inputs, __outcome),
                        Err(__payload) => {
                            eprintln!(
                                "[{}] property panicked; inputs: {}",
                                stringify!($name),
                                __inputs
                            );
                            std::panic::resume_unwind(__payload)
                        }
                    }
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// the runner) so inputs get reported.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {} ({})\n  left:  {:?}\n  right: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)*),
            __l,
            __r
        );
    }};
}

/// Asserts two values differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {} ({})\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)*),
            __l
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = pstrace_rng::Rng64::seed_from_u64(1);
        for _ in 0..200 {
            let v = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let w = Strategy::generate(&(1u8..=3), &mut rng);
            assert!((1..=3).contains(&w));
        }
    }

    #[test]
    fn vec_strategy_respects_length_spec() {
        let mut rng = pstrace_rng::Rng64::seed_from_u64(2);
        for _ in 0..100 {
            let fixed = Strategy::generate(&collection::vec(any::<bool>(), 5), &mut rng);
            assert_eq!(fixed.len(), 5);
            let ranged = Strategy::generate(&collection::vec(0u32..4, 2..7), &mut rng);
            assert!((2..7).contains(&ranged.len()));
            for x in ranged {
                assert!(x < 4);
            }
        }
    }

    #[test]
    fn tuple_strategy_draws_componentwise() {
        let mut rng = pstrace_rng::Rng64::seed_from_u64(3);
        let (a, b, c) = Strategy::generate(&(any::<u8>(), 1usize..4, any::<bool>()), &mut rng);
        let _ = (a, c);
        assert!((1..4).contains(&b));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro wires strategies, assertions, and assumptions together.
        #[test]
        fn macro_end_to_end(x in 0u64..50, flips in collection::vec(any::<bool>(), 1..5)) {
            prop_assume!(x != 13);
            prop_assert!(x < 50);
            prop_assert_eq!(flips.len(), flips.iter().filter(|_| true).count());
            prop_assert_ne!(flips.len(), 0);
        }
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        use std::sync::Mutex;
        static SEEN: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        for round in 0..2 {
            let mut this_round = Vec::new();
            crate::runner::run(ProptestConfig::with_cases(8), "determinism_probe", |rng| {
                this_round.push(rng.next_u64());
                (String::new(), Ok(()))
            });
            let mut seen = SEEN.lock().unwrap();
            if round == 0 {
                *seen = this_round.clone();
            } else {
                assert_eq!(*seen, this_round);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inputs:")]
    fn failures_report_inputs() {
        crate::runner::run(ProptestConfig::with_cases(4), "always_fails", |rng| {
            let x = rng.next_u64();
            (
                format!("x = {x}"),
                Err(TestCaseError::Fail("forced".into())),
            )
        });
    }
}
