//! A minimal property-based testing harness.
//!
//! Part of the zero-dependency substrate: replaces the `proptest` crate
//! for this workspace's 19 property-test files, keeping their source shape
//! (the [`proptest!`](crate::proptest) macro, `x in strategy` bindings, `prop_assert*!`,
//! `prop_assume!`) so tests read the same as upstream proptest.
//!
//! What it keeps from proptest: seeded generation via [`Strategy`] values
//! (ranges, [`any`], [`Just`], tuples, [`collection::vec`],
//! [`prop_oneof!`](crate::prop_oneof)), a per-test iteration budget ([`ProptestConfig`]),
//! assumption-based rejection, and reproducible failures. What it drops:
//! shrinking. Instead, every failure report carries the test's base seed;
//! setting `PROPTEST_LITE_SEED` to that value replays the exact stream,
//! and `PROPTEST_LITE_CASES` scales the budget up for soak runs.

use crate::rng::{Rng, SampleRange};

/// Per-test configuration: how many passing cases a property must
/// accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases that must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Smaller than proptest's 256: these suites run in offline CI on
        // every push; PROPTEST_LITE_CASES scales up for soak testing.
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not pass. Produced by the
/// `prop_assert*!` / `prop_assume!` macros; consumed by [`Runner`].
#[derive(Debug)]
pub enum CaseError {
    /// An assertion failed: the property is violated.
    Fail(String),
    /// A `prop_assume!` precondition did not hold: discard the case and
    /// generate another.
    Reject(String),
}

/// Result type the generated test-case closure returns.
pub type CaseResult = Result<(), CaseError>;

/// Drives one property: seeds the generator, counts passes and
/// rejections, and reports failures with the reproduction seed.
#[derive(Debug)]
pub struct Runner {
    name: &'static str,
    rng: Rng,
    base_seed: u64,
    cases: u32,
    passed: u32,
    rejected: u32,
    started: bool,
}

/// FNV-1a, used to derive a stable per-test seed from its name. A fixed
/// algorithm (not `DefaultHasher`) so recorded failure seeds stay valid
/// across compiler releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Runner {
    /// Create a runner for the named property. The base seed comes from
    /// `PROPTEST_LITE_SEED` when set (replaying a recorded failure),
    /// otherwise from a stable hash of the test name; `PROPTEST_LITE_CASES`
    /// overrides the case budget.
    pub fn new(config: ProptestConfig, name: &'static str) -> Self {
        let base_seed = std::env::var("PROPTEST_LITE_SEED")
            .ok()
            .and_then(|s| {
                let s = s.trim();
                s.strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| s.parse())
                    .ok()
            })
            .unwrap_or_else(|| fnv1a(name.as_bytes()));
        let cases = std::env::var("PROPTEST_LITE_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(config.cases);
        Runner {
            name,
            rng: Rng::seed_from_u64(base_seed),
            base_seed,
            cases,
            passed: 0,
            rejected: 0,
            started: false,
        }
    }

    /// Whether another case should be generated. Call once per loop
    /// iteration; pairs with [`Runner::finish_case`].
    pub fn start_case(&mut self) -> bool {
        if self.started {
            // start_case without finish_case means the body panicked and
            // the panic is unwinding through a caller-written loop; do
            // not mask it. (Normal flow always finishes.)
            self.started = false;
        }
        self.started = true;
        self.passed < self.cases
    }

    /// The generator for this case's strategy draws.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Record the case outcome. Panics with a reproduction seed on
    /// failure, or when the rejection budget (256× the case budget) is
    /// exhausted.
    pub fn finish_case(&mut self, outcome: CaseResult) {
        self.started = false;
        match outcome {
            Ok(()) => self.passed += 1,
            Err(CaseError::Reject(why)) => {
                self.rejected += 1;
                if self.rejected > self.cases.saturating_mul(256) {
                    panic!(
                        "property '{}' rejected too many cases ({}; last: {}); \
                         loosen prop_assume! or widen the strategies",
                        self.name, self.rejected, why
                    );
                }
            }
            Err(CaseError::Fail(why)) => {
                panic!(
                    "property '{}' failed at case {} (after {} rejects):\n{}\n\
                     reproduce with PROPTEST_LITE_SEED={:#x} (base seed of this stream)",
                    self.name, self.passed, self.rejected, why, self.base_seed
                );
            }
        }
    }
}

/// A value generator: each call to [`Strategy::generate`] draws one value
/// from the distribution the strategy describes.
pub trait Strategy {
    /// The generated value type.
    type Output;

    /// Draw one value.
    fn generate(&self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Output = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Output = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Types with a full-domain default strategy, as produced by [`any`].
pub trait Arbitrary {
    /// Draw an unconstrained value (for numerics: uniform over all bit
    /// patterns, so floats include infinities and NaNs).
    fn arbitrary(rng: &mut Rng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.next_bool()
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut Rng) -> f32 {
        f32::from_bits(rng.next_u32())
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut Rng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

/// Strategy drawing unconstrained values of `T`; see [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The full-domain strategy for `T`: `any::<u8>()`, `any::<f32>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Output = T;

    fn generate(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy always yielding a clone of one value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Output = T;

    fn generate(&self, _rng: &mut Rng) -> T {
        self.0.clone()
    }
}

/// Object-safe strategy facade, so [`OneOf`] can mix strategy types that
/// produce the same output.
pub trait DynStrategy<T> {
    /// Draw one value (object-safe form of [`Strategy::generate`]).
    fn generate_dyn(&self, rng: &mut Rng) -> T;
}

impl<S: Strategy> DynStrategy<S::Output> for S {
    fn generate_dyn(&self, rng: &mut Rng) -> S::Output {
        self.generate(rng)
    }
}

/// Box a strategy for [`OneOf`]; used by the
/// [`prop_oneof!`](crate::prop_oneof) expansion.
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn DynStrategy<S::Output>> {
    Box::new(s)
}

/// Strategy picking uniformly among alternatives; see
/// [`prop_oneof!`](crate::prop_oneof).
pub struct OneOf<T> {
    options: Vec<Box<dyn DynStrategy<T>>>,
}

impl<T> OneOf<T> {
    /// A strategy choosing uniformly among `options`.
    ///
    /// # Panics
    /// If `options` is empty.
    pub fn new(options: Vec<Box<dyn DynStrategy<T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Output = T;

    fn generate(&self, rng: &mut Rng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate_dyn(rng)
    }
}

/// String strategy: any pattern-like `&str` draws printable Unicode
/// strings (letters, digits, punctuation, a few multi-byte scripts and an
/// emoji — never control characters), of length 0–63. This deliberately
/// does not interpret the pattern as a regex; the suite only uses
/// `"\\PC*"` ("any printable string"), which this distribution satisfies.
impl Strategy for &str {
    type Output = String;

    fn generate(&self, rng: &mut Rng) -> String {
        const EXTRA: &[char] =
            &[' ', 'é', 'ß', 'λ', 'Ж', '中', '한', '🦀', 'ä', 'ø', '€', '№'];
        const ASCII: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~";
        let len = rng.random_range(0usize..64);
        (0..len)
            .map(|_| {
                if rng.random_range(0u32..8) == 0 {
                    EXTRA[rng.random_range(0..EXTRA.len())]
                } else {
                    ASCII[rng.random_range(0..ASCII.len())] as char
                }
            })
            .collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Output = ($($s::Output,)+);

            fn generate(&self, rng: &mut Rng) -> Self::Output {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`collection::vec`), mirroring proptest's module
/// path so call sites keep reading `proptest::collection::vec(...)`.
pub mod collection {
    use super::{Rng, SampleRange, Strategy};

    /// Length distribution of a generated collection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range {r:?}");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range {r:?}");
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy generating a `Vec` of values drawn from an element
    /// strategy; see [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy: each draw picks a length in `size`, then draws
    /// that many elements.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Output = Vec<S::Output>;

        fn generate(&self, rng: &mut Rng) -> Vec<S::Output> {
            let len = (self.size.lo..self.size.hi).sample(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test file needs: `use
/// babelflow_core::proptest_lite::prelude::*;`.
pub mod prelude {
    pub use super::{
        any, boxed, collection, Any, Arbitrary, CaseError, CaseResult, DynStrategy, Just, OneOf,
        ProptestConfig, Runner, Strategy,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Define property tests. Mirrors proptest's macro shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn prop_name(x in 0u32..100, v in collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
///
/// Each test runs its body against `cases` generated inputs. Failures
/// panic with the base seed; see the module docs for replay.
#[macro_export]
macro_rules! proptest {
    // Munch one test fn, then recurse on the rest.
    (@with_config ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::proptest_lite::ProptestConfig = $cfg;
            let mut __runner = $crate::proptest_lite::Runner::new(
                __config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            while __runner.start_case() {
                $(let $arg = $crate::proptest_lite::Strategy::generate(&($strat), __runner.rng());)+
                let __outcome: $crate::proptest_lite::CaseResult = (|| {
                    $body
                    Ok(())
                })();
                __runner.finish_case(__outcome);
            }
        }
        $crate::proptest! { @with_config ($cfg) $($rest)* }
    };
    (@with_config ($cfg:expr)) => {};
    // Entry with a config header.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @with_config ($cfg) $($rest)* }
    };
    // Entry without a config header: default budget.
    ($($rest:tt)*) => {
        $crate::proptest! {
            @with_config ($crate::proptest_lite::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Assert inside a property body; failure reports the generated case
/// instead of panicking mid-test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::proptest_lite::CaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Assert two expressions are equal (with `Debug` output on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), l, r
        );
    }};
}

/// Assert two expressions are unequal (with `Debug` output on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} ({})\n  both: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), l
        );
    }};
}

/// Discard the current case (it does not count toward the budget) when a
/// generated input misses a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest_lite::CaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::proptest_lite::CaseError::Reject(format!($($fmt)+)));
        }
    };
}

/// Strategy choosing uniformly among the listed strategies (all must
/// produce the same output type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::proptest_lite::OneOf::new(vec![
            $($crate::proptest_lite::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::rng::Rng;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 10u64..20, y in -5i32..=5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn fixed_size_vec_is_exact(v in collection::vec(any::<u64>(), 5)) {
            prop_assert_eq!(v.len(), 5);
        }

        #[test]
        fn assume_discards_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_only_yields_listed_values(
            b in prop_oneof![Just((2usize, 1usize)), Just((4, 3))],
        ) {
            prop_assert!(b == (2, 1) || b == (4, 3));
        }

        #[test]
        fn strings_are_printable(s in "\\PC*") {
            prop_assert!(s.chars().all(|c| !c.is_control()), "control char in {s:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        #[test]
        fn config_header_parses(x in 0u8..=255) {
            let _ = x;
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = collection::vec((0u32..100, any::<bool>()), 0..20);
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "reproduce with PROPTEST_LITE_SEED")]
    fn failure_reports_reproduction_seed() {
        let mut runner = Runner::new(ProptestConfig::with_cases(4), "always_fails");
        assert!(runner.start_case());
        runner.finish_case(Err(CaseError::Fail("boom".into())));
    }

    #[test]
    #[should_panic(expected = "rejected too many cases")]
    fn rejection_budget_is_finite() {
        let mut runner = Runner::new(ProptestConfig::with_cases(1), "always_rejects");
        loop {
            assert!(runner.start_case());
            runner.finish_case(Err(CaseError::Reject("nope".into())));
        }
    }
}
