//! Minimal offline stand-in for `proptest`.
//!
//! Provides the `proptest! {}` macro, `prop_assert*` macros,
//! `ProptestConfig::with_cases`, `any::<T>()`, numeric-range and tuple
//! strategies, `collection::vec`, and a tiny `.{m,n}` regex-string
//! strategy — the exact surface this workspace's property tests use.
//!
//! As in real proptest, `PROPTEST_CASES` sets the number of cases of every
//! property that does not set its own.
//!
//! Differences from real proptest, deliberate for an offline shim:
//! no shrinking (a failure reports the raw inputs), and the RNG is seeded
//! from the test's module path so failures reproduce exactly across runs.

use std::fmt;
use std::ops::Range;

/// Runner configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// `PROPTEST_CASES` cases when that environment variable holds a whole
    /// number, as in real proptest; else 64.
    fn default() -> Self {
        // Real proptest defaults to 256; the shim trims this so the full
        // suite stays fast while still exploring a meaningful sample.
        let cases = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: cases.and_then(|c| c.parse().ok()).unwrap_or(64),
        }
    }
}

/// Failure raised by `prop_assert*` inside a property body.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic generator driving the strategies (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test's identity so every run replays the same cases.
    pub fn for_test(name: &str) -> Self {
        let mut seed: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x100000001b3);
        }
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A value generator (subset of proptest's `Strategy`, without shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map the generated value through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always produces a clone of the wrapped value.
#[allow(non_snake_case)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies — built by [`prop_oneof!`].
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// A uniform union over `options` (must be non-empty).
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "empty prop_oneof");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len());
        self.options[i].sample(rng)
    }
}

#[doc(hidden)]
pub fn __box_strategy<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Uniform choice among strategies producing the same value type (the shim
/// supports the unweighted form only).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::__box_strategy($strat)),+])
    };
}

// --- numeric ranges --------------------------------------------------------

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (self.start as i128 + r as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + rng.next_f64() as f32 * (self.end - self.start)
    }
}

// --- any::<T>() ------------------------------------------------------------

/// Types with a full-domain default strategy.
pub trait Arbitrary {
    /// Draw an unconstrained value, biased toward edge cases.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // Mix raw bits with explicit edge values; proptest biases
                // toward boundaries, and tests lean on that to hit
                // overflow-adjacent paths.
                match rng.next_u64() % 8 {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX,
                    2 => 0 as $t,
                    3 => 1 as $t,
                    _ => rng.next_u64() as $t,
                }
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        match rng.next_u64() % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => -1.0,
            _ => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | (1023u64 << 52)),
        }
    }
}

/// Strategy wrapper returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The default full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// --- tuples ----------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
    (A:0, B:1, C:2, D:3, E:4)
}

// --- regex strings ---------------------------------------------------------

/// `&str` patterns act as string strategies. The shim implements the one
/// pattern family this workspace uses: `.{m,n}` — a string of `m..=n`
/// arbitrary (non-newline) chars — plus bare `.` and literal-only patterns.
impl Strategy for &str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        if let Some((lo, hi)) = parse_dot_repeat(self) {
            let len = lo + rng.below(hi - lo + 1);
            return (0..len).map(|_| sample_char(rng)).collect();
        }
        if *self == "." {
            return sample_char(rng).to_string();
        }
        if !self.contains([
            '\\', '[', ']', '(', ')', '{', '}', '*', '+', '?', '|', '^', '$', '.',
        ]) {
            return (*self).to_string();
        }
        panic!("proptest shim: unsupported regex strategy {self:?}");
    }
}

/// Parse `.{m,n}` into `(m, n)`.
fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Arbitrary char, weighted toward ASCII with some multibyte coverage.
fn sample_char(rng: &mut TestRng) -> char {
    match rng.next_u64() % 10 {
        0..=6 => (b' ' + rng.below(95) as u8) as char,
        7 => ['à', 'ß', 'ñ', 'ü', 'é'][rng.below(5)],
        8 => ['Σ', 'π', '→', '我', 'あ'][rng.below(5)],
        _ => ['𝄞', '🦀', '𐍈'][rng.below(3)],
    }
}

// --- collections -----------------------------------------------------------

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vector of values from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.start + rng.below(self.size.end - self.size.start);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `Option<T>` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy for `Option<S::Value>` — `None` one case in four.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` from `inner` three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// --- macros ----------------------------------------------------------------

/// Declare property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                // Render inputs up front: the body takes the bindings by
                // value, so they may be gone by the time a failure surfaces.
                let __inputs = format!("{:#?}", ($(&$arg,)+));
                let __result: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(e) = __result {
                    panic!(
                        "property failed at case {}/{}: {}\ninputs: {}",
                        __case + 1,
                        __config.cases,
                        e,
                        __inputs
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a property body (fails the case, not the
/// process, so the runner can report the inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?} == {:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?} == {:?}`: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a != *__b, "assertion failed: `{:?} != {:?}`", __a, __b);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_in_bounds(v in 3i64..17, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&v));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(
            rows in crate::collection::vec((0i64..5, any::<bool>()), 2..9),
        ) {
            prop_assert!((2..9).contains(&rows.len()));
            for (k, _) in &rows {
                prop_assert!((0..5).contains(k));
            }
        }

        #[test]
        fn regex_strings(s in ".{0,12}") {
            prop_assert!(s.chars().count() <= 12);
        }

        #[test]
        fn combinators(
            mapped in (0i64..10).prop_map(|v| v * 2),
            chosen in prop_oneof![Just(1u8), Just(2), 5u8..8],
            maybe in crate::option::of(3i64..5),
        ) {
            prop_assert!(mapped % 2 == 0 && (0..20).contains(&mapped));
            prop_assert!([1, 2, 5, 6, 7].contains(&chosen));
            prop_assert!(maybe.is_none() || (3..5).contains(&maybe.unwrap()));
        }
    }

    #[test]
    fn prop_assert_returns_err() {
        let check = |v: i64| -> Result<(), TestCaseError> {
            prop_assert!(v > 100, "v was {}", v);
            Ok(())
        };
        assert!(check(5).is_err());
        assert!(check(500).is_ok());
    }
}
