//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this repository is offline, so the workspace
//! vendors the subset of proptest it uses: the [`proptest!`] macro over
//! `name in strategy` / `name: Type` parameters, integer/float range
//! strategies, [`collection::vec`], [`option::of`], [`any`], [`Just`],
//! [`prop_oneof!`], and the `prop_assert*` macros.
//!
//! Differences from upstream: cases are generated from a seed derived
//! deterministically from the test name (fully reproducible, no
//! environment overrides), and failing inputs are **not shrunk** — the
//! panic message instead reports the case number so a failure can be
//! replayed by running the same test again.

use rand::SeedableRng;

/// The generator driving every strategy (deterministic xoshiro256**).
pub type TestRng = rand::rngs::StdRng;

/// Runner configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Builds the per-case generator for `test_name`/`case` (FNV-1a over the
/// name, mixed with the case number).
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// A source of random values of one type.
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[inline]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: arbitrary magnitudes, both signs.
        let m = rng.unit_f64() * 2.0 - 1.0;
        let e = (rng.next_u64() % 600) as i32 - 300;
        m * (2.0f64).powi(e)
    }
}

/// Marker returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            #[inline]
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            #[inline]
            fn sample(&self, rng: &mut TestRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($n:ident . $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// String-pattern strategy: a `&str` literal is interpreted as a regex of
/// the restricted form `[class]{min,max}` (one character class with `a-b`
/// ranges and `\n`/`\t`/`\\`/`\-`/`\]` escapes, plus an optional repetition
/// count). This covers the patterns the workspace's tests use; anything
/// else panics with an explanatory message rather than silently
/// mis-generating.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (class, min, max) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern strategy: {self:?}"));
        let len = if min == max {
            min
        } else {
            use rand::RngExt;
            rng.random_range(min..=max)
        };
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[class]{min,max}` into (expanded alphabet, min, max).
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let mut chars = rest.chars().peekable();
    let mut class: Vec<char> = Vec::new();
    loop {
        let c = chars.next()?;
        match c {
            ']' => break,
            '\\' => {
                let e = chars.next()?;
                class.push(match e {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                });
            }
            c => {
                if chars.peek() == Some(&'-') {
                    let mut ahead = chars.clone();
                    ahead.next(); // the '-'
                    match ahead.peek() {
                        Some(&']') | None => class.push(c), // trailing literal '-'
                        Some(&hi) => {
                            chars = ahead;
                            chars.next();
                            for u in c as u32..=hi as u32 {
                                class.extend(char::from_u32(u));
                            }
                        }
                    }
                } else {
                    class.push(c);
                }
            }
        }
    }
    if class.is_empty() {
        return None;
    }
    let rep: String = chars.collect();
    if rep.is_empty() {
        return Some((class, 1, 1));
    }
    let rep = rep.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match rep.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = rep.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((class, min, max))
}

/// Uniform choice between alternatives of one strategy type
/// (the [`prop_oneof!`] backing type).
pub struct OneOf<S>(pub Vec<S>);

impl<S: Strategy> Strategy for OneOf<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Size specifications accepted by [`vec()`]: a fixed length or a
    /// (half-open or inclusive) length range.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            use rand::RngExt;
            rng.random_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            use rand::RngExt;
            rng.random_range(self.clone())
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `Vec` strategy: `len` elements drawn from `element`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with element strategy `S`.
    pub struct BTreeSetStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `BTreeSet` strategy: up to `len` draws from `element` (duplicates
    /// collapse, so the resulting set may be smaller than the drawn size —
    /// matching upstream proptest's size-as-upper-bound behavior).
    pub fn btree_set<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> BTreeSetStrategy<S, L> {
        BTreeSetStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for BTreeSetStrategy<S, L>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> std::collections::BTreeSet<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Option<T>`.
    pub struct OptionStrategy<S>(S);

    /// `Some(value)` roughly half the time, `None` otherwise.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.0.sample(rng))
            } else {
                None
            }
        }
    }
}

/// Error type for `Result`-valued test case bodies (upstream proptest's
/// `TestCaseError`, reduced to the rejection/failure distinction).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's inputs did not meet a precondition.
    Reject(String),
    /// The property failed.
    Fail(String),
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares property tests: each `fn` runs `cases` times over freshly
/// sampled inputs. Parameters are `name in strategy` or `name: Type`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($params:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::case_rng(stringify!($name), __case);
                    $crate::__proptest_bind!(__rng, $($params)*);
                    // The closure lets test bodies `return Ok(())` early
                    // (upstream proptest bodies are `Result`-valued).
                    #[allow(clippy::redundant_closure_call)]
                    let __outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(e) = __outcome {
                        panic!("property test case failed: {e:?}");
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::sample(&($strat), &mut $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

/// Uniform choice among strategy arms of one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($arm),+])
    };
}

/// Property-test assertion (no shrinking: forwards to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property-test equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property-test inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_anys(x in 0u64..100, flag: bool, f in -2.0f64..2.0) {
            prop_assert!(x < 100);
            prop_assert!((-2.0..2.0).contains(&f));
            let _ = flag;
        }

        #[test]
        fn collections_and_tuples(
            pairs in crate::collection::vec((0u32..10, 0u32..10), 1..20),
            opt in crate::option::of(0i64..5),
            lanes in prop_oneof![Just(4usize), Just(8), Just(16)],
        ) {
            prop_assert!(!pairs.is_empty() && pairs.len() < 20);
            for (a, b) in &pairs {
                prop_assert!(*a < 10 && *b < 10);
            }
            if let Some(v) = opt {
                prop_assert!((0..5).contains(&v));
            }
            prop_assert!([4, 8, 16].contains(&lanes));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4).map(case_rng_value).collect();
        let b: Vec<u64> = (0..4).map(case_rng_value).collect();
        assert_eq!(a, b);
        fn case_rng_value(case: u32) -> u64 {
            crate::case_rng("some_test", case).next_u64()
        }
    }
}
