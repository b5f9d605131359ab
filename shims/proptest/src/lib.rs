//! Minimal `proptest`-shaped property-testing harness.
//!
//! Implements the subset the workspace uses: the `proptest!` macro over
//! functions whose arguments are drawn from strategies, range / tuple /
//! vec strategies, `prop_map`, weighted `prop_oneof!`, `prop::bool::ANY`,
//! `ProptestConfig::with_cases`, and the `prop_assert*` macros.
//!
//! Differences from upstream worth knowing:
//!
//! * **No shrinking.** A failing case panics with its case index; the RNG
//!   is seeded from the test's module path + name, so re-runs replay the
//!   identical sequence.
//! * Case count defaults to 64 (upstream: 256). Every perf-sensitive test
//!   in the workspace sets its own count via `proptest_config`.

use std::ops::Range;

/// Deterministic splitmix64 RNG driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds deterministically from a test identifier (module path + name).
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values (upstream's `Strategy`, minus shrinking).
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (upstream's `prop_map`).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
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

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// Always-`value` strategy (upstream's `Just`).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod strategy {
    use super::{Strategy, TestRng};

    /// Boxes a strategy for heterogeneous arm lists (`prop_oneof!`).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Weighted union of same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total: u64,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total;
            for (w, strat) in &self.arms {
                if pick < *w as u64 {
                    return strat.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vector strategy: random length in `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(
            size.start < size.end,
            "empty size range for collection::vec"
        );
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prop {
    pub mod bool {
        use crate::{Strategy, TestRng};

        /// Uniform boolean strategy (`prop::bool::ANY`).
        pub struct Any;

        /// Upstream-compatible constant.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

pub mod prelude {
    pub use crate::strategy;
    pub use crate::{prop, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cases: u32 = ($cfg).cases;
                let mut __rng = $crate::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut __rng); )+
                    let __outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(message) = __outcome {
                        panic!(
                            "proptest '{}' failed at case {}/{}:\n{}",
                            stringify!($name), __case + 1, __cases, message
                        );
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "prop_assert failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "prop_assert failed: {}: {}", stringify!($cond), format!($($fmt)+)
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "prop_assert_eq failed: {:?} != {:?}", l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "prop_assert_eq failed: {:?} != {:?}: {}", l, r, format!($($fmt)+)
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!("prop_assert_ne failed: both {:?}", l));
        }
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ( $($weight:literal => $strat:expr),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( (($weight) as u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
    ( $($strat:expr),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::boxed($strat)) ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Pick {
        Small(u64),
        Big(u64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 0usize..3, f in 1.0f64..2.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y < 3);
            prop_assert!((1.0..2.0).contains(&f));
        }

        #[test]
        fn vec_sizes_in_bounds(v in crate::collection::vec(0u64..100, 2..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn tuples_and_map(
            p in (0u64..10, 10u64..20).prop_map(|(a, b)| Pick::Small(a + b)),
            q in prop_oneof![
                3 => (0u64..5).prop_map(Pick::Small),
                1 => (100u64..105).prop_map(Pick::Big),
            ],
        ) {
            match p {
                Pick::Small(v) => prop_assert!((10..30).contains(&v)),
                Pick::Big(_) => prop_assert!(false, "map produced wrong arm"),
            }
            match q {
                Pick::Small(v) => prop_assert!(v < 5),
                Pick::Big(v) => prop_assert!((100..105).contains(&v)),
            }
        }

        #[test]
        fn bools_take_both_values(v in crate::collection::vec(prop::bool::ANY, 16..17)) {
            // 16 coin flips virtually never agree unanimously across 32 cases;
            // accept either but ensure the strategy compiles and runs.
            prop_assert!(v.len() == 16);
        }
    }

    #[test]
    fn deterministic_rng_replays() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        // No #[test] meta: invoked manually by the should_panic test below.
        fn always_fails(_x in 0u64..2) {
            prop_assert!(false, "intentional");
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        always_fails();
    }
}
