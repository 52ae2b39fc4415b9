//! A minimal, dependency-free stand-in for the parts of the `proptest` crate
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the real `proptest`
//! cannot be vendored. This crate keeps the same import paths and test syntax
//! working: the `proptest!` macro, `prop_assert*`/`prop_assume!`, `Strategy`
//! with `prop_map`, integer-range / tuple / `any` strategies
//! and `collection::vec`.
//!
//! Differences from the real crate: no shrinking of failing inputs and no
//! persisted failure seeds — each test runs a fixed number of deterministic
//! cases seeded from the test's name, so failures are reproducible run to run.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Deterministic case generation and run configuration.

    /// The run configuration (`ProptestConfig` in the real crate).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Config {
        /// Number of accepted cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` accepted cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Marker returned by `prop_assume!` when a case is rejected.
    #[derive(Debug, Clone, Copy)]
    pub struct Rejected;

    /// The deterministic generator handed to strategies (SplitMix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name (FNV-1a), so every property
        /// has its own reproducible stream.
        #[must_use]
        pub fn from_name(name: &str) -> Self {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in name.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: hash ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// The next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A draw in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and its combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through a function.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(
                        self.start < self.end,
                        "strategy range {}..{} is empty", self.start, self.end
                    );
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
    }

    /// Full-domain strategy selected by `any::<T>()`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// A strategy over the full domain of `T`.
    #[must_use]
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_any_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_uint!(u8, u16, u32, u64, usize);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// A strategy for vectors whose length lies in `size` and whose elements
    /// come from `element`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "vec strategy size range is empty");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual glob import, mirroring `proptest::prelude::*`.

    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Runs a block of property tests (see the crate docs for the differences
/// from the real `proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (@impl ($config:expr)
        $($(#[$meta:meta])* fn $name:ident ($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let prop_config: $crate::test_runner::Config = $config;
                let mut prop_rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let mut prop_accepted: u32 = 0;
                let mut prop_rejected: u32 = 0;
                while prop_accepted < prop_config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);)+
                    let prop_outcome: ::std::result::Result<(), $crate::test_runner::Rejected> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match prop_outcome {
                        ::std::result::Result::Ok(()) => prop_accepted += 1,
                        ::std::result::Result::Err(_) => {
                            prop_rejected += 1;
                            assert!(
                                prop_rejected < prop_config.cases.saturating_mul(64).max(1024),
                                "too many prop_assume! rejections in {}",
                                stringify!($name)
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Rejects the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_vecs_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("bounds");
        let strat = (0u8..3, 10usize..20);
        for _ in 0..200 {
            let (a, b) = strat.generate(&mut rng);
            assert!(a < 3);
            assert!((10..20).contains(&b));
        }
        let vecs = crate::collection::vec(0u32..5, 1..4);
        for _ in 0..200 {
            let v = vecs.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(
            x in 0u64..100,
            v in crate::collection::vec(0u8..4, 0..5),
            y in any::<bool>(),
        ) {
            prop_assume!(x != 13);
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 13);
            let _ = y;
        }
    }
}
