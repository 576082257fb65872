//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the slice of proptest the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`],
//! * strategies: integer/float ranges, tuples, [`Just`](strategy::Just),
//!   [`any`](crate::arbitrary::any), `collection::vec`, `prop_map`,
//!   weighted unions, and a tiny `[a-z]{m,n}`-style string pattern,
//! * deterministic case generation (seeded per test name, overridable with
//!   `PROPTEST_RNG_SEED`), with the failing inputs printed on panic.
//!
//! Differences from real proptest, on purpose: **no shrinking** (the
//! original inputs are reported instead) and no persistence — failures are
//! reproduced by the deterministic seed rather than `proptest-regressions`
//! files.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything a property test module typically imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Fail the current property test case with a formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert two values are equal within a property test case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*),
                l,
                r
            )));
        }
    }};
}

/// Assert two values differ within a property test case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{}` != `{}` (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Choose among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs `ProptestConfig::cases` deterministic
/// random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // Describe the inputs before the body (which may move them).
                let mut described = ::std::string::String::new();
                $(
                    described.push_str(concat!("  ", stringify!($arg), " = "));
                    described.push_str(&format!("{:?}\n", &$arg));
                )+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs:\n{}",
                        case + 1,
                        cfg.cases,
                        e,
                        described
                    );
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}
