//! A seeded property runner for the workspace's randomized tests.
//!
//! [`check`] draws `cases` inputs from a generator closure and runs a
//! property on each. Every case gets its own [`StdRng`], seeded from the
//! property's name and the case index, so a run is the same on every
//! host and every invocation: rerunning a failed test replays the
//! failing case. There is no shrinking; the failure message names the
//! case index and its seed instead.
//!
//! ```
//! use poptrie_rng::check;
//!
//! check(
//!     "addition_commutes",
//!     64,
//!     |rng| (rng.gen::<u32>(), rng.gen::<u32>()),
//!     |(a, b)| assert_eq!(a.wrapping_add(b), b.wrapping_add(a)),
//! );
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::StdRng;

/// Run `prop` on `cases` inputs drawn by `gen`. The seed of case `i` is
/// derived from `name` (normally the test's name) and `i`, so each
/// property draws its own fixed sequence of inputs.
///
/// Panics when the generator or the property panics on any case, with a
/// message naming the property, the case index, its seed and the
/// original panic message.
pub fn check<T>(
    name: &str,
    cases: u32,
    mut gen: impl FnMut(&mut StdRng) -> T,
    mut prop: impl FnMut(T),
) {
    let base = fnv1a(name.as_bytes());
    for case in 0..cases {
        let seed = base.wrapping_add(case as u64);
        let case_run = || prop(gen(&mut StdRng::seed_from_u64(seed)));
        if let Err(cause) = catch_unwind(AssertUnwindSafe(case_run)) {
            let msg = cause
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            panic!("property `{name}` failed on case {case} of {cases} (seed {seed:#018x}): {msg}");
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}
