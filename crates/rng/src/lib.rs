//! Deterministic pseudo-random generation for the Poptrie workspace.
//!
//! The paper's evaluation generates traffic with Marsaglia's xorshift
//! (reference \[22\]): "each random number is generated just before the
//! lookup routine using the xorshift, which allocates only four 32-bit
//! variables". This crate holds those generators ([`Xorshift32`],
//! [`Xorshift128`]) plus a thin `rand`-flavoured convenience layer
//! ([`StdRng`], [`prelude`]) and a seeded property runner ([`check`]) so
//! the dataset synthesizer and the test suites need no external crates —
//! the whole workspace builds and tests with `cargo --offline`.
//!
//! The convenience API deliberately mirrors the subset of `rand` the
//! workspace used (`seed_from_u64`, `gen`, `gen_range`, `gen_bool`,
//! `choose`, `shuffle`) so call sites read the same; the distributions are
//! *not* bit-compatible with the `rand` crate, only deterministic per
//! seed across runs and platforms.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod xorshift;

pub use check::check;
pub use xorshift::{Xorshift128, Xorshift32};

/// The subset of the `rand` prelude the workspace uses.
pub mod prelude {
    pub use crate::{IteratorRandom, SliceRandom, StdRng};
}

/// A seedable deterministic generator built on [`Xorshift128`] — the
/// workspace stand-in for `rand::rngs::StdRng`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StdRng {
    core: Xorshift128,
}

impl StdRng {
    /// Seed deterministically from a `u64` (same call shape as
    /// `rand::SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Self {
        // Fold the two halves through the xorshift128 seeder so distinct
        // 64-bit seeds give distinct states.
        let mut core = Xorshift128::new((seed as u32) ^ 0xA511_E9B3);
        let hi = (seed >> 32) as u32;
        core = Xorshift128::new(core.next_u32() ^ hi);
        StdRng { core }
    }

    /// Next 32 random bits.
    #[inline(always)]
    pub fn next_u32(&mut self) -> u32 {
        self.core.next_u32()
    }

    /// Next 64 random bits (two 32-bit draws).
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.core.next_u32() as u64;
        (hi << 32) | self.core.next_u32() as u64
    }

    /// A uniform value of type `T` over its full domain (`f64` in
    /// `[0, 1)`), mirroring `rand::Rng::gen`.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive integer
    /// ranges), mirroring `rand::Rng::gen_range`. Panics on an empty
    /// range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (`0.0 ..= 1.0`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.gen::<f64>() < p
    }

    /// A uniform index in `0..n`. `n` must be non-zero.
    #[inline]
    fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Widening multiply avoids modulo bias without a rejection loop;
        // determinism per seed is what the workspace needs.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }
}

/// Types [`StdRng::gen`] can produce uniformly.
pub trait Standard: Sized {
    /// Draw one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty => $draw:expr),* $(,)?) => {$(
        impl Standard for $t {
            #[inline]
            fn sample(rng: &mut StdRng) -> Self {
                #[allow(clippy::redundant_closure_call)]
                ($draw)(rng)
            }
        }
    )*};
}

impl_standard_uint! {
    u8   => |r: &mut StdRng| r.next_u32() as u8,
    u16  => |r: &mut StdRng| r.next_u32() as u16,
    u32  => |r: &mut StdRng| r.next_u32(),
    u64  => |r: &mut StdRng| r.next_u64(),
    usize => |r: &mut StdRng| r.next_u64() as usize,
    u128 => |r: &mut StdRng| ((r.next_u64() as u128) << 64) | r.next_u64() as u128,
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u128;
                let draw = (((rng.next_u64() as u128)
                    .wrapping_mul(span))
                    >> 64) as $t;
                // For spans wider than 64 bits (u128 only) fall back to
                // modulo; the workspace never samples such spans.
                let draw = if span > u64::MAX as u128 {
                    ((((rng.next_u64() as u128) << 64) | rng.next_u64() as u128) % span) as $t
                } else {
                    draw
                };
                self.start + draw
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return Standard::sample(rng);
                }
                if end == <$t>::MAX {
                    return (start - 1..end).sample(rng) + 1;
                }
                (start..end + 1).sample(rng)
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize, u128);

macro_rules! impl_sample_range_int {
    ($($t:ty as $u:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                let draw = (0..span).sample(rng);
                self.start.wrapping_add(draw as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    let v: $u = Standard::sample(rng);
                    return v as $t;
                }
                if end == <$t>::MAX {
                    return (start - 1..end).sample(rng) + 1;
                }
                (start..end + 1).sample(rng)
            }
        }
    )*};
}

impl_sample_range_int!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

impl Standard for i8 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u32() as i8
    }
}
impl Standard for i16 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u32() as i16
    }
}
impl Standard for i32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u32() as i32
    }
}
impl Standard for i64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() as i64
    }
}

/// Random selection from slices, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type.
    type Item;

    /// A uniformly random element, or `None` when empty.
    fn choose(&self, rng: &mut StdRng) -> Option<&Self::Item>;

    /// Fisher–Yates shuffle in place.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    #[inline]
    fn choose(&self, rng: &mut StdRng) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.index(self.len())])
        }
    }

    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.index(i + 1));
        }
    }
}

/// Random selection from iterators (reservoir sampling), mirroring
/// `rand::seq::IteratorRandom`.
pub trait IteratorRandom: Iterator + Sized {
    /// A uniformly random element of the iterator, or `None` when empty.
    fn choose(mut self, rng: &mut StdRng) -> Option<Self::Item> {
        let mut picked = self.next()?;
        let mut seen = 1usize;
        for item in self {
            seen += 1;
            if rng.index(seen) == 0 {
                picked = item;
            }
        }
        Some(picked)
    }
}

impl<I: Iterator> IteratorRandom for I {}

#[cfg(test)]
mod tests;
