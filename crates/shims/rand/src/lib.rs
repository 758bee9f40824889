//! Offline shim for the parts of `rand` 0.9 this workspace uses.
//!
//! The build container has no access to crates.io, so the workspace
//! vendors a deterministic, dependency-free implementation of exactly the
//! surface the simulation needs: `SmallRng` (xoshiro256++ seeded via
//! SplitMix64), `SeedableRng::seed_from_u64`, `Rng::{random,
//! random_range, random_bool}`, and `seq::SliceRandom::{shuffle, choose}`.
//!
//! **Intentionally absent:** `rng()`, `thread_rng()`, `random()`,
//! `from_os_rng`, `from_entropy`, `OsRng`, `ThreadRng` — every generator
//! in this repository must be explicitly seeded. This shim *is* rule D3
//! (no ambient randomness in sim code): it is the only `rand` in
//! `Cargo.lock`, so a call to an unseeded source does not compile.
//! `ldft-lint`'s selfcheck `the_rand_shim_has_no_unseeded_source` fails if
//! one is added here or a real `rand` enters the lock file.

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding — only the deterministic entry point is provided.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (SplitMix64 expansion, as the
    /// real crate documents for its small generators).
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// A uniformly distributed value of `T` (full range for integers,
    /// `[0, 1)` for floats).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive).
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl<T: RngCore + Sized> Rng for T {}

/// Types that can be sampled uniformly from their whole domain.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for i128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::sample(rng) as i128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a uniform value can be drawn from.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let width = (self.end as u128).wrapping_sub(self.start as u128);
                let draw = u128::sample(rng) % width;
                self.start.wrapping_add(draw as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let width = (end as u128).wrapping_sub(start as u128).wrapping_add(1);
                if width == 0 {
                    // Full-domain u128 request; fall back to raw bits.
                    return u128::sample(rng) as $t;
                }
                let draw = u128::sample(rng) % width;
                start.wrapping_add(draw as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let unit = <$t as Standard>::sample(rng);
                self.start + unit * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let unit = <$t as Standard>::sample(rng);
                start + unit * (end - start)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// The named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator — xoshiro256++.
    ///
    /// Not the bit-identical stream of the real crate's `SmallRng` (which
    /// documents its algorithm as unstable across versions anyway), but
    /// the same family, and fully reproducible from a seed.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, per Blackman & Vigna's reference code.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and choosing on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.random_range(10..20);
            assert!((10..20).contains(&v));
            let f = r.random_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&f));
            let g: f64 = r.random_range(0.5..=1.5);
            assert!((0.5..=1.5).contains(&g));
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn negative_int_ranges() {
        let mut r = SmallRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v: i64 = r.random_range(-5..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut r).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }
}
