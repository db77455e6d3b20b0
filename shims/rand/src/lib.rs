//! Minimal offline stand-in for the `rand` crate: a seeded
//! xoshiro256++ generator behind the `Rng`/`SeedableRng` trait names and
//! the `gen_range`/`gen_bool`/`gen` methods this workspace uses.
//!
//! Determinism matters more than statistical quality here — the TPC-H
//! generator must produce identical tables for identical seeds across
//! runs and platforms.

/// Construct a generator from a seed (subset of rand's `SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core generator interface (subset of rand's `Rng`).
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from a range (`a..b` or `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.sample_f64() < p
    }

    /// Uniform value of a supported type (subset of rand's `gen`).
    fn gen<T: SampleUniform>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }

    /// Uniform f64 in `[0, 1)`.
    fn sample_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types samplable by [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample from the half-open range `[lo, hi)`.
    fn sample_in(rng: &mut (impl Rng + ?Sized), lo: Self, hi: Self) -> Self;
    /// Widening successor, for inclusive ranges (`hi + 1`; saturates).
    fn successor(self) -> Self;
    /// Value from raw bits (for `gen`).
    fn from_bits(bits: u64) -> Self;
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Sample the range.
    fn sample(self, rng: &mut (impl Rng + ?Sized)) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut (impl Rng + ?Sized)) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_in(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut (impl Rng + ?Sized)) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on empty range");
        T::sample_in(rng, lo, hi.successor())
    }
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in(rng: &mut (impl Rng + ?Sized), lo: Self, hi: Self) -> Self {
                // Width as u128 handles the full i64/u64 ranges without
                // overflow; modulo bias is negligible at these widths for
                // a data generator.
                let span = (hi as i128 - lo as i128) as u128;
                let r = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span;
                (lo as i128 + r as i128) as $t
            }
            fn successor(self) -> Self {
                self.saturating_add(1)
            }
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_in(rng: &mut (impl Rng + ?Sized), lo: Self, hi: Self) -> Self {
        lo + rng.sample_f64() * (hi - lo)
    }
    fn successor(self) -> Self {
        self
    }
    fn from_bits(bits: u64) -> Self {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleUniform for f32 {
    fn sample_in(rng: &mut (impl Rng + ?Sized), lo: Self, hi: Self) -> Self {
        lo + rng.sample_f64() as f32 * (hi - lo)
    }
    fn successor(self) -> Self {
        self
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits_shim(bits) as f32
    }
}

impl SampleUniform for bool {
    fn sample_in(rng: &mut (impl Rng + ?Sized), lo: Self, hi: Self) -> Self {
        if lo == hi {
            lo
        } else {
            rng.next_u64() & 1 == 1
        }
    }
    fn successor(self) -> Self {
        true
    }
    fn from_bits(bits: u64) -> Self {
        bits & 1 == 1
    }
}

trait F64Shim {
    fn from_bits_shim(bits: u64) -> f64;
}
impl F64Shim for f64 {
    fn from_bits_shim(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// The standard generator: xoshiro256++ seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding routine.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// A generator seeded from the system clock + a counter (subset of rand's
/// `thread_rng`, used only where reproducibility is not required).
// The clock is the seed: callers ask for an unreproducible stream.
#[allow(clippy::disallowed_methods)]
pub fn thread_rng() -> rngs::StdRng {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5EED);
    SeedableRng::seed_from_u64(nanos)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(0..25i64);
            assert!((0..25).contains(&v));
            let w = r.gen_range(1..=5);
            assert!((1..=5).contains(&w));
            let u = r.gen_range(0..7usize);
            assert!(u < 7);
            let f = r.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_i64_range_does_not_overflow() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let _ = r.gen_range(i64::MIN..i64::MAX);
        }
    }

    #[test]
    fn gen_bool_probabilities() {
        let mut r = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
