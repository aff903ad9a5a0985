//! Deterministic pseudo-random number generation.
//!
//! All stochastic behaviour in the workspace (packet arrivals, workload key
//! selection, destination-hopping in the flow-scaling experiment) draws from
//! this xoshiro256** generator, seeded per experiment. Two runs with the same
//! seed produce bit-identical traces on every platform, which is what makes
//! the EXPERIMENTS.md numbers regenerable.
//!
//! The implementation is the public-domain xoshiro256** 1.0 by Blackman and
//! Vigna, with SplitMix64 seed expansion as its authors recommend.

/// A seedable xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// One step of the SplitMix64 generator: output the finalizer of the
/// current state, then advance it by the golden-ratio increment.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    let z = crate::hash::mix(*state);
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    z
}

impl Rng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. `bound == 0` returns 0.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reachable when bound doesn't divide 2^64.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson inter-arrival times in open-loop traffic generators.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        // Guard against ln(0): gen_f64 is in [0,1), so 1-u is in (0,1].
        let u = self.gen_f64();
        -mean * (1.0 - u).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element index of a non-empty slice length.
    #[inline]
    pub fn pick_index(&mut self, len: usize) -> usize {
        self.gen_range(len as u64) as usize
    }

    /// Derive an independent child generator (for per-flow streams).
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
        assert_eq!(r.gen_range(0), 0);
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(4);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[r.gen_range(10) as usize] += 1;
        }
        for &b in &buckets {
            // Expected 10_000 per bucket; allow 5% deviation.
            assert!((b as i64 - 10_000).abs() < 500, "bucket count {b}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_exp_has_requested_mean() {
        let mut r = Rng::seed_from_u64(6);
        let n = 200_000;
        let mean = 41.8;
        let sum: f64 = (0..n).map(|_| r.gen_exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.02,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::seed_from_u64(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
