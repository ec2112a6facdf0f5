//! Deterministic pseudo-random number generation.
//!
//! The workspace's experiments are Monte-Carlo simulations (random walks,
//! stub matching, rewiring). To make every experiment reproducible from a
//! single `u64` seed — independent of platform, `std` internals, or crate
//! versions — we implement the generator ourselves:
//!
//! * [`SplitMix64`]: the seeding generator recommended by the Xoshiro
//!   authors; also useful as a tiny standalone generator for hashing-style
//!   mixing.
//! * [`Xoshiro256pp`]: xoshiro256++ 1.0 (Blackman & Vigna), a fast
//!   general-purpose generator with a 256-bit state and excellent
//!   statistical quality for non-cryptographic simulation use.
//!
//! Neither generator is cryptographically secure; none of the algorithms in
//! this workspace require that.

/// SplitMix64 generator (public-domain reference algorithm).
///
/// Used to expand a single `u64` seed into the 256-bit state of
/// [`Xoshiro256pp`], and handy wherever a few well-mixed words are needed.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the workhorse PRNG of the workspace.
///
/// All algorithms take `&mut Xoshiro256pp` explicitly so determinism is
/// visible in every signature; there is no thread-local or global RNG.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a single `u64` seed via SplitMix64, per the
    /// xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // An all-zero state would be a fixed point; SplitMix64 cannot emit
        // four zeros in a row, but guard anyway for defence in depth.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Self { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's nearly-divisionless
    /// method (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be positive");
        let bound = bound as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Geometric draw: the number of failures before the first success of a
    /// Bernoulli(`p`) sequence, i.e. `P(X = k) = (1-p)^k p`. Mean
    /// `(1-p)/p`. Used by forest-fire sampling, where the paper samples the
    /// burned-neighbor count from a geometric distribution with mean
    /// `p_f / (1 - p_f)` (i.e. `p = 1 - p_f`).
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn gen_geometric(&mut self, p: f64) -> usize {
        assert!(p > 0.0 && p <= 1.0, "geometric parameter must be in (0,1]");
        if p >= 1.0 {
            return 0;
        }
        // Inversion: floor(ln(U) / ln(1-p)) for U in (0,1).
        let mut u = self.next_f64();
        if u <= 0.0 {
            u = f64::MIN_POSITIVE;
        }
        let k = (u.ln() / (1.0 - p).ln()).floor();
        // Cap at a large sentinel to keep callers' loops finite even for
        // pathological p values.
        if k.is_finite() {
            k as usize
        } else {
            usize::MAX / 2
        }
    }

    /// Splits off an independent generator (seeds a fresh generator from two
    /// draws); used to hand deterministic sub-streams to worker threads.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64() ^ self.next_u64().rotate_left(32);
        Self::seed_from_u64(seed)
    }

    /// Returns the raw 256-bit state, for checkpointing the stream position.
    ///
    /// Round-trips exactly through [`Xoshiro256pp::from_state`]: a restored
    /// generator continues the output sequence at the same point.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a raw state captured by
    /// [`Xoshiro256pp::state`].
    ///
    /// An all-zero state is a fixed point of the transition function and can
    /// never be produced by a live generator, so it is replaced with a fixed
    /// non-zero state rather than accepted.
    pub fn from_state(s: [u64; 4]) -> Self {
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Self { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vectors() {
        // Reference output for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn xoshiro_deterministic_across_instances() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_differs_across_seeds() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds_and_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            let v = rng.gen_range(10);
            counts[v] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous 10% slack.
            assert!(
                (9_000..=11_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        rng.gen_range(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        // p_f = 0.7 per the paper's forest fire setting => p = 0.3,
        // mean = 0.7 / 0.3 ≈ 2.333.
        let p = 0.3;
        let n = 200_000;
        let total: usize = (0..n).map(|_| rng.gen_geometric(p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 7.0 / 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(rng.gen_geometric(1.0), 0);
        }
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..57 {
            rng.next_u64();
        }
        let saved = rng.state();
        let tail: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let mut resumed = Xoshiro256pp::from_state(saved);
        let tail2: Vec<u64> = (0..64).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn from_state_rejects_all_zero() {
        let mut rng = Xoshiro256pp::from_state([0; 4]);
        // Must not be the all-zero fixed point (which would emit only zeros).
        assert!((0..16).any(|_| rng.next_u64() != 0));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut base = Xoshiro256pp::seed_from_u64(21);
        let mut s1 = base.split();
        let mut s2 = base.split();
        let equal = (0..64).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(equal, 0);
    }
}
