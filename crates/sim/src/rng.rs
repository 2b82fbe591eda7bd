//! Seeded randomness and workload distributions.

use safehome_types::TimeDelta;

/// A seeded random source for simulations.
///
/// Implements xoshiro256++ seeded through SplitMix64 — self-contained so
/// the workspace builds without crates.io access — and adds the two
/// distributions the paper's workloads need: normally distributed
/// durations (Table 3 marks command counts and durations "ND", sampled
/// via Box–Muller) and Zipf-distributed device popularity (§7.6,
/// parameter α). The Zipf sampler is implemented directly from the
/// weight definition `w(k) ∝ k^(-α)` so that α = 0 degenerates to the
/// uniform distribution.
///
/// The generator state is `Clone` so a caller can snapshot the stream
/// position (the service runner's eviction parks a home's RNG in its
/// world snapshot and restores it when the home comes back — the
/// restored stream must continue exactly where the evicted one stopped).
#[derive(Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a source from a 64-bit seed. Equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the standard xoshiro seeding procedure.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Derives an independent child source; used to give each trial its
    /// own stream while keeping the parent reproducible.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Lemire's multiply-shift bounded draw with rejection, exact and
        // branch-light for the small ranges the workloads use.
        let range = span + 1;
        let mut m = (self.next_u64() as u128).wrapping_mul(range as u128);
        let mut low = m as u64;
        if low < range {
            let threshold = range.wrapping_neg() % range;
            while low < threshold {
                m = (self.next_u64() as u128).wrapping_mul(range as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform choice of an index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from empty set");
        self.int_in(0, n as u64 - 1) as usize
    }

    /// A standard-normal draw (Box–Muller, one branch discarded).
    fn standard_normal(&mut self) -> f64 {
        // u must be in (0, 1] to keep ln finite.
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Samples a duration from a normal distribution with the given mean,
    /// standard deviation `mean × rel_std`, truncated below at `min`.
    ///
    /// Table 3 specifies normally distributed command durations; the paper
    /// does not state the variance, so the workloads default to a relative
    /// standard deviation of 0.25 (documented in EXPERIMENTS.md).
    pub fn normal_duration(&mut self, mean: TimeDelta, rel_std: f64, min: TimeDelta) -> TimeDelta {
        let mu = mean.as_millis() as f64;
        let sigma = (mu * rel_std).max(f64::MIN_POSITIVE);
        let sample = mu + sigma * self.standard_normal();
        let ms = sample.max(min.as_millis() as f64).round() as u64;
        TimeDelta::from_millis(ms)
    }

    /// Samples a positive count from a normal distribution with the given
    /// mean (e.g. commands-per-routine, Table 3's C), truncated below at 1.
    pub fn normal_count(&mut self, mean: f64, rel_std: f64) -> usize {
        let sigma = (mean * rel_std).max(f64::MIN_POSITIVE);
        let sample = mean + sigma * self.standard_normal();
        sample.round().max(1.0) as usize
    }

    /// Samples an index in `[0, n)` from a Zipf distribution with exponent
    /// `alpha`: index `k` (0-based) has weight `(k+1)^(-alpha)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha < 0`.
    pub fn zipf_index(&mut self, n: usize, alpha: f64) -> usize {
        assert!(n > 0, "zipf over empty domain");
        assert!(alpha >= 0.0, "negative zipf exponent");
        if alpha == 0.0 {
            return self.index(n);
        }
        // n is small in every workload (≤ 64 devices); a linear CDF walk is
        // exact and fast enough.
        let total: f64 = (1..=n).map(|k| (k as f64).powf(-alpha)).sum();
        let mut target = self.unit() * total;
        for k in 1..=n {
            let w = (k as f64).powf(-alpha);
            if target < w {
                return k - 1;
            }
            target -= w;
        }
        n - 1
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.int_in(0, i as u64) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.int_in(0, 1_000_000), b.int_in(0, 1_000_000));
        }
    }

    #[test]
    fn forked_streams_differ_from_parent_stream() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut child1 = parent.fork();
        let mut child2 = parent.fork();
        let s1: Vec<u64> = (0..16).map(|_| child1.int_in(0, u64::MAX - 1)).collect();
        let s2: Vec<u64> = (0..16).map(|_| child2.int_in(0, u64::MAX - 1)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn int_in_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.int_in(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(rng.int_in(5, 5), 5);
    }

    #[test]
    fn unit_is_half_open() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_duration_respects_minimum() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let d = rng.normal_duration(
                TimeDelta::from_millis(100),
                2.0, // huge variance to force clamping
                TimeDelta::from_millis(10),
            );
            assert!(d >= TimeDelta::from_millis(10));
        }
    }

    #[test]
    fn normal_count_is_at_least_one() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!(rng.normal_count(1.2, 1.0) >= 1);
        }
    }

    #[test]
    fn normal_duration_centers_on_mean() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| {
                rng.normal_duration(TimeDelta::from_secs(10), 0.25, TimeDelta::ZERO)
                    .as_millis()
            })
            .sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 10_000.0).abs() < 100.0,
            "mean {mean} far from 10000"
        );
    }

    #[test]
    fn zipf_zero_alpha_is_uniform() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 10;
        let mut counts = vec![0u32; n];
        for _ in 0..50_000 {
            counts[rng.zipf_index(n, 0.0)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            (*max as f64) / (*min as f64) < 1.15,
            "uniform draw too skewed: {counts:?}"
        );
    }

    #[test]
    fn zipf_high_alpha_prefers_low_indices() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 25;
        let mut counts = vec![0u32; n];
        for _ in 0..50_000 {
            counts[rng.zipf_index(n, 1.5)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[5]);
        assert!(counts[0] as f64 > 0.3 * 50_000.0);
    }

    #[test]
    fn zipf_small_alpha_is_mildly_skewed() {
        // α = 0.05 is the paper's default; it should be close to uniform.
        let mut rng = SimRng::seed_from_u64(17);
        let n = 25;
        let mut counts = vec![0u32; n];
        for _ in 0..100_000 {
            counts[rng.zipf_index(n, 0.05)] += 1;
        }
        let first = counts[0] as f64;
        let last = counts[n - 1] as f64;
        assert!(first > last, "α>0 must prefer index 0");
        assert!(first / last < 1.4, "α=0.05 should be mild: {counts:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(21);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }
}
