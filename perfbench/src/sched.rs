//! Seeded input generation: a small deterministic PRNG and the Poisson
//! arrival schedule of the open-loop generator.

/// SplitMix64: tiny, seedable, and fully specified here, so the same seed
/// gives the same inputs regardless of any vendored RNG's behaviour.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two consumers
    /// of one workload seed never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Due offsets in seconds of `n` Poisson arrivals at `rate` per second:
/// exponential gaps, the first arrival one gap after the phase start.
pub fn poisson(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    assert!(rate > 0.0, "a schedule needs a positive rate");
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(&mut Rng::new(42, 1), 250.0, 2000);
        let b = poisson(&mut Rng::new(42, 1), 250.0, 2000);
        assert_eq!(a, b);
        assert_ne!(a, poisson(&mut Rng::new(43, 1), 250.0, 2000));
        assert_ne!(a, poisson(&mut Rng::new(42, 2), 250.0, 2000));
    }

    #[test]
    fn schedule_is_increasing_with_the_offered_rate() {
        let s = poisson(&mut Rng::new(7, 0), 500.0, 20_000);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        let rate = s.len() as f64 / s[s.len() - 1];
        assert!((rate / 500.0 - 1.0).abs() < 0.03, "{rate}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(7) < 7));
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
