//! The benchmark's own seeded generator (splitmix64), so a schedule depends
//! on `--seed` and nothing else — not on a vendored crate's stream.

/// Splitmix64: one `u64` of state, full period, good enough for workload
/// generation.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponentially distributed gap with the given rate (events per unit).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(s) sampler over `0..n` by inverse transform on the cumulative
/// weights `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative table for `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut c = SplitMix::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_and_exp_are_in_range() {
        let mut rng = SplitMix::new(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            let gap = rng.exp(4.0);
            assert!(gap.is_finite() && gap >= 0.0);
            sum += gap;
        }
        // mean gap of a rate-4 process is 1/4
        assert!((sum / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(256, 1.0);
        let mut rng = SplitMix::new(3);
        let mut counts = [0u32; 256];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
        assert!(counts.iter().sum::<u32>() == 20_000);
    }
}
