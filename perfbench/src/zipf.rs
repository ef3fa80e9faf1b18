//! Deterministic request-seed streams.

/// SplitMix64: a small, fast generator whose whole state is one `u64`,
/// so a stream is fixed by the workload seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// `∝ 1/(r+1)^s`. Sampling inverts the cumulative table by binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, rng: SplitMix64::new(seed) }
    }

    /// The next rank.
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        let mut z = Zipf::new(2000, 1.0, seed);
        (0..5000).map(|_| z.next_rank()).collect()
    }

    #[test]
    fn zipf_is_deterministic_for_a_seed() {
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn zipf_follows_rank_frequencies() {
        let d = draws(11);
        assert!(d.iter().all(|&r| r < 2000));
        let count = |r| d.iter().filter(|&&x| x == r).count() as f64;
        // P(rank 0) = 1/H_2000 ≈ 0.122 and P(rank 1) is half of it.
        let p0 = count(0) / d.len() as f64;
        assert!((0.10..0.145).contains(&p0), "p0 = {p0}");
        assert!(count(0) > count(1) && count(1) > count(9));
    }
}
