//! Seeded input generation: the same `--seed` gives the same inputs, and
//! the program under test only ever receives what is generated here.

/// SplitMix64. One generator per (seed, stream) pair, so adding a program
/// to a workload does not shift the values every other program sees.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    pub fn signed_units(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.signed_unit()).collect()
    }

    /// Uniform multiples of 1e-9 in `[0, 1)`: at most nine significant
    /// digits, so a JSON body of `len` values has a size that does not
    /// depend on the seed.
    pub fn decimals(&mut self, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| self.below(1_000_000_000) as f64 / 1e9)
            .collect()
    }
}

/// Order-sensitive checksum of the exact bit patterns.
pub fn checksum(data: &[f64]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_other_seed_other_values() {
        let a = Rng::new(7, "mm/A").signed_units(64);
        let b = Rng::new(7, "mm/A").signed_units(64);
        let c = Rng::new(8, "mm/A").signed_units(64);
        let d = Rng::new(7, "mm/B").signed_units(64);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(checksum(&a), checksum(&d));
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn decimals_print_short() {
        for x in Rng::new(1, "d").decimals(1000) {
            assert!((0.0..1.0).contains(&x));
            assert!(format!("{x}").len() <= 11, "{x}");
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(5, "b");
        assert!((0..1000).all(|_| r.below(16) < 16));
    }
}
