//! The benchmark's own seeded generator (SplitMix64): every input the
//! programs see — graph seeds, roots, query order, update edges — is drawn
//! from one of these, keyed on `--seed`, so the same seed gives the same
//! inputs on any host.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose of one seed, so adding
    /// a draw to one stream never shifts another.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = mix(h ^ b as u64);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 output function, also used as the edge-weight hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::stream(7, "roots").next_u64(),
            Rng::stream(7, "queries").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "roots").next_u64(),
            Rng::stream(8, "roots").next_u64()
        );
        assert!((0..100).all({
            let mut r = Rng::stream(1, "x");
            move |_| r.below(10) < 10
        }));
    }
}
