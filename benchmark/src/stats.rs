//! Order statistics, the seeded generator and the checksum.

/// SplitMix64: the bench's own inputs (positions, shuffles) come from here,
/// so they depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i + 1));
        }
    }
}

/// The `q`-quantile (nearest rank on the sorted sample). Panics on an
/// empty sample: every caller has measured at least one operation.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn min(sample: &[f64]) -> f64 {
    sample.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(sample: &[f64]) -> f64 {
    sample.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// FNV-1a over the bit patterns, folded to 48 bits so the value survives a
/// round trip through a JSON number.
pub fn checksum(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (h ^ (h >> 48)) & 0xFFFF_FFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn rng_and_checksum_repeat() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(4).next_u64(), Rng::new(3).next_u64());
        assert_eq!(checksum([1.0, 2.0]), checksum([1.0, 2.0]));
        assert_ne!(checksum([1.0, 2.0]), checksum([2.0, 1.0]));
        assert!(checksum([1.5]) < 1 << 48);
    }
}
