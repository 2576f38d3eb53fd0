//! Order statistics over timing samples and the digest of simulated
//! outputs.

/// Linear-interpolated quantile of `values` (type 7: `q = 0` is the
/// minimum, `q = 1` the maximum). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
/// Floats enter by bit pattern, so a digest match means bitwise-equal
/// outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_tells_float_bit_patterns_apart() {
        let mut a = Digest::new();
        a.f64(0.0);
        let mut b = Digest::new();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
