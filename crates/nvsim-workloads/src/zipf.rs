//! Zipfian key sampling (YCSB's request distribution).

use nvsim_types::DetRng;
use std::sync::Arc;

/// A Zipfian sampler over `0..n` with skew `theta`, using the
/// inverse-CDF table method (exact, O(log n) per draw).
///
/// The table is immutable and shared: a clone costs a reference count,
/// not a copy of the table.
///
/// # Example
///
/// ```
/// use nvsim_workloads::Zipfian;
/// use nvsim_types::DetRng;
///
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = DetRng::seed_from(1);
/// let k = z.sample(&mut rng);
/// assert!(k < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    /// Cumulative probabilities; `cdf[i]` is P(rank <= i).
    cdf: Arc<[f64]>,
}

impl Zipfian {
    /// Builds a sampler over `0..n` with skew `theta` (YCSB default 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(theta >= 0.0, "negative skew");
        let mut weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        Zipfian {
            cdf: weights.into(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the key space is a single key.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one key rank (0 = most popular).
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = DetRng::seed_from(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = DetRng::seed_from(3);
        let n = 100_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) < 10).count();
        // With theta=0.99 over 1000 keys, the top-10 keys absorb a large
        // fraction of traffic (roughly 40%+).
        assert!(
            top10 as f64 / n as f64 > 0.3,
            "top-10 share {}",
            top10 as f64 / n as f64
        );
    }

    #[test]
    fn zero_skew_is_uniform() {
        let z = Zipfian::new(10, 0.0);
        let mut rng = DetRng::seed_from(9);
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let share = c as f64 / n as f64;
            assert!((share - 0.1).abs() < 0.02, "share {share}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipfian::new(50, 0.9);
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "empty key space")]
    fn zero_keys_panics() {
        Zipfian::new(0, 0.99);
    }
}
