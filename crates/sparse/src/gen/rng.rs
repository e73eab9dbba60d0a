//! In-tree deterministic pseudo-random generator.

/// A xoshiro256++ pseudo-random generator seeded via SplitMix64.
///
/// Small, fast and statistically solid for simulation workloads; kept
/// in-tree so that generated evaluation matrices are bit-identical
/// across platforms and dependency versions (see module docs of
/// [`crate::gen`]).
///
/// # Example
///
/// ```
/// use tkspmv_sparse::gen::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }

    /// Next uniformly distributed 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of randomness.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = (hi - lo) as u64;
        // Lemire-style rejection-free mapping is fine here: the bias for
        // span << 2^64 is negligible for simulation purposes.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }

    /// Samples `k` distinct integers from `[0, n)`, returned sorted.
    ///
    /// Uses Floyd's algorithm: O(k) samples, O(k log k) sort.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, k: usize, n: usize) -> Vec<u32> {
        assert!(k <= n, "cannot sample {k} distinct values from [0, {n})");
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.range_usize(0, j + 1);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick as u32);
        }
        out.sort_unstable();
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Rng64::new(11);
        let mean: f64 = (0..100_000).map(|_| r.next_f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng64::new(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.range_usize(3, 13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit");
    }

    #[test]
    fn sample_distinct_is_distinct_and_sorted() {
        let mut r = Rng64::new(9);
        for _ in 0..100 {
            let s = r.sample_distinct(20, 50);
            assert_eq!(s.len(), 20);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted distinct: {s:?}");
            assert!(s.iter().all(|&v| v < 50));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut r = Rng64::new(13);
        let s = r.sample_distinct(8, 8);
        assert_eq!(s, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(21);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>(), "shuffled order");
    }
}
