//! Synthetic embedding-collection generators (the Uniform and Γ rows of
//! Table III).

use super::distributions::Gamma;
use super::rng::Rng64;
use crate::csr::Csr;
use crate::dense::DenseVector;

/// How the number of non-zeros per row is distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NnzDistribution {
    /// Uniform in `[avg/2, 3·avg/2]` (mean = `avg`).
    Uniform,
    /// Left-skewed `Γ(shape, scale)`, rescaled so the mean equals the
    /// configured average. Table III uses `Γ(k = 3, θ = 4/3)`.
    Gamma {
        /// Shape parameter `k`.
        shape: f64,
        /// Scale parameter `θ`.
        scale: f64,
    },
}

impl NnzDistribution {
    /// The paper's left-skewed distribution, `Γ(3, 4/3)`.
    pub fn table3_gamma() -> Self {
        NnzDistribution::Gamma {
            shape: 3.0,
            scale: 4.0 / 3.0,
        }
    }
}

/// Configuration for a synthetic sparse-embedding collection.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::gen::{NnzDistribution, SyntheticConfig};
///
/// let csr = SyntheticConfig {
///     num_rows: 100,
///     num_cols: 512,
///     avg_nnz_per_row: 20,
///     distribution: NnzDistribution::Uniform,
///     seed: 42,
/// }
/// .generate();
/// assert_eq!(csr.num_rows(), 100);
/// let stats = csr.row_stats();
/// assert!(stats.mean_nnz > 10.0 && stats.mean_nnz < 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of embeddings (`N`, millions in the paper).
    pub num_rows: usize,
    /// Embedding dimensionality (`M`, 512 or 1024 in Table III).
    pub num_cols: usize,
    /// Target average non-zeros per row (20 or 40 in Table III).
    pub avg_nnz_per_row: usize,
    /// Row-density distribution.
    pub distribution: NnzDistribution,
    /// RNG seed; the same seed always generates the same matrix.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Generates the collection as a row-normalised CSR matrix with
    /// non-negative values (the unsigned datapath's domain).
    ///
    /// Rows always have at least 1 and at most `num_cols` entries.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the average is zero, or if
    /// `avg_nnz_per_row > num_cols`.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the generator emits monotone row_ptr and in-range columns by \
                  construction"
    )]
    pub fn generate(&self) -> Csr {
        assert!(self.num_rows > 0, "num_rows must be positive");
        assert!(self.num_cols > 0, "num_cols must be positive");
        assert!(
            (1..=self.num_cols).contains(&self.avg_nnz_per_row),
            "avg_nnz_per_row must be in 1..=num_cols"
        );
        let mut rng = Rng64::new(self.seed);
        let avg = self.avg_nnz_per_row;

        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        row_ptr.push(0u64);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.num_rows * avg);
        let mut values: Vec<f32> = Vec::with_capacity(self.num_rows * avg);

        for _ in 0..self.num_rows {
            let nnz = self.sample_row_nnz(&mut rng);
            let cols = rng.sample_distinct(nnz, self.num_cols);
            // Non-negative values, then L2-normalise the row so dot
            // products are cosine similarities in [0, 1].
            let mut row_vals: Vec<f32> = (0..nnz).map(|_| rng.next_f32().max(1e-6)).collect();
            let norm = row_vals
                .iter()
                .map(|v| (*v as f64) * (*v as f64))
                .sum::<f64>()
                .sqrt();
            for v in &mut row_vals {
                *v = (*v as f64 / norm) as f32;
            }
            col_idx.extend_from_slice(&cols);
            values.extend_from_slice(&row_vals);
            row_ptr.push(col_idx.len() as u64);
        }
        Csr::from_parts(self.num_rows, self.num_cols, row_ptr, col_idx, values)
            .expect("generator produces valid CSR")
    }

    fn sample_row_nnz(&self, rng: &mut Rng64) -> usize {
        let avg = self.avg_nnz_per_row;
        let raw = match self.distribution {
            NnzDistribution::Uniform => {
                let lo = (avg / 2).max(1);
                let hi = avg + avg / 2;
                rng.range_usize(lo, hi + 1) as f64
            }
            NnzDistribution::Gamma { shape, scale } => {
                let g = Gamma::new(shape, scale);
                // Rescale so the mean hits avg regardless of (k, θ).
                g.sample(rng) * avg as f64 / g.mean()
            }
        };
        (raw.round() as usize).clamp(1, self.num_cols)
    }
}

/// Generates a random non-negative L2-normalised dense query vector of
/// length `m` — the `x` of the paper's experiments ("we perform each
/// test 30 times, with different random vertices x").
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn query_vector(m: usize, seed: u64) -> DenseVector {
    assert!(m > 0, "query vector must be non-empty");
    let mut rng = Rng64::new(seed);
    let mut v = DenseVector::from_values((0..m).map(|_| rng.next_f32().max(1e-6)).collect());
    v.normalize();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix_has_requested_shape_and_density() {
        let csr = SyntheticConfig {
            num_rows: 2000,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: NnzDistribution::Uniform,
            seed: 1,
        }
        .generate();
        assert_eq!(csr.num_rows(), 2000);
        assert_eq!(csr.num_cols(), 512);
        let stats = csr.row_stats();
        assert_eq!(stats.empty_rows, 0);
        assert!(stats.min_nnz >= 10 && stats.max_nnz <= 30, "{stats:?}");
        assert!((stats.mean_nnz - 20.0).abs() < 1.0, "{stats:?}");
    }

    #[test]
    fn gamma_matrix_mean_density_matches_target() {
        let csr = SyntheticConfig {
            num_rows: 5000,
            num_cols: 1024,
            avg_nnz_per_row: 40,
            distribution: NnzDistribution::table3_gamma(),
            seed: 2,
        }
        .generate();
        let stats = csr.row_stats();
        assert_eq!(stats.empty_rows, 0);
        assert!((stats.mean_nnz - 40.0).abs() < 2.0, "{stats:?}");
        // Left-skewed: max well above the mean.
        assert!(stats.max_nnz as f64 > 2.0 * stats.mean_nnz, "{stats:?}");
    }

    #[test]
    fn rows_are_unit_normalised() {
        let csr = SyntheticConfig {
            num_rows: 50,
            num_cols: 128,
            avg_nnz_per_row: 10,
            distribution: NnzDistribution::Uniform,
            seed: 3,
        }
        .generate();
        for r in 0..50 {
            let norm: f64 = csr.row(r).map(|(_, v)| (v as f64).powi(2)).sum();
            assert!((norm - 1.0).abs() < 1e-5, "row {r} norm {norm}");
        }
    }

    #[test]
    fn values_are_positive_and_below_one() {
        let csr = SyntheticConfig {
            num_rows: 100,
            num_cols: 64,
            avg_nnz_per_row: 8,
            distribution: NnzDistribution::Uniform,
            seed: 4,
        }
        .generate();
        assert!(csr.values().iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn same_seed_same_matrix() {
        let cfg = SyntheticConfig {
            num_rows: 200,
            num_cols: 256,
            avg_nnz_per_row: 12,
            distribution: NnzDistribution::table3_gamma(),
            seed: 5,
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let mut other = cfg;
        other.seed = 6;
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn query_vector_is_unit_norm() {
        let q = query_vector(512, 7);
        assert_eq!(q.len(), 512);
        assert!((q.norm() - 1.0).abs() < 1e-5);
        assert!(q.as_slice().iter().all(|&v| v > 0.0));
    }

    #[test]
    #[should_panic(expected = "avg_nnz_per_row")]
    fn avg_above_cols_is_rejected() {
        let _ = SyntheticConfig {
            num_rows: 1,
            num_cols: 4,
            avg_nnz_per_row: 10,
            distribution: NnzDistribution::Uniform,
            seed: 0,
        }
        .generate();
    }
}
