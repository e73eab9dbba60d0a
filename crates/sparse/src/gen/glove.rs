//! GloVe-like sparsified embedding corpus (the "Sparsified GloVe" row of
//! Table III).
//!
//! The paper sparsifies the GloVe word-embedding corpus with online
//! dictionary learning (Mairal et al.). The corpus itself is not
//! redistributable at the required scale, so this generator emulates its
//! statistical structure: embeddings drawn from a Gaussian mixture
//! (clusters of semantically similar words), mapped to a non-negative
//! sparse code by magnitude-based coefficient selection, then
//! L2-normalised. What matters to the accelerator — row-density
//! variation, value distribution in `[0, 1]`, cluster-induced similarity
//! structure — is preserved; see DESIGN.md for the substitution note.

use super::distributions::Normal;
use super::rng::Rng64;
use crate::csr::Csr;

/// Configuration for the GloVe-like sparse corpus.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::gen::GloveConfig;
///
/// let csr = GloveConfig {
///     num_rows: 500,
///     num_cols: 512,
///     avg_nnz_per_row: 18,
///     num_clusters: 16,
///     seed: 9,
/// }
/// .generate();
/// assert_eq!(csr.num_rows(), 500);
/// assert_eq!(csr.row_stats().empty_rows, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GloveConfig {
    /// Number of embeddings (2·10⁶ in Table III).
    pub num_rows: usize,
    /// Sparse code dimensionality.
    pub num_cols: usize,
    /// Target average non-zeros per row (Table III implies ~12–23).
    pub avg_nnz_per_row: usize,
    /// Number of Gaussian-mixture clusters (word "topics").
    pub num_clusters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GloveConfig {
    /// A small default mirroring Table III shape at reduced scale.
    pub fn table3_default(num_rows: usize, seed: u64) -> Self {
        Self {
            num_rows,
            num_cols: 512,
            avg_nnz_per_row: 18,
            num_clusters: 64,
            seed,
        }
    }

    /// Generates the corpus as a row-normalised non-negative CSR matrix.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `avg_nnz_per_row > num_cols`.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the generator emits monotone row_ptr and in-range columns by \
                  construction"
    )]
    pub fn generate(&self) -> Csr {
        assert!(self.num_rows > 0 && self.num_cols > 0 && self.num_clusters > 0);
        assert!(
            (1..=self.num_cols).contains(&self.avg_nnz_per_row),
            "avg_nnz_per_row must be in 1..=num_cols"
        );
        let mut rng = Rng64::new(self.seed);
        let mut normal = Normal::new(0.0, 1.0);

        // Cluster centroids in the sparse-code space: each cluster
        // prefers a subset of dictionary atoms with cluster-specific
        // weights.
        let atoms_per_cluster = (self.avg_nnz_per_row * 3).min(self.num_cols);
        let clusters: Vec<(Vec<u32>, Vec<f32>)> = (0..self.num_clusters)
            .map(|_| {
                let atoms = rng.sample_distinct(atoms_per_cluster, self.num_cols);
                let weights: Vec<f32> = (0..atoms_per_cluster)
                    .map(|_| normal.sample(&mut rng).abs() as f32 + 0.05)
                    .collect();
                (atoms, weights)
            })
            .collect();

        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        row_ptr.push(0u64);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut scratch: Vec<(f32, u32)> = Vec::with_capacity(atoms_per_cluster);

        for _ in 0..self.num_rows {
            let (atoms, weights) = &clusters[rng.range_usize(0, self.num_clusters)];
            // Perturb the centroid: per-word coefficient noise, then keep
            // the largest-magnitude coefficients (the dictionary-learning
            // sparsification step selects dominant atoms the same way).
            scratch.clear();
            for (a, w) in atoms.iter().zip(weights) {
                let coeff = (w * (1.0 + 0.5 * normal.sample(&mut rng) as f32)).abs();
                scratch.push((coeff, *a));
            }
            // Row density varies around the target like real sparsified
            // corpora (Table III GloVe nnz spans ~2x).
            let jitter = 0.7 + 0.6 * rng.next_f64();
            let keep =
                ((self.avg_nnz_per_row as f64 * jitter).round() as usize).clamp(1, scratch.len());
            scratch.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
            scratch.truncate(keep);
            scratch.sort_unstable_by_key(|&(_, c)| c);

            let norm = scratch
                .iter()
                .map(|(v, _)| (*v as f64) * (*v as f64))
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            for &(v, c) in &scratch {
                col_idx.push(c);
                values.push((v as f64 / norm) as f32);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        Csr::from_parts(self.num_rows, self.num_cols, row_ptr, col_idx, values)
            .expect("generator produces valid CSR")
    }
}

/// Convenience wrapper: generates a GloVe-like corpus with Table III
/// defaults at the given scale.
pub fn glove_like(num_rows: usize, seed: u64) -> Csr {
    GloveConfig::table3_default(num_rows, seed).generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_expected_shape() {
        let csr = glove_like(1000, 1);
        assert_eq!(csr.num_rows(), 1000);
        assert_eq!(csr.num_cols(), 512);
        let stats = csr.row_stats();
        assert_eq!(stats.empty_rows, 0);
        assert!(
            (10.0..30.0).contains(&stats.mean_nnz),
            "mean nnz {}",
            stats.mean_nnz
        );
    }

    #[test]
    fn rows_are_normalised_and_non_negative() {
        let csr = glove_like(200, 2);
        for r in 0..200 {
            let norm: f64 = csr.row(r).map(|(_, v)| (v as f64).powi(2)).sum();
            assert!((norm - 1.0).abs() < 1e-5, "row {r} norm {norm}");
        }
        assert!(csr.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cluster_structure_induces_similar_rows() {
        // Rows from the same cluster share atoms; across a corpus with
        // few clusters, some pairs must overlap heavily.
        let csr = GloveConfig {
            num_rows: 300,
            num_cols: 256,
            avg_nnz_per_row: 16,
            num_clusters: 4,
            seed: 3,
        }
        .generate();
        let mut best = 0usize;
        let cols = |r: usize| csr.row(r).map(|(c, _)| c).collect::<Vec<_>>();
        let first = cols(0);
        for r in 1..300 {
            let other = cols(r);
            let overlap = first.iter().filter(|c| other.contains(c)).count();
            best = best.max(overlap);
        }
        assert!(
            best >= first.len() / 2,
            "max overlap {best} of {}",
            first.len()
        );
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(glove_like(50, 7), glove_like(50, 7));
        assert_ne!(glove_like(50, 7), glove_like(50, 8));
    }

    #[test]
    fn row_density_varies() {
        let csr = glove_like(500, 4);
        let stats = csr.row_stats();
        assert!(stats.max_nnz > stats.min_nnz, "{stats:?}");
    }
}
