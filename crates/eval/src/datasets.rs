//! The Table III dataset registry: 19 matrices (12 uniform, 6 Γ, 1
//! sparsified-GloVe-like), reproducible at any scale.

use tkspmv_sparse::gen::{glove_like, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

/// The four dataset groups the paper's figures are panelled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetGroup {
    /// Synthetic, `N = 0.5·10⁷` rows.
    Synthetic05e7,
    /// Synthetic, `N = 10⁷` rows.
    Synthetic1e7,
    /// Synthetic, `N = 1.5·10⁷` rows.
    Synthetic15e7,
    /// Sparsified GloVe-like corpus, `N = 0.2·10⁷` rows.
    Glove,
}

impl DatasetGroup {
    /// All groups in the order of Figure 5's panels.
    const ALL: [DatasetGroup; 4] = [
        DatasetGroup::Synthetic05e7,
        DatasetGroup::Synthetic1e7,
        DatasetGroup::Synthetic15e7,
        DatasetGroup::Glove,
    ];

    /// Panel title used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            DatasetGroup::Synthetic05e7 => "N = 0.5*10^7",
            DatasetGroup::Synthetic1e7 => "N = 10^7",
            DatasetGroup::Synthetic15e7 => "N = 1.5*10^7",
            DatasetGroup::Glove => "Sparse GloVe",
        }
    }
}

/// How a dataset's non-zeros are distributed (Table III's
/// "Distribution" column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DatasetKind {
    /// Uniform nnz/row.
    Uniform,
    /// Left-skewed `Γ(3, 4/3)` nnz/row.
    Gamma,
    /// GloVe-like sparsified embeddings.
    Glove,
}

impl DatasetKind {
    /// Table III label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DatasetKind::Uniform => "Uniform",
            DatasetKind::Gamma => "Gamma(3, 4/3)",
            DatasetKind::Glove => "Sparsified GloVe",
        }
    }
}

/// One of the 19 evaluation matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Short unique name, e.g. `"uniform-0.5e7-20nnz-m512"`.
    pub(crate) name: &'static str,
    /// Figure panel this matrix belongs to.
    pub group: DatasetGroup,
    /// Non-zero distribution.
    pub(crate) kind: DatasetKind,
    /// Full-scale rows (Table III).
    pub(crate) full_rows: usize,
    /// Embedding dimensionality `M`.
    pub(crate) num_cols: usize,
    /// Average non-zeros per row.
    avg_nnz: usize,
    /// Generator seed.
    seed: u64,
}

impl DatasetSpec {
    /// Generates the matrix with rows divided by `scale_divisor`
    /// (`1` = full Table III size). Density per row is unchanged, so
    /// performance and accuracy shapes are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `scale_divisor == 0`.
    pub fn generate(&self, scale_divisor: usize) -> Csr {
        assert!(scale_divisor > 0, "scale divisor must be positive");
        let rows = (self.full_rows / scale_divisor).max(64);
        match self.kind {
            DatasetKind::Uniform => SyntheticConfig {
                num_rows: rows,
                num_cols: self.num_cols,
                avg_nnz_per_row: self.avg_nnz,
                distribution: NnzDistribution::Uniform,
                seed: self.seed,
            }
            .generate(),
            DatasetKind::Gamma => SyntheticConfig {
                num_rows: rows,
                num_cols: self.num_cols,
                avg_nnz_per_row: self.avg_nnz,
                distribution: NnzDistribution::table3_gamma(),
                seed: self.seed,
            }
            .generate(),
            DatasetKind::Glove => glove_like(rows, self.seed),
        }
    }
}

/// All 19 Table III matrices: 12 uniform (3 sizes × {20, 40} nnz ×
/// {512, 1024} M), 6 Γ (3 sizes × {20, 40} nnz, M = 1024), 1 GloVe-like.
pub(crate) fn table3_specs() -> Vec<DatasetSpec> {
    use DatasetGroup::*;
    use DatasetKind::*;
    let mut specs = Vec::with_capacity(19);
    let sizes: [(DatasetGroup, usize); 3] = [
        (Synthetic05e7, 5_000_000),
        (Synthetic1e7, 10_000_000),
        (Synthetic15e7, 15_000_000),
    ];
    let mut seed = 100u64;
    for (group, rows) in sizes {
        for avg in [20usize, 40] {
            for m in [512usize, 1024] {
                specs.push(DatasetSpec {
                    name: uniform_name(rows, avg, m),
                    group,
                    kind: Uniform,
                    full_rows: rows,
                    num_cols: m,
                    avg_nnz: avg,
                    seed,
                });
                seed += 1;
            }
        }
    }
    for (group, rows) in sizes {
        for avg in [20usize, 40] {
            specs.push(DatasetSpec {
                name: gamma_name(rows, avg),
                group,
                kind: Gamma,
                full_rows: rows,
                num_cols: 1024,
                avg_nnz: avg,
                seed,
            });
            seed += 1;
        }
    }
    specs.push(DatasetSpec {
        name: "glove-0.2e7",
        group: DatasetGroup::Glove,
        kind: DatasetKind::Glove,
        full_rows: 2_000_000,
        num_cols: 512,
        avg_nnz: 18,
        seed,
    });
    specs
}

/// One representative matrix per figure panel (used by the accuracy and
/// speedup experiments, which the paper reports per group). Synthetic
/// groups are represented by their left-skewed Γ matrix (the harder
/// case for row tracking); the GloVe group by its only member.
pub fn group_representatives() -> Vec<DatasetSpec> {
    let specs = table3_specs();
    DatasetGroup::ALL
        .iter()
        .map(|g| {
            specs
                .iter()
                .find(|s| s.group == *g && s.kind == DatasetKind::Gamma)
                .or_else(|| specs.iter().find(|s| s.group == *g))
                .copied()
                // invariant: the group list is derived from the spec table, so a spec exists
                .expect("every group has at least one spec")
        })
        .collect()
}

fn uniform_name(rows: usize, avg: usize, m: usize) -> &'static str {
    // Static names keep DatasetSpec Copy; enumerate the 12 combinations.
    match (rows, avg, m) {
        (5_000_000, 20, 512) => "uniform-0.5e7-20nnz-m512",
        (5_000_000, 20, 1024) => "uniform-0.5e7-20nnz-m1024",
        (5_000_000, 40, 512) => "uniform-0.5e7-40nnz-m512",
        (5_000_000, 40, 1024) => "uniform-0.5e7-40nnz-m1024",
        (10_000_000, 20, 512) => "uniform-1e7-20nnz-m512",
        (10_000_000, 20, 1024) => "uniform-1e7-20nnz-m1024",
        (10_000_000, 40, 512) => "uniform-1e7-40nnz-m512",
        (10_000_000, 40, 1024) => "uniform-1e7-40nnz-m1024",
        (15_000_000, 20, 512) => "uniform-1.5e7-20nnz-m512",
        (15_000_000, 20, 1024) => "uniform-1.5e7-20nnz-m1024",
        (15_000_000, 40, 512) => "uniform-1.5e7-40nnz-m512",
        (15_000_000, 40, 1024) => "uniform-1.5e7-40nnz-m1024",
        // invariant: callers pass only combinations present in the spec table
        _ => unreachable!("unknown uniform combination"),
    }
}

fn gamma_name(rows: usize, avg: usize) -> &'static str {
    match (rows, avg) {
        (5_000_000, 20) => "gamma-0.5e7-20nnz",
        (5_000_000, 40) => "gamma-0.5e7-40nnz",
        (10_000_000, 20) => "gamma-1e7-20nnz",
        (10_000_000, 40) => "gamma-1e7-40nnz",
        (15_000_000, 20) => "gamma-1.5e7-20nnz",
        (15_000_000, 40) => "gamma-1.5e7-40nnz",
        // invariant: callers pass only combinations present in the spec table
        _ => unreachable!("unknown gamma combination"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_19_matrices_like_table3() {
        let specs = table3_specs();
        assert_eq!(specs.len(), 19);
        let uniform = specs
            .iter()
            .filter(|s| s.kind == DatasetKind::Uniform)
            .count();
        let gamma = specs
            .iter()
            .filter(|s| s.kind == DatasetKind::Gamma)
            .count();
        let glove = specs
            .iter()
            .filter(|s| s.kind == DatasetKind::Glove)
            .count();
        assert_eq!((uniform, gamma, glove), (12, 6, 1));
    }

    #[test]
    fn names_are_unique() {
        let specs = table3_specs();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
    }

    #[test]
    fn full_nnz_matches_table3_ranges() {
        // Uniform N = 10^7, 20-40 avg nnz -> 2*10^8 to 4*10^8 nnz.
        let specs = table3_specs();
        for s in specs
            .iter()
            .filter(|s| s.group == DatasetGroup::Synthetic1e7 && s.kind == DatasetKind::Uniform)
        {
            let nnz = s.full_rows as u64 * s.avg_nnz as u64;
            assert!(
                (200_000_000..=400_000_000).contains(&nnz),
                "{}: {nnz}",
                s.name
            );
        }
    }

    #[test]
    fn generate_scales_rows_not_density() {
        let spec = table3_specs()[0];
        let m = spec.generate(1000);
        assert_eq!(m.num_rows(), spec.full_rows / 1000);
        let stats = m.row_stats();
        assert!((stats.mean_nnz - spec.avg_nnz as f64).abs() < 2.0);
    }

    #[test]
    fn group_representatives_cover_all_panels() {
        let reps = group_representatives();
        assert_eq!(reps.len(), 4);
        for (rep, group) in reps.iter().zip(DatasetGroup::ALL) {
            assert_eq!(rep.group, group);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = table3_specs()[3];
        assert_eq!(spec.generate(1000), spec.generate(1000));
    }
}
