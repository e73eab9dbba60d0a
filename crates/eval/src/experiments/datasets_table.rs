//! Table III: the evaluation matrices and their BS-CSR footprints.

use tkspmv_fixed::Q1_19;
use tkspmv_sparse::{BsCsr, PacketLayout};

use crate::datasets::{table3_specs, DatasetSpec};
use crate::report::{fgb, Table};
use crate::ExpConfig;

/// Measured properties of one generated evaluation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRow {
    /// The spec that produced it.
    spec: DatasetSpec,
    /// Rows actually generated (scaled).
    rows: usize,
    /// Non-zeros actually generated (scaled).
    nnz: u64,
    /// BS-CSR bytes at the generated scale (V = 20).
    bscsr_bytes: u64,
    /// Extrapolated full-scale non-zeros.
    full_nnz: u64,
    /// Extrapolated full-scale BS-CSR bytes.
    full_bytes: u64,
}

/// Generates all 19 matrices at the configured scale and measures their
/// BS-CSR footprint.
pub fn run(config: &ExpConfig) -> Vec<DatasetRow> {
    table3_specs()
        .iter()
        .map(|spec| {
            let csr = spec.generate(config.scale_divisor);
            #[expect(
                clippy::expect_used,
                reason = "invariant: the paper grid (m <= 65536, 20-bit values) always admits a \
                          layout"
            )]
            let layout = PacketLayout::solve(csr.num_cols(), 20).expect("layout fits");
            let bs = BsCsr::encode::<Q1_19>(&csr, layout);
            let factor = (spec.full_rows / csr.num_rows().max(1)) as u64;
            DatasetRow {
                spec: *spec,
                rows: csr.num_rows(),
                nnz: csr.nnz() as u64,
                bscsr_bytes: bs.size_bytes(),
                full_nnz: csr.nnz() as u64 * factor,
                full_bytes: bs.size_bytes() * factor,
            }
        })
        .collect()
}

/// Renders rows in Table III's layout (full-scale extrapolations).
pub fn to_table(rows: &[DatasetRow]) -> Table {
    let mut t = Table::new(vec![
        "Matrix",
        "Distribution",
        "Rows (full)",
        "M",
        "Non-zeros (full)",
        "BS-CSR size (full)",
    ]);
    for r in rows {
        t.row(vec![
            r.spec.name.to_string(),
            r.spec.kind.label().to_string(),
            format!("{:.1e}", r.spec.full_rows as f64),
            r.spec.num_cols.to_string(),
            format!("{:.2e}", r.full_nnz as f64),
            fgb(r.full_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    #[test]
    fn all_19_matrices_measured() {
        let rows = run(&ExpConfig::smoke_test());
        assert_eq!(rows.len(), 19);
        assert!(rows.iter().all(|r| r.nnz > 0 && r.bscsr_bytes > 0));
    }

    #[test]
    fn full_scale_sizes_match_table3_ranges() {
        // Table III: uniform N = 10^7 matrices occupy 0.8 - 1.7 GB in
        // BS-CSR. Extrapolation from 1/1000-scale must land in range.
        let rows = run(&ExpConfig::smoke_test());
        for r in rows
            .iter()
            .filter(|r| r.spec.full_rows == 10_000_000 && r.spec.kind == DatasetKind::Uniform)
        {
            let gb = r.full_bytes as f64 / 1e9;
            assert!(
                (0.6..2.2).contains(&gb),
                "{}: {gb:.2} GB out of Table III range",
                r.spec.name
            );
        }
    }

    #[test]
    fn bscsr_is_at_least_2x_smaller_than_naive_coo() {
        // Table III caption: "if stored as a naive COO, they would take 3
        // times as much space". With placeholder/padding overheads our
        // ratio is at least 2.5x for the uniform matrices.
        let rows = run(&ExpConfig::smoke_test());
        for r in rows.iter().filter(|r| r.spec.kind == DatasetKind::Uniform) {
            let naive = r.nnz * 12;
            let ratio = naive as f64 / r.bscsr_bytes as f64;
            assert!(ratio > 2.5, "{}: ratio {ratio:.2}", r.spec.name);
        }
    }

    #[test]
    fn table_has_one_row_per_matrix() {
        let rows = run(&ExpConfig::smoke_test());
        assert_eq!(to_table(&rows).len(), 19);
    }
}
