//! Figure 7: Top-K accuracy (Precision, Kendall's τ, NDCG) of the FPGA
//! designs and the GPU F16 baseline against the exact CPU result.
//!
//! The scored architectures are whatever
//! `backends::figure7_roster` returns; each is prepared once
//! per dataset and queried through the [`tkspmv::TopKBackend`] trait
//! across the whole K sweep.

use tkspmv_baselines::cpu::exact_topk;
use tkspmv_sparse::gen::query_vector;

use crate::backends;
use crate::datasets::{group_representatives, DatasetGroup};
use crate::metrics::RankingQuality;
use crate::report::{fnum, Table};
use crate::ExpConfig;

/// The K sweep of Figure 7.
const FIGURE7_KS: [usize; 6] = [8, 16, 32, 50, 75, 100];

/// Mean ranking quality of one architecture at one K on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Dataset group (figure panel).
    group: DatasetGroup,
    /// Requested Top-K.
    k: usize,
    /// Backend name (the figure legend's series).
    backend: String,
    /// Mean metrics over the configured number of queries.
    quality: RankingQuality,
}

/// Runs the Figure 7 sweep: 4 groups × 6 K values × the roster.
#[expect(
    clippy::expect_used,
    reason = "invariant: experiment driver; FIGURE7_KS is a non-empty constant; a failed prepare \
              or query invalidates the run, so it fails loudly"
)]
pub fn run(config: &ExpConfig) -> Vec<AccuracyRow> {
    let roster = backends::figure7_roster();
    let queries = config.queries.max(1);
    let mut rows = Vec::new();
    for spec in group_representatives() {
        let csr = spec.generate(config.scale_divisor);
        // The exact oracle depends only on (dataset, K, query) — and the
        // K values are nested, so one full-SpMV oracle at the largest K
        // per query serves every K by truncation. Computing it here
        // (instead of per backend per K) removes the slowest single step
        // of the sweep from both inner loops.
        let max_k = *FIGURE7_KS.iter().max().expect("non-empty K sweep");
        let xs: Vec<_> = (0..queries)
            .map(|q| query_vector(csr.num_cols(), config.seed + 31 * q as u64))
            .collect();
        let full_truths: Vec<_> = xs
            .iter()
            .map(|x| exact_topk(&csr, x.as_slice(), max_k))
            .collect();
        let truths: Vec<Vec<_>> = FIGURE7_KS
            .iter()
            .map(|&k| full_truths.iter().map(|t| t.clone().truncated(k)).collect())
            .collect();
        for backend in &roster {
            // One prepare per (dataset, backend); the whole K sweep and
            // every query reuse it.
            let prepared = backend.prepare(&csr).expect("backend prepares");
            for (truth_per_query, &k) in truths.iter().zip(&FIGURE7_KS) {
                let mut samples = Vec::with_capacity(queries);
                for (x, truth) in xs.iter().zip(truth_per_query) {
                    let out = backend.query(&prepared, x, k).expect("backend query runs");
                    samples.push(RankingQuality::score(&out.topk.indices(), truth.entries()));
                }
                rows.push(AccuracyRow {
                    group: spec.group,
                    k,
                    backend: backend.name(),
                    quality: RankingQuality::mean(&samples),
                });
            }
        }
    }
    rows
}

/// Renders the accuracy sweep as a long-format table.
pub fn to_table(rows: &[AccuracyRow]) -> Table {
    let mut t = Table::new(vec![
        "Dataset",
        "K",
        "Backend",
        "Precision",
        "Kendall tau",
        "NDCG",
    ]);
    for r in rows {
        t.row(vec![
            r.group.label().to_string(),
            r.k.to_string(),
            r.backend.clone(),
            fnum(r.quality.precision, 3),
            fnum(r.quality.kendall_tau, 3),
            fnum(r.quality.ndcg, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_rows() -> Vec<AccuracyRow> {
        // Full sweep on the smoke-test scale is still 4*6*4 = 96 runs;
        // keep the test fast by restricting to one group via a single
        // representative (index 3 = GloVe, smallest).
        let config = ExpConfig::smoke_test();
        let spec = group_representatives()[3];
        let csr = spec.generate(config.scale_divisor);
        let mut rows = Vec::new();
        for backend in backends::figure7_roster() {
            let prepared = backend.prepare(&csr).expect("backend prepares");
            for &k in &[8usize, 100] {
                let x = query_vector(csr.num_cols(), 3);
                let truth = exact_topk(&csr, x.as_slice(), k);
                let out = backend.query(&prepared, &x, k).expect("query runs");
                rows.push(AccuracyRow {
                    group: spec.group,
                    k,
                    backend: backend.name(),
                    quality: RankingQuality::score(&out.topk.indices(), truth.entries()),
                });
            }
        }
        rows
    }

    #[test]
    fn figure7_shape_high_accuracy_across_the_board() {
        // Paper: precision above 97% everywhere, even for 20-bit.
        for r in small_rows() {
            assert!(
                r.quality.precision > 0.9,
                "{} K={}: precision {:.3}",
                r.backend,
                r.k,
                r.quality.precision
            );
        }
    }

    #[test]
    fn figure7_shape_fixed32_at_least_as_good_as_f16() {
        // Paper: "32-bit fixed-point designs provide accuracy above the
        // half-precision floating-point GPU implementation".
        let rows = small_rows();
        for &k in &[8usize, 100] {
            let get = |backend: &str| {
                rows.iter()
                    .find(|r| r.k == k && r.backend == backend)
                    .expect("row present")
                    .quality
            };
            let fixed32 = get("fpga-32b");
            let f16 = get("gpu-f16");
            assert!(
                fixed32.ndcg >= f16.ndcg - 0.01,
                "K={k}: fixed32 ndcg {:.4} vs f16 {:.4}",
                fixed32.ndcg,
                f16.ndcg
            );
        }
    }

    #[test]
    fn table_renders() {
        let rows = small_rows();
        let t = to_table(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
