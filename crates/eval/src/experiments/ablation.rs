//! Design-choice ablations called out by §IV-B and §IV-C:
//!
//! - **`r` sweep** (rows tracked per packet): the paper claims
//!   `B/4 < r < B/2` saves up to 50% of row-tracking logic with no
//!   accuracy loss. [`run_r_sweep`] measures both sides of that claim —
//!   modelled LUTs and measured ranking quality as `r` shrinks.
//! - **Packet layout design space**: how `B` (and therefore operational
//!   intensity) responds to value width `V` and embedding size `M`
//!   through the §IV-C capacity equation. [`run_layout_sweep`] tabulates
//!   the frontier.

use tkspmv::hw::{DesignPoint, ResourceModel};
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::PacketLayout;

use crate::backends;
use crate::datasets::group_representatives;
use crate::metrics::RankingQuality;
use crate::report::{fnum, Table};
use crate::ExpConfig;

/// One point of the `r` ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct RSweepRow {
    /// Rows tracked per packet.
    r: u32,
    /// Packet capacity `B` for context.
    b: u32,
    /// Modelled per-core LUTs.
    core_luts: u64,
    /// Ranking quality at K = 100 (mean over queries).
    quality: RankingQuality,
    /// Fraction of finished rows dropped by the limit.
    dropped_fraction: f64,
}

/// Sweeps `r` from 1 to `B` on the paper's 20-bit design.
#[expect(
    clippy::expect_used,
    reason = "invariant: experiment driver; the paper's grid solves and the accelerator reports \
              per-core stats; a failed prepare or query invalidates the run, so it fails loudly"
)]
pub fn run_r_sweep(config: &ExpConfig) -> Vec<RSweepRow> {
    let spec = group_representatives()[0];
    let csr = spec.generate(config.scale_divisor);
    let layout = PacketLayout::solve(csr.num_cols(), 20).expect("layout fits");
    let b = layout.entries_per_packet();
    let model = ResourceModel::alveo_u280();
    let mut rows = Vec::new();
    for r in [1, b / 8, b / 4, b / 2, b] {
        let r = r.max(1);
        if rows.iter().any(|row: &RSweepRow| row.r == r) {
            continue;
        }
        let backend = backends::fpga_with_rows_per_packet(Precision::Fixed20, Some(r));
        let prepared = backend.prepare(&csr).expect("matrix loads");
        let mut samples = Vec::new();
        let mut dropped = 0u64;
        let mut finished = 0u64;
        for q in 0..config.queries.max(1) {
            let x = query_vector(csr.num_cols(), config.seed + 17 * q as u64);
            let truth = exact_topk(&csr, x.as_slice(), 100);
            let out = backend.query(&prepared, &x, 100).expect("query runs");
            samples.push(RankingQuality::score(&out.topk.indices(), truth.entries()));
            let cores = out
                .stats
                .core_stats()
                .expect("accelerator reports per-core stats");
            dropped += cores.iter().map(|s| s.rows_dropped).sum::<u64>();
            finished += cores
                .iter()
                .map(|s| s.rows_finished + s.rows_dropped)
                .sum::<u64>();
        }
        let design = DesignPoint {
            r,
            ..DesignPoint::paper_design(Precision::Fixed20)
        };
        rows.push(RSweepRow {
            r,
            b,
            core_luts: model.core_usage(&design).lut,
            quality: RankingQuality::mean(&samples),
            dropped_fraction: dropped as f64 / finished.max(1) as f64,
        });
    }
    rows
}

/// Renders the `r` sweep.
pub fn r_sweep_table(rows: &[RSweepRow]) -> Table {
    let mut t = Table::new(vec![
        "r (rows/packet)",
        "B",
        "core LUTs (model)",
        "Precision@100",
        "Kendall tau",
        "NDCG",
        "rows dropped",
    ]);
    for r in rows {
        t.row(vec![
            r.r.to_string(),
            r.b.to_string(),
            r.core_luts.to_string(),
            fnum(r.quality.precision, 3),
            fnum(r.quality.kendall_tau, 3),
            fnum(r.quality.ndcg, 3),
            format!("{:.2}%", r.dropped_fraction * 100.0),
        ]);
    }
    t
}

/// One point of the layout design space (§IV-C equation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutRow {
    /// Value width `V`.
    value_bits: u32,
    /// Embedding size `M`.
    m: usize,
    /// Resulting packet capacity `B`.
    b: u32,
    /// Resulting operational intensity (nnz/byte).
    oi: f64,
    /// Bits wasted per packet.
    padding_bits: u32,
}

/// Tabulates `B(V, M)` across the §IV-C design space.
#[expect(
    clippy::expect_used,
    reason = "invariant: the swept grid stays within the layout solver's field widths"
)]
pub fn run_layout_sweep() -> Vec<LayoutRow> {
    let mut rows = Vec::new();
    for &v in &[16u32, 20, 25, 32] {
        for &m in &[512usize, 1024, 4096, 65536] {
            let layout = PacketLayout::solve(m, v).expect("layout fits");
            rows.push(LayoutRow {
                value_bits: v,
                m,
                b: layout.entries_per_packet(),
                oi: layout.operational_intensity(),
                padding_bits: 512 - layout.bits_used(),
            });
        }
    }
    rows
}

/// Renders the layout design space.
pub fn layout_table(rows: &[LayoutRow]) -> Table {
    let mut t = Table::new(vec![
        "V (bits)",
        "M",
        "B",
        "OI (nnz/byte)",
        "padding (bits)",
    ]);
    for r in rows {
        t.row(vec![
            r.value_bits.to_string(),
            r.m.to_string(),
            r.b.to_string(),
            fnum(r.oi, 3),
            r.padding_bits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_between_quarter_and_half_b_loses_nothing() {
        // §IV-B's claim, on our data: r = B/2 matches r = B accuracy.
        let rows = run_r_sweep(&ExpConfig::smoke_test());
        let full = rows.iter().find(|r| r.r == r.b).expect("r = B row");
        let half = rows.iter().find(|r| r.r == r.b / 2).expect("r = B/2 row");
        assert!(
            half.quality.precision >= full.quality.precision - 0.005,
            "half {:.4} vs full {:.4}",
            half.quality.precision,
            full.quality.precision
        );
        // And saves logic.
        assert!(half.core_luts < full.core_luts);
    }

    #[test]
    fn tiny_r_hurts_accuracy_or_drops_rows() {
        let rows = run_r_sweep(&ExpConfig::smoke_test());
        let r1 = rows.iter().find(|r| r.r == 1).expect("r = 1 row");
        // With r = 1, packets that complete 2+ rows overflow the tracker.
        // At ~20 nnz/row and B = 15 that is a minority of packets but a
        // measurable fraction of rows.
        assert!(r1.dropped_fraction > 0.02, "{}", r1.dropped_fraction);
        // The full-r configuration drops nothing.
        let full = rows.iter().find(|r| r.r == r.b).expect("r = B row");
        assert_eq!(full.dropped_fraction, 0.0);
    }

    #[test]
    fn layout_sweep_matches_capacity_equation() {
        let rows = run_layout_sweep();
        // Paper's design points appear in the frontier.
        let b = |v: u32, m: usize| {
            rows.iter()
                .find(|r| r.value_bits == v && r.m == m)
                .unwrap()
                .b
        };
        assert_eq!(b(20, 1024), 15);
        assert_eq!(b(25, 1024), 13);
        assert_eq!(b(32, 1024), 11);
        // Monotonic: more value bits or bigger M never increases B.
        assert!(b(16, 512) >= b(20, 512));
        assert!(b(20, 512) >= b(20, 65536));
    }

    #[test]
    fn tables_render() {
        assert!(!layout_table(&run_layout_sweep()).is_empty());
        let rows = run_r_sweep(&ExpConfig::smoke_test());
        assert_eq!(r_sweep_table(&rows).len(), rows.len());
    }
}
