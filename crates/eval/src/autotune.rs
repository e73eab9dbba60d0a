//! Adaptive precision selection — the paper's stated future work
//! (§VI: "reconfiguring the FPGA in terms of numerical precision to
//! guarantee desired targets of accuracy or performance").
//!
//! Given an embedding collection and an accuracy target, the tuner
//! scores each candidate design on a row sample against the exact
//! oracle and picks the *fastest* design (highest packet capacity `B`,
//! then highest clock) that still meets the target. This is exactly the
//! decision procedure a reconfigurable deployment would run before
//! choosing which bitstream to flash.

use tkspmv::{Accelerator, EngineError, TopKBackend};
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, Rng64};
use tkspmv_sparse::Csr;

use crate::metrics::RankingQuality;

/// What the tuner must guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyTarget {
    /// Required mean Precision@K.
    pub min_precision: f64,
    /// Required mean NDCG@K.
    pub min_ndcg: f64,
    /// The K the guarantee applies to.
    pub k: usize,
}

impl AccuracyTarget {
    /// A typical production target: 98% precision, 0.98 NDCG at K = 100.
    pub fn strict() -> Self {
        Self {
            min_precision: 0.98,
            min_ndcg: 0.98,
            k: 100,
        }
    }
}

/// Result of tuning: the chosen design and the evidence for every
/// candidate.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The selected precision (fastest candidate meeting the target).
    pub selected: Precision,
    /// Per-candidate `(precision, quality, modelled_gnnz_per_sec)`.
    pub candidates: Vec<(Precision, RankingQuality, f64)>,
}

/// Scores every FPGA design on a sampled sub-collection and returns the
/// fastest one that meets `target`.
///
/// `sample_rows` bounds the evaluation cost (rows are sampled
/// deterministically from `seed`); `queries` queries are averaged.
///
/// # Errors
///
/// Returns [`EngineError::BadQuery`] if *no* design meets the target
/// (the caller should relax the target or raise `k`/partitions), or any
/// underlying accelerator error.
///
/// # Panics
///
/// Panics if `sample_rows`, `queries` or `target.k` is zero.
pub fn choose_precision(
    csr: &Csr,
    target: AccuracyTarget,
    sample_rows: usize,
    queries: usize,
    seed: u64,
) -> Result<TuneOutcome, EngineError> {
    assert!(sample_rows > 0 && queries > 0 && target.k > 0);
    let sample = sample_matrix(csr, sample_rows, seed);

    let mut candidates = Vec::new();
    let mut best: Option<(Precision, f64)> = None;
    for precision in Precision::FPGA_DESIGNS {
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(32)
            .k(8)
            .build()?;
        let prepared = acc.prepare(&sample)?;
        let mut samples = Vec::with_capacity(queries);
        let mut gnnz = 0.0;
        for q in 0..queries {
            let x = query_vector(sample.num_cols(), seed ^ (q as u64 + 1));
            let truth = exact_topk(&sample, x.as_slice(), target.k.min(sample.num_rows()));
            let out = acc.query(&prepared, &x, target.k.min(sample.num_rows()))?;
            samples.push(RankingQuality::score(&out.topk.indices(), truth.entries()));
            gnnz += out.perf.gnnz_per_sec() / queries as f64;
        }
        let quality = RankingQuality::mean(&samples);
        let meets = quality.precision >= target.min_precision && quality.ndcg >= target.min_ndcg;
        // Rank candidates by modelled throughput, which already folds
        // in the packet capacity B and the per-design clock.
        if meets && best.is_none_or(|(_, g)| gnnz > g) {
            best = Some((precision, gnnz));
        }
        candidates.push((precision, quality, gnnz));
    }
    match best {
        Some((selected, _)) => Ok(TuneOutcome {
            selected,
            candidates,
        }),
        None => Err(EngineError::bad_query(format!(
            "no design meets precision >= {} and NDCG >= {} at K = {}",
            target.min_precision, target.min_ndcg, target.k
        ))),
    }
}

/// Deterministically samples `rows` rows of `csr` (without replacement)
/// into a smaller collection with the same column space.
#[expect(
    clippy::expect_used,
    reason = "invariant: triplets are re-rowed entries of a valid Csr with the same column count"
)]
fn sample_matrix(csr: &Csr, rows: usize, seed: u64) -> Csr {
    if rows >= csr.num_rows() {
        return csr.clone();
    }
    let mut rng = Rng64::new(seed);
    let picked = rng.sample_distinct(rows, csr.num_rows());
    let triplets: Vec<(u32, u32, f32)> = picked
        .iter()
        .enumerate()
        .flat_map(|(new_r, &old_r)| {
            csr.row(old_r as usize)
                .map(move |(c, v)| (new_r as u32, c, v))
        })
        .collect();
    Csr::from_triplets(rows, csr.num_cols(), &triplets).expect("sampled rows stay valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::gen::{NnzDistribution, SyntheticConfig};

    fn collection() -> Csr {
        SyntheticConfig {
            num_rows: 4000,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: NnzDistribution::Uniform,
            seed: 77,
        }
        .generate()
    }

    #[test]
    fn picks_a_fast_design_meeting_strict_target() {
        let outcome =
            choose_precision(&collection(), AccuracyTarget::strict(), 2000, 3, 42).unwrap();
        assert_eq!(outcome.candidates.len(), 4);
        // All four designs are accurate on this data; the fastest is the
        // 20-bit one (highest B).
        assert_eq!(outcome.selected, Precision::Fixed20);
    }

    #[test]
    fn impossible_target_is_an_error() {
        let err = choose_precision(
            &collection(),
            AccuracyTarget {
                min_precision: 1.1, // unattainable by construction
                min_ndcg: 0.0,
                k: 50,
            },
            1000,
            2,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::BadQuery { .. }));
    }

    #[test]
    fn candidates_report_quality_for_every_design() {
        let outcome =
            choose_precision(&collection(), AccuracyTarget::strict(), 1500, 2, 9).unwrap();
        for (p, q, gnnz) in &outcome.candidates {
            assert!(q.precision > 0.9, "{p:?}: {}", q.precision);
            assert!(*gnnz > 0.0);
        }
    }

    #[test]
    fn sample_matrix_preserves_shape_properties() {
        let csr = collection();
        let s = sample_matrix(&csr, 500, 3);
        assert_eq!(s.num_rows(), 500);
        assert_eq!(s.num_cols(), csr.num_cols());
        assert!(s.row_stats().mean_nnz > 10.0);
        // Sampling more rows than available returns the original.
        assert_eq!(sample_matrix(&csr, 10_000, 3), csr);
    }
}
