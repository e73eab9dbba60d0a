//! Cross-precision behaviour: accuracy ordering, agreement between
//! designs, quantisation error propagation.

use tkspmv::{Accelerator, TopKBackend};
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_eval::metrics::RankingQuality;
use tkspmv_fixed::{Precision, QFormat};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

fn matrix() -> Csr {
    SyntheticConfig {
        num_rows: 4000,
        num_cols: 512,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::Uniform,
        seed: 21,
    }
    .generate()
}

fn mean_quality(precision: Precision, csr: &Csr, big_k: usize) -> RankingQuality {
    let acc = Accelerator::builder()
        .precision(precision)
        .cores(32)
        .k(8)
        .build()
        .unwrap();
    let m = acc.prepare(csr).unwrap();
    let mut samples = Vec::new();
    for q in 0..5u64 {
        let x = query_vector(csr.num_cols(), 300 + q);
        let truth = exact_topk(csr, x.as_slice(), big_k);
        let out = acc.query(&m, &x, big_k).unwrap();
        samples.push(RankingQuality::score(&out.topk.indices(), truth.entries()));
    }
    RankingQuality::mean(&samples)
}

#[test]
fn wider_fixed_point_is_at_least_as_accurate() {
    let csr = matrix();
    let q20 = mean_quality(Precision::Fixed20, &csr, 100);
    let q25 = mean_quality(Precision::Fixed25, &csr, 100);
    let q32 = mean_quality(Precision::Fixed32, &csr, 100);
    // Allow tiny non-monotonicity from tie-breaks; the trend must hold.
    assert!(
        q25.ndcg >= q20.ndcg - 0.005,
        "25b {} vs 20b {}",
        q25.ndcg,
        q20.ndcg
    );
    assert!(
        q32.ndcg >= q25.ndcg - 0.005,
        "32b {} vs 25b {}",
        q32.ndcg,
        q25.ndcg
    );
    assert!(
        q20.precision > 0.95,
        "even 20-bit stays high: {}",
        q20.precision
    );
}

#[test]
fn fixed32_and_float32_agree_closely() {
    // Q1.31 resolution (4.7e-10) is far finer than f32's 1.2e-7 around
    // 1.0; with identical partitioning both designs rank nearly
    // identically.
    let csr = matrix();
    let a32 = Accelerator::builder()
        .precision(Precision::Fixed32)
        .cores(16)
        .k(8)
        .build()
        .unwrap();
    let af = Accelerator::builder()
        .precision(Precision::Float32)
        .cores(16)
        .k(8)
        .build()
        .unwrap();
    let m32 = a32.prepare(&csr).unwrap();
    let mf = af.prepare(&csr).unwrap();
    for q in 0..3u64 {
        let x = query_vector(512, 600 + q);
        let i32s = a32.query(&m32, &x, 50).unwrap().topk.indices();
        let ifs = af.query(&mf, &x, 50).unwrap().topk.indices();
        let same = i32s.iter().zip(&ifs).filter(|(a, b)| a == b).count();
        assert!(same >= 45, "query {q}: only {same}/50 positions agree");
    }
}

#[test]
fn score_error_bounded_by_quantisation_theory() {
    // For an L2-normalised row with d entries, the quantised dot product
    // differs from exact by at most ~(d + 1) * eps/2 (value + vector
    // quantisation), far below one part in 10^3 for 20-bit.
    let csr = matrix();
    let acc = Accelerator::builder()
        .precision(Precision::Fixed20)
        .cores(1)
        .k(100)
        .build()
        .unwrap();
    let m = acc.prepare(&csr).unwrap();
    let x = query_vector(512, 8);
    let out = acc.query(&m, &x, 100).unwrap();
    let exact = csr.spmv_exact(x.as_slice());
    let eps = QFormat::new(20).epsilon();
    let max_d = csr.row_stats().max_nnz as f64;
    let bound = (max_d + 2.0) * eps; // generous union of both quantisers
    for &(row, score) in out.topk.entries() {
        let err = (score - exact[row as usize]).abs();
        assert!(err <= bound, "row {row}: err {err} > bound {bound}");
    }
}

#[test]
fn half16_is_worst_but_usable() {
    let csr = matrix();
    let h = mean_quality(Precision::Half16, &csr, 100);
    let q20 = mean_quality(Precision::Fixed20, &csr, 100);
    assert!(h.precision > 0.85, "f16 usable: {}", h.precision);
    assert!(
        q20.ndcg >= h.ndcg - 0.002,
        "20-bit fixed ({}) >= f16 ({})",
        q20.ndcg,
        h.ndcg
    );
}
