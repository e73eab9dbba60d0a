//! End-to-end pipeline tests: generator → accelerator → results vs the
//! exact oracle, across all precisions and dataset kinds.

use tkspmv::{Accelerator, TopKBackend};
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_eval::metrics::RankingQuality;
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{glove_like, query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

fn uniform_matrix() -> Csr {
    SyntheticConfig {
        num_rows: 5_000,
        num_cols: 512,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::Uniform,
        seed: 11,
    }
    .generate()
}

fn gamma_matrix() -> Csr {
    SyntheticConfig {
        num_rows: 5_000,
        num_cols: 1024,
        avg_nnz_per_row: 40,
        distribution: NnzDistribution::table3_gamma(),
        seed: 13,
    }
    .generate()
}

#[test]
fn paper_design_reaches_97_percent_precision() {
    // Figure 7's headline: precision above 97% across the board, even
    // for the 20-bit design at K = 100.
    for csr in [uniform_matrix(), gamma_matrix(), glove_like(5_000, 17)] {
        let acc = Accelerator::builder()
            .precision(Precision::Fixed20)
            .cores(32)
            .k(8)
            .build()
            .unwrap();
        let m = acc.prepare(&csr).unwrap();
        let mut precisions = Vec::new();
        for q in 0..3u64 {
            let x = query_vector(csr.num_cols(), 900 + q);
            let truth = exact_topk(&csr, x.as_slice(), 100);
            let out = acc.query(&m, &x, 100).unwrap();
            precisions.push(RankingQuality::score(&out.topk.indices(), truth.entries()).precision);
        }
        let mean = precisions.iter().sum::<f64>() / precisions.len() as f64;
        assert!(mean > 0.95, "mean precision {mean}");
    }
}

#[test]
fn top_ranked_rows_are_never_lost() {
    // §III-A: "as we always retrieve the top k values, the approximation
    // does not affect the best-ranked rows". The global top-1..top-8 (=k)
    // must be exact.
    let csr = gamma_matrix();
    let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
    let m = acc.prepare(&csr).unwrap();
    for q in 0..5u64 {
        let x = query_vector(csr.num_cols(), 40 + q);
        let truth = exact_topk(&csr, x.as_slice(), 8);
        let out = acc.query(&m, &x, 8).unwrap();
        assert_eq!(out.topk.indices(), truth.indices(), "query {q}");
    }
}

#[test]
fn all_precisions_complete_with_sane_results() {
    let csr = uniform_matrix();
    let x = query_vector(512, 3);
    let truth = exact_topk(&csr, x.as_slice(), 50);
    for precision in [
        Precision::Fixed20,
        Precision::Fixed25,
        Precision::Fixed32,
        Precision::Float32,
        Precision::Half16,
    ] {
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(16)
            .k(8)
            .build()
            .unwrap();
        let m = acc.prepare(&csr).unwrap();
        let out = acc.query(&m, &x, 50).unwrap();
        assert_eq!(out.topk.len(), 50, "{precision:?}");
        let q = RankingQuality::score(&out.topk.indices(), truth.entries());
        assert!(
            q.precision > 0.85,
            "{precision:?}: precision {}",
            q.precision
        );
        // Scores must be descending and in [0, ~1].
        let scores = out.topk.scores();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{precision:?}");
        assert!(scores[0] <= 1.5, "{precision:?}: score {}", scores[0]);
    }
}

#[test]
fn performance_report_is_consistent() {
    let csr = uniform_matrix();
    let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
    let out = acc
        .query(&acc.prepare(&csr).unwrap(), &query_vector(512, 1), 10)
        .unwrap();
    let perf = out.stats.perf_report().unwrap();
    assert_eq!(perf.nnz, csr.nnz() as u64);
    assert!(perf.kernel_seconds > 0.0);
    assert!(perf.seconds > perf.kernel_seconds, "host overhead added");
    assert_eq!(
        (out.perf.seconds, out.perf.kernel_seconds),
        (perf.seconds, perf.kernel_seconds)
    );
    // Total packets match the loaded partitions.
    let expect: u64 = acc
        .load_matrix(&csr)
        .unwrap()
        .partitions
        .iter()
        .map(|(_, p)| p.num_packets() as u64)
        .sum();
    assert_eq!(perf.total_packets, expect);
    // Bytes = packets * 64.
    assert_eq!(perf.bytes_streamed(), expect * 64);
}

#[test]
fn deterministic_across_runs() {
    let csr = gamma_matrix();
    let acc = Accelerator::builder().cores(8).k(16).build().unwrap();
    let m = acc.prepare(&csr).unwrap();
    let x = query_vector(1024, 77);
    let a = acc.query(&m, &x, 100).unwrap();
    let b = acc.query(&m, &x, 100).unwrap();
    assert_eq!(a.topk, b.topk);
}

#[test]
fn single_core_equals_exact_up_to_quantisation() {
    // One partition, k >= K, 32-bit fixed point or binary32: the engine
    // is a plain exact Top-K evaluator.
    let csr = uniform_matrix();
    let x = query_vector(512, 5);
    let truth = exact_topk(&csr, x.as_slice(), 100);
    for precision in [Precision::Fixed32, Precision::Float32] {
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(1)
            .k(100)
            .build()
            .unwrap();
        let out = acc.query(&acc.prepare(&csr).unwrap(), &x, 100).unwrap();
        let hits = out
            .topk
            .indices()
            .iter()
            .filter(|i| truth.indices().contains(i))
            .count();
        assert!(hits >= 99, "{precision:?}: hits {hits}");
    }
}
