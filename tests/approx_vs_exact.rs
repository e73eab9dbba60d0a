//! The partitioned approximation in practice vs its theory: measured
//! precision must track the closed-form expectation of §III-A.

use tkspmv::approx::{expected_precision, monte_carlo_precision};
use tkspmv::{Accelerator, TopKBackend, TopKResult};
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

#[test]
fn measured_precision_tracks_theory() {
    // Small k and few partitions make the approximation lossy enough to
    // measure: N = 4000, c = 4, k = 8, K = 24 -> E[P] well below 1.
    let n = 4000u64;
    let (c, k, big_k) = (4u32, 8usize, 24usize);
    let analytic = expected_precision(n, c as u64, k as u64, big_k as u64);
    assert!(analytic < 0.999, "setup must be lossy, got {analytic}");

    let csr = SyntheticConfig {
        num_rows: n as usize,
        num_cols: 256,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::Uniform,
        seed: 3,
    }
    .generate();
    let acc = Accelerator::builder()
        .precision(Precision::Fixed32)
        .cores(c)
        .k(k)
        .build()
        .unwrap();
    let m = acc.prepare(&csr).unwrap();

    let queries = 40;
    let mut total = 0.0;
    for q in 0..queries {
        let x = query_vector(256, 1000 + q);
        let truth: std::collections::HashSet<u32> = exact_topk(&csr, x.as_slice(), big_k)
            .indices()
            .into_iter()
            .collect();
        let got = acc.query(&m, &x, big_k).unwrap();
        let hits = got
            .topk
            .indices()
            .iter()
            .filter(|i| truth.contains(i))
            .count();
        total += hits as f64 / big_k as f64;
    }
    let measured = total / queries as f64;
    // Theory assumes uniformly random placement of top values; real
    // embeddings are close enough that 5 points of tolerance holds.
    assert!(
        (measured - analytic).abs() < 0.05,
        "measured {measured:.3} vs analytic {analytic:.3}"
    );
}

#[test]
fn monte_carlo_and_closed_form_agree_on_table1_grid() {
    for n in [1_000_000u64, 10_000_000] {
        for c in [16u64, 28, 32] {
            for big_k in [8u64, 32, 100] {
                let analytic = expected_precision(n, c, 8, big_k);
                let mc = monte_carlo_precision(n, c, 8, big_k, 3000, n ^ c ^ big_k);
                assert!(
                    (analytic - mc).abs() < 0.012,
                    "N={n} c={c} K={big_k}: {analytic:.4} vs {mc:.4}"
                );
            }
        }
    }
}

#[test]
fn merge_of_partition_topk_is_order_correct() {
    // Merging per-partition results must equal running a flat Top-K on
    // the concatenated candidate pool.
    let parts: Vec<TopKResult> = vec![
        TopKResult::from_pairs(vec![(0, 0.9), (1, 0.3), (2, 0.5)]),
        TopKResult::from_pairs(vec![(10, 0.8), (11, 0.6), (12, 0.1)]),
        TopKResult::from_pairs(vec![(20, 0.7), (21, 0.2)]),
    ];
    let merged = TopKResult::merge(parts, 5);
    assert_eq!(merged.indices(), vec![0, 10, 20, 11, 2]);
}

#[test]
fn increasing_cores_improves_accuracy_monotonically() {
    // More partitions -> fewer top values per partition -> higher
    // precision (Table I's trend), measured end to end.
    let csr = SyntheticConfig {
        num_rows: 6000,
        num_cols: 256,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::table3_gamma(),
        seed: 5,
    }
    .generate();
    let big_k = 32;
    let mut last = 0.0;
    for cores in [4u32, 8, 32] {
        let acc = Accelerator::builder()
            .precision(Precision::Fixed32)
            .cores(cores)
            .k(8)
            .build()
            .unwrap();
        let m = acc.prepare(&csr).unwrap();
        let mut total = 0.0;
        let queries = 20;
        for q in 0..queries {
            let x = query_vector(256, 7000 + q);
            let truth: std::collections::HashSet<u32> = exact_topk(&csr, x.as_slice(), big_k)
                .indices()
                .into_iter()
                .collect();
            let got = acc.query(&m, &x, big_k).unwrap();
            total += got
                .topk
                .indices()
                .iter()
                .filter(|i| truth.contains(i))
                .count() as f64
                / big_k as f64;
        }
        let mean = total / queries as f64;
        assert!(
            mean >= last - 0.02,
            "precision must not degrade with cores: {mean} after {last}"
        );
        last = mean;
    }
    assert!(last > 0.99, "32 cores with k=8 covers K=32 nearly exactly");
}
