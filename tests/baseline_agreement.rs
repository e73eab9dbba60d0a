//! All four execution paths — exact oracle, CPU baseline, GPU model,
//! FPGA engine — must agree on what the Top-K *is* (up to arithmetic
//! noise), or no cross-architecture comparison is meaningful.

use tkspmv::{Accelerator, TopKResult};
use tkspmv_baselines::cpu::{exact_topk, CpuTopK};
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision};
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

fn matrix() -> Csr {
    SyntheticConfig {
        num_rows: 3000,
        num_cols: 256,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::table3_gamma(),
        seed: 31,
    }
    .generate()
}

/// `(row, score bits)`: equality that tells `-0.0` from `+0.0`.
fn bits(topk: &TopKResult) -> Vec<(u32, u64)> {
    topk.entries()
        .iter()
        .map(|&(row, score)| (row, score.to_bits()))
        .collect()
}

#[test]
fn cpu_matches_oracle_exactly() {
    let csr = matrix();
    // Five embedding queries, then one whose every product is `-0.0`.
    let mut queries: Vec<Vec<f32>> = (0..5u64)
        .map(|q| query_vector(256, q).into_values())
        .collect();
    queries.push(vec![-0.0; 256]);
    for (q, x) in queries.iter().enumerate() {
        let oracle = exact_topk(&csr, x, 64);
        let cpu = CpuTopK::with_all_cores().run(&csr, x, 64);
        assert_eq!(bits(&cpu), bits(&oracle), "query {q}");
    }
}

/// A row whose only product is `-0.0` scores `+0.0` on every exact
/// path, so it ties the `+0.0` row beside it and the tie breaks by row.
#[test]
fn signed_zero_products_tie_in_row_order() {
    let csr = Csr::from_triplets(2, 1, &[(0, 0, -0.5), (1, 0, 0.5)]).expect("valid");
    let x = [0.0f32];
    let oracle = exact_topk(&csr, &x, 2);
    let zero = 0.0f64.to_bits();
    assert_eq!(bits(&oracle), [(0, zero), (1, zero)]);
    assert_eq!(bits(&CpuTopK::new(1).run(&csr, &x, 2)), bits(&oracle));
}

#[test]
fn gpu_f32_matches_oracle_set() {
    let csr = matrix();
    let gpu = GpuModel::tesla_p100();
    for q in 0..5u64 {
        let x = query_vector(256, 50 + q);
        let mut oracle = exact_topk(&csr, x.as_slice(), 64).indices();
        let mut got = gpu
            .run(&csr, x.as_slice(), 64, GpuPrecision::F32)
            .topk
            .indices();
        oracle.sort_unstable();
        got.sort_unstable();
        // f32 vs f64 summation can swap near-equal boundary items; the
        // sets must agree in all but at most one position.
        let misses = got.iter().filter(|i| !oracle.contains(i)).count();
        assert!(misses <= 1, "query {q}: {misses} mismatches");
    }
}

#[test]
fn fpga_f32_single_partition_matches_gpu_f32() {
    // With one partition and k >= K, the FPGA F32 engine computes the
    // same f32 sums as the GPU functional model, in the same order
    // (both accumulate row-major, left to right).
    let csr = matrix();
    let acc = Accelerator::builder()
        .precision(Precision::Float32)
        .cores(1)
        .k(64)
        .build()
        .unwrap();
    let m = acc.load_matrix(&csr).unwrap();
    let gpu = GpuModel::tesla_p100();
    for q in 0..3u64 {
        let x = query_vector(256, 80 + q);
        let fpga = acc.query(&m, &x, 64).unwrap().topk;
        let gpu_run = gpu.run(&csr, x.as_slice(), 64, GpuPrecision::F32).topk;
        assert_eq!(fpga.indices(), gpu_run.indices(), "query {q}");
        for (a, b) in fpga.scores().iter().zip(gpu_run.scores()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}

#[test]
fn all_architectures_agree_on_top1() {
    // Whatever the arithmetic, the best match is unambiguous on
    // well-separated data.
    let csr = matrix();
    let x = query_vector(256, 123);
    let oracle_top1 = exact_topk(&csr, x.as_slice(), 1).indices()[0];
    let cpu = CpuTopK::new(4).run(&csr, x.as_slice(), 1).indices()[0];
    let gpu16 = GpuModel::tesla_p100()
        .run(&csr, x.as_slice(), 1, GpuPrecision::F16)
        .topk
        .indices()[0];
    let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
    let m = acc.load_matrix(&csr).unwrap();
    let fpga = acc.query(&m, &x, 1).unwrap().topk.indices()[0];
    assert_eq!(cpu, oracle_top1);
    assert_eq!(fpga, oracle_top1);
    assert_eq!(gpu16, oracle_top1);
}

#[test]
fn timing_sources_are_labelled_consistently() {
    // CPU times are measured; GPU/FPGA times are modelled. Sanity-check
    // the modelled numbers scale with matrix size while measured ones
    // stay positive.
    let small = SyntheticConfig {
        num_rows: 1000,
        num_cols: 256,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::Uniform,
        seed: 1,
    }
    .generate();
    let big = SyntheticConfig {
        num_rows: 8000,
        num_cols: 256,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::Uniform,
        seed: 1,
    }
    .generate();
    let x = query_vector(256, 2);

    let gpu = GpuModel::tesla_p100();
    let t_small = gpu.topk_seconds(
        small.nnz() as u64,
        small.num_rows() as u64,
        GpuPrecision::F32,
    );
    let t_big = gpu.topk_seconds(big.nnz() as u64, big.num_rows() as u64, GpuPrecision::F32);
    assert!(t_big > t_small);

    let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
    let pm_small = acc
        .query(&acc.load_matrix(&small).unwrap(), &x, 8)
        .unwrap()
        .perf
        .kernel_seconds;
    let pm_big = acc
        .query(&acc.load_matrix(&big).unwrap(), &x, 8)
        .unwrap()
        .perf
        .kernel_seconds;
    assert!(pm_big > pm_small * 4.0, "roughly linear in nnz");

    let measured = CpuTopK::new(2).run_timed(&small, x.as_slice(), 8).seconds;
    assert!(measured > 0.0);
}
