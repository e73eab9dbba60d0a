//! All four execution paths — exact oracle, CPU baseline, GPU model,
//! FPGA engine — must agree on what the Top-K *is* (up to arithmetic
//! noise), or no cross-architecture comparison is meaningful.

use tkspmv::{Accelerator, TimingSource, TopKBackend, TopKResult};
use tkspmv_baselines::cpu::{exact_topk, CpuTopK};
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::snapshot::{Snapshot, SnapshotPayload};
use tkspmv_sparse::{Csr, DenseVector};

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

fn p100(precision: GpuPrecision) -> GpuTopK {
    GpuTopK::new(GpuModel::tesla_p100(), precision)
}

/// One query through `backend` on a fresh preparation of `csr`.
fn top(backend: &dyn TopKBackend, csr: &Csr, x: &DenseVector, k: usize) -> TopKResult {
    let prepared = backend.prepare(csr).unwrap();
    backend.query(&prepared, x, k).unwrap().topk
}

/// `(row, score bits)`: equality that tells `-0.0` from `+0.0`.
fn bits(topk: &TopKResult) -> Vec<(u32, u64)> {
    topk.entries()
        .iter()
        .map(|&(row, score)| (row, score.to_bits()))
        .collect()
}

/// Columns the [`ragged`] tie query zeroes.
const ZEROED: std::ops::Range<u32> = 120..124;

/// Every row length from 0 to 40 and three rows longer than 64, with
/// pseudo-random values, then rows that tie under a query of ones with
/// [`ZEROED`] columns zeroed: `[1.0]`, `[0.5, 0.5]` and four `0.25`s
/// all sum to `1.0` across length groups (twice, in both row orders),
/// and rows of negative values on zeroed columns, whose products are
/// all `-0.0`, sum to `+0.0` beside empty rows.
fn ragged() -> Csr {
    let mut state = 0x2545_f491_u32;
    let mut value = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) as f32 / (1 << 23) as f32 - 1.0
    };
    let mut rows: Vec<Vec<(u32, f32)>> = (0..=40u32)
        .chain([65, 80, 119])
        .map(|len| (0..len).map(|j| ((j * 11 + len) % 119, value())).collect())
        .collect();
    let ones = [
        vec![(5, 1.0)],
        vec![(6, 0.5), (7, 0.5)],
        vec![(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)],
    ];
    rows.extend(ones.iter().cloned());
    rows.extend(ones.iter().rev().cloned());
    rows.extend([
        vec![(120, -0.5)],
        vec![],
        vec![(120, -0.5), (121, -0.25), (123, -1.0)],
        vec![],
    ]);
    let triplets: Vec<(u32, u32, f32)> = (0u32..)
        .zip(&rows)
        .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c, v)))
        .collect();
    Csr::from_triplets(rows.len(), 128, &triplets).expect("valid")
}

#[test]
fn cpu_matches_oracle_exactly() {
    let csr = matrix();
    let cpu = CpuTopK::with_all_cores();
    let prepared = cpu.prepare(&csr).unwrap();
    // Five embedding queries, then one whose every product is `-0.0`.
    let mut queries: Vec<DenseVector> = (0..5u64).map(|q| query_vector(256, q)).collect();
    queries.push(DenseVector::from_values(vec![-0.0; 256]));
    for (q, x) in queries.iter().enumerate() {
        let oracle = exact_topk(&csr, x.as_slice(), 64);
        let got = cpu.query(&prepared, x, 64).unwrap().topk;
        assert_eq!(bits(&got), bits(&oracle), "query {q}");
    }

    // Rows of every length, ties across length groups, at every thread
    // count and at cuts from one row to more than all of them.
    let csr = ragged();
    let rows = csr.num_rows();
    let mut ties = vec![1.0; 128];
    for c in ZEROED {
        ties[c as usize] = 0.0;
    }
    let mut queries: Vec<DenseVector> = (0..3u64).map(|q| query_vector(128, q)).collect();
    queries.push(DenseVector::from_values(ties));
    queries.push(DenseVector::from_values(vec![-0.0; 128]));
    for threads in 1..=4 {
        let cpu = CpuTopK::new(threads);
        let prepared = cpu.prepare(&csr).unwrap();
        for (q, x) in queries.iter().enumerate() {
            for k in [1, 100, rows, rows + 5] {
                let oracle = exact_topk(&csr, x.as_slice(), k);
                let got = cpu.query(&prepared, x, k).unwrap().topk;
                assert_eq!(
                    bits(&got),
                    bits(&oracle),
                    "{threads} threads, query {q}, k {k}"
                );
            }
        }
        // The prepared rows are stored by length; the snapshot is still
        // the source CSR's.
        let mut saved = Vec::new();
        prepared.save(&cpu, &mut saved).unwrap();
        let mut source = Vec::new();
        Snapshot {
            family: cpu.family(),
            num_rows: rows as u64,
            num_cols: 128,
            nnz: csr.nnz() as u64,
            payload: SnapshotPayload::Csr(csr.clone()),
            companion: None,
        }
        .write_to(&mut source)
        .unwrap();
        assert_eq!(saved, source, "{threads} threads");
    }
}

/// A row whose only product is `-0.0` scores `+0.0` on every exact
/// path, so it ties the `+0.0` row beside it and the tie breaks by row.
#[test]
fn signed_zero_products_tie_in_row_order() {
    let csr = Csr::from_triplets(2, 1, &[(0, 0, -0.5), (1, 0, 0.5)]).expect("valid");
    let x = DenseVector::from_values(vec![0.0]);
    let oracle = exact_topk(&csr, x.as_slice(), 2);
    let zero = 0.0f64.to_bits();
    assert_eq!(bits(&oracle), [(0, zero), (1, zero)]);
    assert_eq!(bits(&top(&CpuTopK::new(1), &csr, &x, 2)), bits(&oracle));
}

#[test]
fn gpu_f32_matches_oracle_set() {
    let csr = matrix();
    let gpu = p100(GpuPrecision::F32);
    let prepared = gpu.prepare(&csr).unwrap();
    for q in 0..5u64 {
        let x = query_vector(256, 50 + q);
        let mut oracle = exact_topk(&csr, x.as_slice(), 64).indices();
        let mut got = gpu.query(&prepared, &x, 64).unwrap().topk.indices();
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
    let m = acc.prepare(&csr).unwrap();
    let gpu = p100(GpuPrecision::F32);
    let gpu_m = gpu.prepare(&csr).unwrap();
    for q in 0..3u64 {
        let x = query_vector(256, 80 + q);
        let fpga = acc.query(&m, &x, 64).unwrap().topk;
        let gpu_run = gpu.query(&gpu_m, &x, 64).unwrap().topk;
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
    let cpu = top(&CpuTopK::new(4), &csr, &x, 1).indices()[0];
    let gpu16 = top(&p100(GpuPrecision::F16), &csr, &x, 1).indices()[0];
    let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
    let fpga = top(&acc, &csr, &x, 1).indices()[0];
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
    let kernel_seconds = |csr: &Csr| {
        let out = acc.query(&acc.prepare(csr).unwrap(), &x, 8).unwrap();
        out.perf.kernel_seconds
    };
    assert!(
        kernel_seconds(&big) > kernel_seconds(&small) * 4.0,
        "roughly linear in nnz"
    );

    let cpu = CpuTopK::new(2);
    let measured = cpu.query(&cpu.prepare(&small).unwrap(), &x, 8).unwrap();
    assert_eq!(measured.perf.timing, TimingSource::Measured);
    assert!(measured.perf.seconds > 0.0);
}
