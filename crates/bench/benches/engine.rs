//! Emulator core throughput per precision — how fast the software
//! model chews through packets (not the FPGA's modelled speed).

// The criterion_group! macro expands to an undocumented function;
// bench binaries need no per-item docs.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tkspmv::{quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity};
use tkspmv_fixed::{F32, Q1_19, Q1_31};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{BsCsr, Csr, PacketLayout};

fn matrix() -> Csr {
    SyntheticConfig {
        num_rows: 20_000,
        num_cols: 1024,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::table3_gamma(),
        seed: 2,
    }
    .generate()
}

/// A ≥1M-nnz collection: the steady-state packet-stream workload whose
/// throughput the zero-allocation hot path is measured on.
fn large_matrix() -> Csr {
    SyntheticConfig {
        num_rows: 52_000,
        num_cols: 1024,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::table3_gamma(),
        seed: 7,
    }
    .generate()
}

fn bench_core(c: &mut Criterion) {
    let csr = matrix();
    let x = query_vector(1024, 3);
    let mut group = c.benchmark_group("engine_core");
    group.throughput(Throughput::Elements(csr.nnz() as u64));

    let bs20 = BsCsr::encode::<Q1_19>(&csr, PacketLayout::solve(1024, 20).unwrap());
    let x20 = quantize_vector::<Q1_19>(x.as_slice());
    group.bench_with_input(BenchmarkId::new("fixed", 20), &(), |b, ()| {
        let mut scratch = BatchScratch::<Q1_19>::new();
        b.iter(|| {
            run_core_batch_with_scratch(&bs20, &[&x20], 8, Fidelity::Reference, &mut scratch).len()
        });
    });

    let bs32 = BsCsr::encode::<Q1_31>(&csr, PacketLayout::solve(1024, 32).unwrap());
    let x32 = quantize_vector::<Q1_31>(x.as_slice());
    group.bench_with_input(BenchmarkId::new("fixed", 32), &(), |b, ()| {
        let mut scratch = BatchScratch::<Q1_31>::new();
        b.iter(|| {
            run_core_batch_with_scratch(&bs32, &[&x32], 8, Fidelity::Reference, &mut scratch).len()
        });
    });

    let bsf = BsCsr::encode::<F32>(&csr, PacketLayout::solve(1024, 32).unwrap());
    let xf = quantize_vector::<F32>(x.as_slice());
    group.bench_with_input(BenchmarkId::new("float", 32), &(), |b, ()| {
        let mut scratch = BatchScratch::<F32>::new();
        b.iter(|| {
            run_core_batch_with_scratch(&bsf, &[&xf], 8, Fidelity::Reference, &mut scratch).len()
        });
    });
    group.finish();
}

/// Packet-stream throughput over a ≥1M-nnz matrix at the paper's small-k
/// operating points: one query (a one-lane batch) through one warm
/// scratch, the per-core steady state.
fn bench_packet_stream(c: &mut Criterion) {
    let csr = large_matrix();
    assert!(csr.nnz() >= 1_000_000, "bench matrix must be >= 1M nnz");
    let x = query_vector(1024, 11);
    let bs = BsCsr::encode::<Q1_19>(&csr, PacketLayout::solve(1024, 20).unwrap());
    let xq = quantize_vector::<Q1_19>(x.as_slice());

    let mut group = c.benchmark_group("packet_stream");
    group.throughput(Throughput::Elements(csr.nnz() as u64));
    for k in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("fixed20", k), &k, |b, &k| {
            let mut scratch = BatchScratch::<Q1_19>::new();
            b.iter(|| {
                run_core_batch_with_scratch(&bs, &[&xq], k, Fidelity::Reference, &mut scratch).len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_core, bench_packet_stream);
criterion_main!(benches);
