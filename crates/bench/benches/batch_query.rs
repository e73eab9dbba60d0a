//! Batched vs sequential query throughput through the `TopKBackend`
//! trait, swept over batch size — the acceptance bench for the
//! matrix-major (decode-once) batch engine.
//!
//! For each B in the sweep, `sequential/B` issues B single `query`
//! calls and `batched/B` answers the same B queries with one
//! `query_batch` call. The batched path decodes each BS-CSR packet of
//! the resident partitions **once** and accumulates it into all B query
//! trackers before advancing, so its per-query cost falls as B grows
//! while the sequential path pays the full decode every time. Results
//! are bit-identical — only the host-side walltime differs.
//!
//! The collection is the ≥1M-nnz packet stream `engine.rs`'s
//! `large_matrix` also uses; the ledger's `direct_b1` / `direct_b32`
//! workloads (`benchmark/`) report the same comparison end to end.

// The criterion_group! macro expands to an undocumented function;
// bench binaries need no per-item docs.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_sparse::gen::{NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

const DIM: usize = 1024;
const K: usize = 100;
const SWEEP: [usize; 5] = [1, 4, 8, 16, 32];

/// A ≥1M-nnz collection: the steady-state packet-stream workload.
fn collection() -> Csr {
    SyntheticConfig {
        num_rows: 52_000,
        num_cols: DIM,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::table3_gamma(),
        seed: 7,
    }
    .generate()
}

fn batch_sweep(c: &mut Criterion) {
    let csr = collection();
    assert!(csr.nnz() >= 1_000_000, "bench collection must be >= 1M nnz");
    let acc = Accelerator::builder()
        .cores(32)
        .k(8)
        .build()
        .expect("builds");
    let backend: &dyn TopKBackend = &acc;
    let prepared = backend.prepare(&csr).expect("prepares");

    let mut group = c.benchmark_group("batch_query");
    for b_size in SWEEP {
        let batch = QueryBatch::random(b_size, DIM, 7);
        group.throughput(Throughput::Elements(b_size as u64));
        group.bench_function(format!("sequential/{b_size}"), |b| {
            b.iter(|| {
                batch
                    .iter()
                    .map(|x| backend.query(&prepared, x, K).expect("query").topk.len())
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("batched/{b_size}"), |b| {
            b.iter(|| {
                backend
                    .query_batch(&prepared, &batch, K)
                    .expect("batch")
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, batch_sweep);
criterion_main!(benches);
