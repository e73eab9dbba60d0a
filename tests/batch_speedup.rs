//! Release-mode smoke guard for the matrix-major batch engine: one
//! B = 32 `query_batch` must be decisively faster than 32 sequential
//! `query` calls on a non-trivial stream. Not a benchmark — the
//! measurement is the perf ledger's `direct_b1` vs `direct_b32` — just
//! the cheapest assertion that the decode-once amortisation has not
//! regressed into a query-major loop.
//!
//! Ignored by default because wall-clock comparison is meaningless in
//! debug builds and on loaded machines; CI runs it explicitly with
//! `cargo test --release --test batch_speedup -- --ignored`.

use std::time::Instant;

use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

const B: usize = 32;
const DIM: usize = 1024;
const K: usize = 100;

#[test]
#[ignore = "wall-clock smoke check; run explicitly (CI does) in release mode"]
fn batched_32_beats_32_sequential_calls() {
    // Big enough that decode dominates dispatch, small enough to stay
    // a smoke test (~6k packets).
    let collection = SyntheticConfig {
        num_rows: 5_000,
        num_cols: DIM,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::table3_gamma(),
        seed: 7,
    }
    .generate();
    let backend: Box<dyn TopKBackend> = Box::new(
        Accelerator::builder()
            .cores(32)
            .k(8)
            .build()
            .expect("paper-style design builds"),
    );
    let prepared = backend.prepare(&collection).expect("prepare succeeds");
    let queries: Vec<_> = (0..B as u64).map(|s| query_vector(DIM, s)).collect();
    let batch = QueryBatch::new(queries.clone()).expect("non-empty batch");

    // Warm both paths (thread pools, lazy buffers) before timing.
    backend.query(&prepared, &queries[0], K).expect("warm");
    backend.query_batch(&prepared, &batch, K).expect("warm");

    let started = Instant::now();
    for x in &queries {
        backend.query(&prepared, x, K).expect("sequential query");
    }
    let sequential = started.elapsed();

    let started = Instant::now();
    let results = backend.query_batch(&prepared, &batch, K).expect("batched");
    let batched = started.elapsed();
    assert_eq!(results.len(), B);

    // The bench shows ~6x at B = 32; asserting a bare win (with a small
    // noise margin) keeps this robust on slow shared CI runners while
    // still catching any fallback to per-query decoding.
    assert!(
        batched.as_secs_f64() < sequential.as_secs_f64() * 0.8,
        "B={B} batch ({batched:?}) not faster than {B} sequential calls ({sequential:?})"
    );
}
