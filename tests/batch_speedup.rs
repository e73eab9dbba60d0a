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

use std::time::{Duration, Instant};

use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

const B: usize = 32;
const DIM: usize = 1024;
const K: usize = 100;
/// Alternating timed rounds a side; each side keeps its best.
const ROUNDS: usize = 5;

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

    // One timing a side lets host noise carry a working engine and a
    // per-query fallback into each other's range; the best of several
    // alternating rounds does not.
    let (mut sequential, mut batched) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        for x in &queries {
            backend.query(&prepared, x, K).expect("sequential query");
        }
        sequential = sequential.min(started.elapsed());

        let started = Instant::now();
        let results = backend.query_batch(&prepared, &batch, K).expect("batched");
        batched = batched.min(started.elapsed());
        assert_eq!(results.len(), B);
    }

    // Decode is paid once per batch and replay runs eight lanes per
    // decoded non-zero, so on a 2-vCPU x86-64-v3 host the best batch
    // took 0.33-0.43x the best sequential sweep, median 0.38 (14 runs).
    // A build whose `answer` decodes once per query read 0.72-1.06x,
    // median 0.98, on the same host (14 runs, alternating with the
    // engine's). 0.55 sits between the two ranges.
    assert!(
        batched.as_secs_f64() < sequential.as_secs_f64() * 0.55,
        "B={B} batch ({batched:?}) not faster than {B} sequential calls ({sequential:?})"
    );
}
