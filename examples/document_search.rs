//! Document similarity search — the Information Retrieval scenario
//! motivating the paper.
//!
//! A corpus of documents is stored as sparse embeddings (GloVe-like,
//! sparsified with dictionary learning in the paper). An incoming query
//! embedding must be matched against the whole corpus within a
//! real-time budget. This example compares the accelerator against the
//! CPU baseline and the GPU model on the same corpus, verifies that
//! approximation does not disturb the best-ranked documents, and then
//! turns on the staged two-phase fast lane: an 8-bit prune pass
//! shortlists `c·k` candidate documents and only those are rescored at
//! full precision.
//!
//! Run with: `cargo run --release -p tkspmv_eval --example document_search`

use std::sync::Arc;
use std::time::Instant;

use tkspmv::backend::TopKBackend;
use tkspmv::{Accelerator, PrunedBackend};
use tkspmv_baselines::cpu::{exact_topk, CpuTopK};
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::{Precision, PruneBits};
use tkspmv_sparse::gen::{glove_like, query_vector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building GloVe-like document corpus (50k docs, dim 512)...");
    let corpus = glove_like(50_000, 2024);
    let stats = corpus.row_stats();
    println!(
        "  {} docs, {:.1} avg terms/doc, densities {}..{}",
        corpus.num_rows(),
        stats.mean_nnz,
        stats.min_nnz,
        stats.max_nnz
    );

    let accelerator = Accelerator::builder()
        .precision(Precision::Fixed20)
        .cores(32)
        .k(8)
        .build()?;
    let matrix = accelerator.prepare(&corpus)?;
    let cpu = CpuTopK::with_all_cores();
    let cpu_matrix = cpu.prepare(&corpus)?;
    let gpu = GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F16);
    let gpu_matrix = gpu.prepare(&corpus)?;

    let k = 10;
    println!("\nsearching top-{k} similar documents for 3 queries:\n");
    for q in 0..3u64 {
        let query = query_vector(512, 100 + q);

        // FPGA (modelled time, bit-exact ranking).
        let fpga = accelerator.query(&matrix, &query, k)?;
        // CPU baseline (measured wall clock).
        let cpu_out = cpu.query(&cpu_matrix, &query, k)?;
        // GPU F16 model.
        let gpu_out = gpu.query(&gpu_matrix, &query, k)?;
        // Exact oracle.
        let oracle = exact_topk(&corpus, query.as_slice(), k);

        let agree = |got: &[u32]| {
            got.iter()
                .zip(oracle.indices())
                .filter(|(a, b)| *a == b)
                .count()
        };
        println!("query {q}:");
        println!(
            "  FPGA 20b : docs {:?}  (rank-exact vs oracle: {}/{k})",
            &fpga.topk.indices()[..5.min(k)],
            agree(&fpga.topk.indices())
        );
        println!(
            "  GPU F16  : docs {:?}  (rank-exact vs oracle: {}/{k})",
            &gpu_out.topk.indices()[..5.min(k)],
            agree(&gpu_out.topk.indices())
        );
        println!(
            "  latency  : FPGA {:.3} ms (modelled) | CPU {:.3} ms (measured) | GPU {:.3} ms (modelled)",
            fpga.perf.seconds * 1e3,
            cpu_out.perf.seconds * 1e3,
            gpu_out.perf.seconds * 1e3
        );
        println!();
    }

    println!("the approximation never affects the best-ranked documents:");
    println!("each core always returns its exact local top-k, so the global");
    println!("top-1 .. top-k of any single partition are preserved verbatim.");

    // The staged fast lane: wrap the exact CPU baseline in an 8-bit
    // prune pass that shortlists c*k documents, then rescores only
    // those at full precision. Same trait, same answers where it
    // matters — the shortlist cut is the only approximation.
    println!("\ntwo-phase fast lane (8-bit prune, c = 4 shortlist, exact rescore):\n");
    let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::with_all_cores());
    let staged = PrunedBackend::new(Arc::clone(&exact), PruneBits::Eight, 4)?;
    let exact_prepared = exact.prepare(&corpus)?;
    let staged_prepared = staged.prepare(&corpus)?;
    for q in 0..3u64 {
        let query = query_vector(512, 100 + q);
        let started = Instant::now();
        let full = exact.query(&exact_prepared, &query, k)?;
        let exact_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let pruned = staged.query(&staged_prepared, &query, k)?;
        let pruned_ms = started.elapsed().as_secs_f64() * 1e3;
        let hits = pruned
            .topk
            .indices()
            .iter()
            .zip(full.topk.indices())
            .filter(|(a, b)| *a == b)
            .count();
        println!(
            "query {q}: exact {exact_ms:.3} ms | pruned {pruned_ms:.3} ms \
             ({:.1}x, rank-exact {hits}/{k})",
            exact_ms / pruned_ms
        );
    }
    Ok(())
}
