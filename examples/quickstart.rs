//! Quickstart: run the same Top-100 similarity workload on every engine
//! in the workspace — the paper's 20-bit FPGA design, the CPU baseline,
//! and the modelled GPU — through the one `TopKBackend` interface, then
//! batch 16 queries on the accelerator.
//!
//! Run with: `cargo run --release -p tkspmv_eval --example quickstart`

use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_baselines::cpu::{exact_topk, CpuTopK};
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An embedding collection: 100k sparse embeddings of dimension
    //    512 with ~20 non-zeros each (a 1/100-scale Table III matrix).
    println!("generating 100k x 512 sparse embedding collection...");
    let collection = SyntheticConfig {
        num_rows: 100_000,
        num_cols: 512,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::Uniform,
        seed: 42,
    }
    .generate();
    println!(
        "  {} rows, {} non-zeros ({:.1} avg/row)",
        collection.num_rows(),
        collection.nnz(),
        collection.row_stats().mean_nnz
    );

    // 2. Every engine behind the same trait: the paper's headline FPGA
    //    design (20-bit fixed point, 32 cores, k = 8), the measured CPU
    //    baseline, and the modelled Tesla P100.
    let backends: Vec<Box<dyn TopKBackend>> = vec![
        Box::new(
            Accelerator::builder()
                .precision(Precision::Fixed20)
                .cores(32)
                .k(8)
                .build()?,
        ),
        Box::new(CpuTopK::with_all_cores()),
        Box::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F16)),
    ];

    // 3. One query, every engine: prepare once, query, compare against
    //    the exact oracle. The loop never names an architecture.
    let query = query_vector(512, 7);
    let oracle = exact_topk(&collection, query.as_slice(), 100);
    println!("\ntop-100 query on every backend:");
    println!(
        "  {:<10} {:>12} {:>10} {:>12}",
        "backend", "time (ms)", "GNNZ/s", "vs oracle"
    );
    // Prepare is the one-time expensive step; keep every backend's
    // prepared matrix around for the rest of the session.
    let mut prepared_matrices = Vec::new();
    for backend in &backends {
        let prepared = backend.prepare(&collection)?;
        let result = backend.query(&prepared, &query, 100)?;
        let hits = result
            .topk
            .indices()
            .iter()
            .filter(|i| oracle.indices().contains(i))
            .count();
        println!(
            "  {:<10} {:>12.3} {:>10.1} {:>9}/100",
            backend.name(),
            result.perf.seconds * 1e3,
            result.perf.gnnz_per_sec(),
            hits
        );
        prepared_matrices.push(prepared);
    }

    // 4. Deployments answer many queries per collection. Batches keep
    //    each HBM channel's BS-CSR partition resident and quantise with
    //    one precision dispatch; results are identical to sequential
    //    calls, only cheaper to produce. The encode from step 3 is
    //    reused — nothing is prepared twice.
    let fpga = &backends[0];
    let prepared = &prepared_matrices[0];
    let batch = QueryBatch::random(16, 512, 1);
    let results = fpga.query_batch(prepared, &batch, 100)?;
    println!(
        "\nbatched on {}: {} queries answered",
        fpga.name(),
        results.len()
    );
    for (i, r) in results.iter().take(3).enumerate() {
        let (row, score) = r.topk.entries()[0];
        println!(
            "  query {i}: best row {row} (similarity {score:.4}), modelled {:.3} ms",
            r.perf.seconds * 1e3
        );
    }

    // 5. The accelerator's modelled execution detail is still there,
    //    behind the uniform stats.
    let detail = fpga.query(prepared, &query, 100)?;
    if let Some(report) = detail.stats.perf_report() {
        println!("\nmodelled FPGA execution:");
        println!("  kernel time     : {:.3} ms", report.kernel_seconds * 1e3);
        println!("  end-to-end      : {:.3} ms", report.seconds * 1e3);
        println!(
            "  HBM bandwidth   : {:.1} GB/s over {} channels",
            report.achieved_bandwidth() / 1e9,
            report.cores
        );
    }
    Ok(())
}
