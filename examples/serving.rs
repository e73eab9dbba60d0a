//! Online serving: the paper's accelerator behind a sharded,
//! micro-batching `TopKService`, under concurrent client traffic.
//!
//! Eight closed-loop clients fire similarity queries at a 2-shard
//! service; the batcher coalesces their concurrent requests into
//! backend batches and runs each against both resident prepared
//! partitions at once, and per-shard Top-K lists are merged into global
//! answers. The final metrics snapshot shows the coalescing at work.
//! The example exits non-zero unless every query was served and the
//! concurrent clients shared batches (a mean batch size above one).
//!
//! Run with: `cargo run --release -p tkspmv_eval --example serving`

use std::sync::Arc;
use std::time::Duration;

use tkspmv::Accelerator;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

const DIM: usize = 256;
const K: usize = 20;
const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 25;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating a 20k x {DIM} sparse embedding collection...");
    let collection = SyntheticConfig {
        num_rows: 20_000,
        num_cols: DIM,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::Uniform,
        seed: 42,
    }
    .generate();

    // The paper's accelerator (8 cores, k = 16 per core) serves the
    // traffic; any TopKBackend drops in the same way.
    let backend = Arc::new(Accelerator::builder().cores(8).k(16).build()?);
    let service = TopKService::builder(backend)
        .shards(2)
        .batch_policy(BatchPolicy::coalescing(32, Duration::from_millis(2)))
        .queue_capacity(256)
        .build(&collection)?;
    println!(
        "service up: {} rows in {} shards, dim {}",
        service.num_rows(),
        service.num_shards(),
        service.dim()
    );

    println!("running {CLIENTS} closed-loop clients x {QUERIES_PER_CLIENT} queries...");
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            scope.spawn(move || {
                for q in 0..QUERIES_PER_CLIENT {
                    let x = query_vector(DIM, (client * 1000 + q) as u64);
                    let served = service.query(x, K).expect("served");
                    assert_eq!(served.topk.len(), K);
                }
            });
        }
    });

    // One example answer, then the service's own account of the run.
    let sample = service.query(query_vector(DIM, 7), 5)?;
    println!("sample top-5 rows for query 7: {:?}", sample.topk.indices());

    let m = service.shutdown();
    println!("--- service metrics ---");
    println!(
        "served: {} | shed: {} | failed: {}",
        m.served, m.shed, m.failed
    );
    println!(
        "latency p50/p95/p99: {:.2?} / {:.2?} / {:.2?}",
        m.latency_p50, m.latency_p95, m.latency_p99
    );
    println!(
        "batches: {} (mean size {:.1}) | histogram: {:?}",
        m.batches, m.mean_batch_size, m.batch_size_histogram
    );
    println!(
        "throughput: {:.0} queries/s over {:.2?}",
        m.throughput_qps, m.uptime
    );
    // The clients' queries plus the sample query, all answered.
    let expected = (CLIENTS * QUERIES_PER_CLIENT + 1) as u64;
    if m.failed != 0 || m.served != expected {
        return Err(format!("served {} of {expected}, {} failed", m.served, m.failed).into());
    }
    // Eight concurrent closed-loop clients must share batches: requests
    // that arrive while a batch runs ride the next one.
    if m.mean_batch_size <= 1.0 {
        return Err(format!(
            "{CLIENTS} concurrent clients never shared a batch (mean size {:.2})",
            m.mean_batch_size
        )
        .into());
    }
    Ok(())
}
