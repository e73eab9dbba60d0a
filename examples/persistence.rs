//! Persistence & hot swap: pay the encode once, survive restarts, and
//! roll a grown collection under live traffic.
//!
//! ```sh
//! cargo run --release -p tkspmv_eval --example persistence
//! ```
//!
//! The walkthrough:
//! 1. prepare a collection on the accelerator and persist the *encoded*
//!    form (BS-CSR partitions) as a checksummed snapshot;
//! 2. "restart": load the snapshot — no layout solve, no encode — and
//!    show the answers are element-wise identical;
//! 3. cold-start a sharded serving stack straight from per-shard
//!    snapshots;
//! 4. hot-swap a grown collection into the running service: in-flight
//!    requests finish on their epoch, new ones see the new rows.

use std::sync::Arc;
use std::time::Instant;

use tkspmv::backend::{MatrixShard, PreparedMatrix, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

const DIM: usize = 512;

fn collection(rows: usize, seed: u64) -> Csr {
    SyntheticConfig {
        num_rows: rows,
        num_cols: DIM,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::table3_gamma(),
        seed,
    }
    .generate()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let backend: Arc<dyn TopKBackend> = Arc::new(Accelerator::builder().cores(8).k(16).build()?);
    let csr = collection(20_000, 11);

    // 1. The one-time cost today: encode + partition from raw CSR.
    let t = Instant::now();
    let prepared = backend.prepare(&csr)?;
    let prepare_ms = t.elapsed().as_secs_f64() * 1e3;

    let dir = std::env::temp_dir();
    let path = dir.join("tkspmv-example-collection.tksnap");
    prepared.save_to_path(backend.as_ref(), &path)?;
    println!(
        "prepared {} rows in {prepare_ms:.1} ms; snapshot at {}",
        prepared.num_rows(),
        path.display()
    );

    // 2. A restarted process loads instead of re-preparing.
    let t = Instant::now();
    let loaded = PreparedMatrix::load_from_path(backend.as_ref(), &path)?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let x = query_vector(DIM, 3);
    let fresh = backend.query(&prepared, &x, 10)?;
    let restored = backend.query(&loaded, &x, 10)?;
    assert_eq!(fresh.topk, restored.topk);
    println!("loaded it back in {load_ms:.1} ms — identical answers, encode skipped");

    // 3. Cold-start a sharded service from per-shard snapshots.
    let shard_paths: Vec<_> = PreparedMatrix::prepare_row_shards(backend.as_ref(), &csr, 2)?
        .into_iter()
        .map(|shard| {
            let path = dir.join(format!("tkspmv-example-shard-{}.tksnap", shard.start_row()));
            shard.matrix().save_to_path(backend.as_ref(), &path)?;
            Ok::<_, Box<dyn std::error::Error>>((shard.start_row(), path))
        })
        .collect::<Result<_, _>>()?;
    let shards: Vec<MatrixShard> = shard_paths
        .iter()
        .map(|(start_row, path)| {
            let matrix = PreparedMatrix::load_from_path(backend.as_ref(), path)?;
            Ok::<_, Box<dyn std::error::Error>>(MatrixShard::new(*start_row, matrix))
        })
        .collect::<Result<_, _>>()?;
    let service = TopKService::builder(Arc::clone(&backend))
        .batch_policy(BatchPolicy::default())
        .build_from_shards(shards)?;
    println!(
        "service cold-started from snapshots: {} shards, {} rows, epoch {}",
        service.num_shards(),
        service.num_rows(),
        service.epoch()
    );
    let answer = service.query(query_vector(DIM, 5), 10)?;
    println!("served a query: top row {}", answer.topk.indices()[0]);

    // 4. The collection grew; roll it in without stopping the service.
    let grown = collection(30_000, 12);
    let epoch = service.swap_collection(&grown)?;
    println!(
        "hot-swapped to {} rows (epoch {epoch}); the service never restarted",
        service.num_rows()
    );
    let answer = service.query(query_vector(DIM, 6), 10)?;
    println!(
        "post-swap query answered: top row {}",
        answer.topk.indices()[0]
    );

    let metrics = service.shutdown();
    println!(
        "served {} requests across {} epoch(s), {} swap(s)",
        metrics.served,
        metrics.epoch + 1,
        metrics.swaps
    );

    let _ = std::fs::remove_file(&path);
    for (_, path) in shard_paths {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}
