//! External data: export/import MatrixMarket files and run the
//! accelerator on them.
//!
//! Demonstrates the I/O path a downstream user takes to run on their
//! own embedding collection instead of the synthetic generators:
//! dense embeddings → sparsify → write `.mtx` → read back → validate →
//! query.
//!
//! Run with: `cargo run --release -p tkspmv_eval --example mtx_io`

use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::Accelerator;
use tkspmv_fixed::Q1_19;
use tkspmv_sparse::gen::{query_vector, sparsify_batch, Normal, Rng64};
use tkspmv_sparse::io::{read_mtx, write_mtx};
use tkspmv_sparse::{BsCsr, PacketLayout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pretend these came from a neural encoder: 5k dense embeddings.
    println!("generating 5k dense embeddings (dim 256)...");
    let mut rng = Rng64::new(99);
    let mut normal = Normal::new(0.0, 1.0);
    let dense: Vec<Vec<f32>> = (0..5_000)
        .map(|_| (0..256).map(|_| normal.sample(&mut rng) as f32).collect())
        .collect();

    // 2. Sparsify to 16 active coefficients per embedding.
    let collection = sparsify_batch(&dense, 16)?;
    println!(
        "sparsified: {} rows, {} nnz ({:.0}% of dense L2 energy kept)",
        collection.num_rows(),
        collection.nnz(),
        tkspmv_sparse::gen::energy_captured(&dense, 16) * 100.0
    );

    // 3. Export to MatrixMarket (what you would hand to other tools).
    let path = std::env::temp_dir().join("tkspmv_demo.mtx");
    let mut file = std::fs::File::create(&path)?;
    write_mtx(&mut file, &collection)?;
    println!("wrote {}", path.display());

    // 4. Re-import (what a user does with their own corpus).
    let reloaded = read_mtx(std::fs::File::open(&path)?)?;
    assert_eq!(reloaded, collection);
    println!("reloaded and verified byte-identical structure");

    // 5. Check the BS-CSR stream validates before 'uploading'.
    let layout = PacketLayout::solve(reloaded.num_cols(), 20)?;
    let bs = BsCsr::encode::<Q1_19>(&reloaded, layout);
    bs.validate().map_err(|e| format!("corrupt stream: {e}"))?;
    println!(
        "BS-CSR stream validates: {} packets, B = {}",
        bs.num_packets(),
        layout.entries_per_packet()
    );

    // 6. Search it.
    let acc = Accelerator::builder().cores(16).k(8).build()?;
    let matrix = acc.prepare(&reloaded)?;
    let queries = QueryBatch::new((0..3).map(|q| query_vector(256, 1000 + q)).collect())?;
    let results = acc.query_batch(&matrix, &queries, 10)?;
    for (q, out) in results.iter().enumerate() {
        println!(
            "query {q}: best rows {:?} ({:.3} ms modelled)",
            &out.topk.indices()[..3],
            out.perf.seconds * 1e3
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
