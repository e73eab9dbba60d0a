//! Recommender-system scenario: trade accuracy for speed with reduced
//! precision and partitioning.
//!
//! An item catalogue is stored as sparse embeddings; for each user we
//! retrieve the K most similar items. The example sweeps the paper's
//! four numeric designs and several partition counts, reporting the
//! Precision/τ/NDCG cost of each speed-up lever — the practical
//! decision a deployment has to make (§V-D).
//!
//! Run with: `cargo run --release -p tkspmv_eval --example recommender`

use tkspmv::approx::expected_precision;
use tkspmv::backend::TopKBackend;
use tkspmv::Accelerator;
use tkspmv_baselines::cpu::exact_topk;
use tkspmv_eval::metrics::RankingQuality;
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building item catalogue (80k items, dim 1024, skewed density)...");
    let catalogue = SyntheticConfig {
        num_rows: 80_000,
        num_cols: 1024,
        avg_nnz_per_row: 40,
        distribution: NnzDistribution::table3_gamma(),
        seed: 7,
    }
    .generate();

    let k = 50;
    let users: Vec<_> = (0..5u64).map(|u| query_vector(1024, 500 + u)).collect();

    println!("\n1) numeric precision sweep (32 cores, K = {k}):\n");
    println!("   design | Precision | Kendall tau | NDCG   | modelled ms | GNNZ/s");
    for precision in Precision::FPGA_DESIGNS {
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(32)
            .k(8)
            .build()?;
        let matrix = acc.prepare(&catalogue)?;
        let mut quality = Vec::new();
        let mut ms = 0.0;
        let mut gnnz = 0.0;
        for user in &users {
            let truth = exact_topk(&catalogue, user.as_slice(), k);
            let out = acc.query(&matrix, user, k)?;
            quality.push(RankingQuality::score(&out.topk.indices(), truth.entries()));
            ms += out.perf.kernel_seconds * 1e3 / users.len() as f64;
            gnnz += out.perf.gnnz_per_sec() / users.len() as f64;
        }
        let q = RankingQuality::mean(&quality);
        println!(
            "   {:>6} |   {:.3}   |    {:.3}    | {:.3}  |   {:.4}    | {:.1}",
            precision.label(),
            q.precision,
            q.kendall_tau,
            q.ndcg,
            ms,
            gnnz
        );
    }

    // k·c must cover K = 50, so the sweep starts at 8 cores.
    println!("\n2) partition count sweep (20-bit design, k = 8 per core):\n");
    println!("   cores | measured Precision@{k} | closed-form E[P]");
    for cores in [8u32, 12, 16, 24, 32] {
        let acc = Accelerator::builder()
            .precision(Precision::Fixed20)
            .cores(cores)
            .k(8)
            .build()?;
        let matrix = acc.prepare(&catalogue)?;
        let mut precision_sum = 0.0;
        for user in &users {
            let truth = exact_topk(&catalogue, user.as_slice(), k);
            let out = acc.query(&matrix, user, k)?;
            precision_sum += RankingQuality::score(&out.topk.indices(), truth.entries()).precision;
        }
        let analytic = expected_precision(catalogue.num_rows() as u64, cores as u64, 8, k as u64);
        println!(
            "   {cores:>5} |        {:.3}          |      {:.3}",
            precision_sum / users.len() as f64,
            analytic
        );
    }

    println!("\nreading: 20-bit + 32 cores keeps precision near 1.0 while");
    println!("maximising throughput — the paper's recommended operating point.");
    Ok(())
}
