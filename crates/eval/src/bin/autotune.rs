//! Adaptive precision selection (the paper's SVI future work):
//! pick the fastest numeric design that meets an accuracy target.

#![forbid(unsafe_code)]

use tkspmv_eval::autotune::{choose_precision, AccuracyTarget};
use tkspmv_eval::cli::{banner, Cli};
use tkspmv_eval::datasets::group_representatives;

fn main() {
    let cli = Cli::from_env();
    banner(
        "Adaptive precision autotuner",
        "DAC'21 SVI future work: reconfigure precision to guarantee accuracy targets",
        &cli,
    );
    let target = AccuracyTarget::strict();
    println!(
        "target: precision >= {}, NDCG >= {} at K = {}\n",
        target.min_precision, target.min_ndcg, target.k
    );
    for spec in group_representatives() {
        let csr = spec.generate(cli.config.scale_divisor);
        match choose_precision(
            &csr,
            target,
            4000.min(csr.num_rows()),
            cli.config.queries,
            cli.config.seed,
        ) {
            Ok(outcome) => {
                println!("{}:", spec.group.label());
                for (p, q, gnnz) in &outcome.candidates {
                    println!(
                        "  {:>4}: precision {:.3}, ndcg {:.3}, {:.1} GNNZ/s{}",
                        p.label(),
                        q.precision,
                        q.ndcg,
                        gnnz,
                        if *p == outcome.selected {
                            "  <- selected"
                        } else {
                            ""
                        }
                    );
                }
            }
            Err(e) => println!("{}: no design meets the target ({e})", spec.group.label()),
        }
        println!();
    }
}
