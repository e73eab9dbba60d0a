//! Per-node server binary: one shard of the fleet behind a TCP port.
//!
//! Generates (or will later load) its row range of the collection,
//! builds the serving stack — exact CPU engine, optionally wrapped in
//! the staged prune pipeline so `--tier pruned` queries work — and
//! serves the fabric wire protocol until a client sends `Shutdown`.
//!
//! ```text
//! tkspmv_node --listen 127.0.0.1:7701 --rows 25000 --start-row 25000 \
//!             --dim 1024 --nnz 12 --seed 42 --prune-bits 4
//! ```
//!
//! With `--listen :0` the bound port is printed on the first stdout
//! line (`listening on 127.0.0.1:PORT`) for harnesses to scrape.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tkspmv::backend::TopKBackend;
use tkspmv::PrunedBackend;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{Compactor, DeltaCollection, NodeServer};
use tkspmv_fixed::PruneBits;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{NnzDistribution, SyntheticConfig};

struct Args {
    listen: String,
    rows: usize,
    dim: usize,
    nnz: usize,
    seed: u64,
    start_row: usize,
    shards: usize,
    threads: usize,
    max_wait_us: u64,
    max_batch: usize,
    queue_capacity: usize,
    prune_bits: u32,
    shortlist_factor: usize,
    compact_interval_ms: u64,
    compact_min_rows: usize,
    metrics_listen: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            rows: 25_000,
            dim: 1_024,
            nnz: 12,
            seed: 42,
            start_row: 0,
            shards: 1,
            threads: 1,
            max_wait_us: 500,
            max_batch: 32,
            queue_capacity: 1024,
            prune_bits: 4,
            shortlist_factor: 8,
            compact_interval_ms: 0,
            compact_min_rows: 256,
            metrics_listen: None,
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--rows" => args.rows = parse(&value("--rows")?)?,
            "--dim" => args.dim = parse(&value("--dim")?)?,
            "--nnz" => args.nnz = parse(&value("--nnz")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--start-row" => args.start_row = parse(&value("--start-row")?)?,
            "--shards" => args.shards = parse(&value("--shards")?)?,
            "--threads" => args.threads = parse(&value("--threads")?)?,
            "--max-wait-us" => args.max_wait_us = parse(&value("--max-wait-us")?)?,
            "--max-batch" => args.max_batch = parse(&value("--max-batch")?)?,
            "--queue-capacity" => args.queue_capacity = parse(&value("--queue-capacity")?)?,
            "--prune-bits" => args.prune_bits = parse(&value("--prune-bits")?)?,
            "--shortlist-factor" => args.shortlist_factor = parse(&value("--shortlist-factor")?)?,
            "--compact-interval-ms" => {
                args.compact_interval_ms = parse(&value("--compact-interval-ms")?)?
            }
            "--compact-min-rows" => args.compact_min_rows = parse(&value("--compact-min-rows")?)?,
            "--metrics-listen" => args.metrics_listen = Some(value("--metrics-listen")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (see --help)")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

const USAGE: &str = "tkspmv_node: one fabric shard behind a TCP port

  --listen ADDR          bind address (default 127.0.0.1:0; port printed)
  --rows N               rows in this node's range (default 25000)
  --dim N                embedding dimension (default 1024)
  --nnz N                average nnz per row (default 12)
  --seed N               collection seed (default 42)
  --start-row N          global id of this node's row 0 (default 0)
  --shards N             service shards within the node (default 1)
  --threads N            engine threads (default 1; a count above the
                         host's available parallelism runs as that many)
  --max-wait-us N        micro-batcher max wait (default 500)
  --max-batch N          micro-batcher max batch size (default 32)
  --queue-capacity N     bounded submit queue (default 1024)
  --prune-bits {0|4|8}   0 = exact only; 4/8 enable the pruned tier (default 4)
  --shortlist-factor N   default prune shortlist factor c (default 8)
  --compact-interval-ms  background compactor poll; 0 disables (default 0)
  --compact-min-rows N   delta rows before a background fold (default 256)
  --metrics-listen ADDR  serve Prometheus /metrics on ADDR (off by default;
                         the bound address is printed for harnesses)";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tkspmv_node: {e}");
            return ExitCode::FAILURE;
        }
    };
    let csr = SyntheticConfig {
        num_rows: args.rows,
        num_cols: args.dim,
        avg_nnz_per_row: args.nnz,
        distribution: NnzDistribution::table3_gamma(),
        seed: args.seed,
    }
    .generate();

    let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(args.threads));
    let backend: Arc<dyn TopKBackend> = match args.prune_bits {
        0 => exact,
        bits => {
            let bits = match bits {
                4 => PruneBits::Four,
                8 => PruneBits::Eight,
                other => {
                    eprintln!("tkspmv_node: --prune-bits must be 0, 4, or 8 (got {other})");
                    return ExitCode::FAILURE;
                }
            };
            let pruned = PrunedBackend::new(exact, bits, args.shortlist_factor)
                .and_then(|p| p.with_threads(args.threads));
            match pruned {
                Ok(p) => Arc::new(p),
                Err(e) => {
                    eprintln!("tkspmv_node: prune pipeline: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let policy = if args.max_batch <= 1 {
        BatchPolicy::immediate()
    } else {
        BatchPolicy::coalescing(args.max_batch, Duration::from_micros(args.max_wait_us))
    };
    let service = match TopKService::builder(backend)
        .shards(args.shards)
        .batch_policy(policy)
        .queue_capacity(args.queue_capacity)
        .build(&csr)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tkspmv_node: service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let collection = Arc::new(DeltaCollection::new(service, csr, args.start_row));
    let compactor = (args.compact_interval_ms > 0).then(|| {
        Compactor::spawn(
            Arc::clone(&collection),
            Duration::from_millis(args.compact_interval_ms),
            args.compact_min_rows,
        )
    });

    let server = match &args.metrics_listen {
        Some(metrics) => NodeServer::spawn_with_metrics(collection, &args.listen, metrics),
        None => NodeServer::spawn(collection, &args.listen),
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tkspmv_node: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on {addr}");
    }
    eprintln!(
        "tkspmv_node: rows {}..{} dim {} seed {} prune-bits {}",
        args.start_row,
        args.start_row + args.rows,
        args.dim,
        args.seed,
        args.prune_bits
    );

    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    if let Some(c) = compactor {
        let stats = c.shutdown();
        eprintln!(
            "tkspmv_node: compactor folded {} rows over {} runs ({} failures)",
            stats.rows_folded, stats.compactions, stats.failures
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_flags(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        let err = parse_flags(&["--threads", "0"]).err();
        assert_eq!(err.as_deref(), Some("--threads must be at least 1"));
        assert_eq!(parse_flags(&["--threads", "2"]).map(|a| a.threads), Ok(2));
    }
}
