//! A three-node cluster in one process: the distributed shard fabric
//! end to end — per-node servers behind real TCP ports, the fan-out
//! router merging their answers, streaming ingest into the tail node's
//! delta shard, and a compaction that epoch-swaps the fold in without
//! changing a single answer.
//!
//! This is the process-level picture of the paper's architecture: each
//! node plays one HBM channel group (a row partition with its own Top-K
//! unit), the router plays the merge network, and — beyond the paper —
//! the delta shard turns the static collection into a streaming one.
//!
//! The whole fleet is observable while it runs: every node exposes a
//! Prometheus `/metrics` endpoint, the router exposes `/metrics` plus a
//! `/traces` JSON dump of its slowest assembled trace trees, and the
//! example scrapes all of them the way a collector would.
//!
//! Run with: `cargo run --release -p tkspmv_eval --example cluster`

use std::sync::Arc;
use std::time::Duration;

use tkspmv::backend::QueryTier;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{DeltaCollection, NodeServer, Router, RouterConfig, ShardSpec};
use tkspmv_obs::{http_get, validate_exposition};
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

const NODES: usize = 3;
const ROWS: usize = 30_000;
const DIM: usize = 512;
const K: usize = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating a {ROWS} x {DIM} collection and splitting it {NODES} ways...");
    let collection = SyntheticConfig {
        num_rows: ROWS,
        num_cols: DIM,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::table3_gamma(),
        seed: 42,
    }
    .generate();

    // One node per row partition: engine + micro-batcher + delta shard
    // behind a real TCP port. In production these are `tkspmv_node`
    // processes on separate hosts; in-process servers are wire-for-wire
    // identical.
    let mut nodes = Vec::new();
    let mut specs = Vec::new();
    for (first_row, shard) in collection.partition_rows(NODES) {
        let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
            .batch_policy(BatchPolicy::coalescing(32, Duration::from_micros(500)))
            .build(&shard)?;
        // Each node also binds a Prometheus scrape endpoint.
        let node = NodeServer::spawn_with_metrics(
            Arc::new(DeltaCollection::new(service, shard, first_row)),
            "127.0.0.1:0",
            "127.0.0.1:0",
        )?;
        println!(
            "  node {} serving rows {}..{} on {} (metrics on {})",
            specs.len(),
            first_row,
            first_row + node.collection().base_rows(),
            node.local_addr(),
            node.metrics_addr().expect("metrics endpoint bound"),
        );
        specs.push(ShardSpec::single(node.local_addr().to_string()));
        nodes.push(node);
    }

    // The router validates the fleet at connect: equal dims, contiguous
    // row ranges, and a deadline that clears every node's batcher
    // max_wait (the most a query can wait for company, and only after a
    // batch that had company) plus the headroom.
    let router = Router::connect(
        specs,
        RouterConfig {
            deadline: Duration::from_secs(2),
            headroom: Duration::from_millis(100),
            trace: true, // assemble a span tree per routed query
            ..RouterConfig::default()
        },
    )?;
    let endpoint = router.serve_metrics("127.0.0.1:0")?;
    println!(
        "router up: {} shards, {} rows, dim {} (metrics on {})",
        router.num_shards(),
        router.total_rows(),
        router.dim(),
        endpoint.addr(),
    );

    // Fan out a query: every node answers its partition, the router
    // merges under the engine total order.
    let x = query_vector(DIM, 7);
    let routed = router.query(x.as_slice(), K, QueryTier::Exact)?;
    println!(
        "top-{K} for query 7 (coverage {}/{}): {:?}",
        routed.coverage.answered(),
        routed.coverage.shards(),
        routed.topk.indices()
    );

    // Streaming ingest: append a row through the router. It lands in
    // the tail node's delta shard and is queryable on return — no
    // re-encode, no epoch swap, no downtime.
    let hot_row: (Vec<u32>, Vec<f32>) = (
        x.as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0.0)
            .map(|(c, _)| c as u32)
            .collect(),
        x.as_slice()
            .iter()
            .filter(|&&v| v > 0.0)
            .map(|&v| v * 10.0)
            .collect(),
    );
    let ids = router.append(std::slice::from_ref(&hot_row))?;
    let id = ids[0];
    println!("appended a deliberately similar row, assigned global id {id}");

    let routed = router.query(x.as_slice(), K, QueryTier::Exact)?;
    assert_eq!(
        routed.topk.entries()[0].0,
        id,
        "the freshly appended row must already rank first"
    );
    println!(
        "it already ranks first, served from the delta shard: {:?}",
        routed.topk.entries()[0]
    );
    let before = routed.topk.clone();

    // Compaction folds the delta into a re-encoded base and epoch-swaps
    // it in. Ids are stable, scores bit-identical — the fold preserves
    // each row's exact arithmetic.
    let per_shard = router.compact_all()?;
    let folded: u64 = per_shard.iter().map(|&(_, n)| n).sum();
    println!("compacted: {folded} delta row(s) folded, per-shard epochs {per_shard:?}");

    let routed = router.query(x.as_slice(), K, QueryTier::Exact)?;
    assert_eq!(
        routed.topk, before,
        "compaction must not change a single answer"
    );
    println!("post-compaction answers are bit-identical; row {id} now lives in the base");

    // Observability: scrape the fleet the way a Prometheus collector
    // would, and validate every body against the exposition format.
    let scrape_deadline = Duration::from_secs(5);
    for (i, node) in nodes.iter().enumerate() {
        let addr = node.metrics_addr().expect("metrics endpoint bound");
        let body = http_get(addr, "/metrics", scrape_deadline)?;
        let series = validate_exposition(&body).map_err(|e| format!("node {i} scrape: {e}"))?;
        let served = body
            .lines()
            .find(|l| l.starts_with("tkspmv_serve_requests_total{outcome=\"served\"}"))
            .unwrap_or("tkspmv_serve_requests_total{outcome=\"served\"} 0");
        println!("scraped node {i}: {} series valid; {served}", series.len());
    }
    let body = http_get(endpoint.addr(), "/metrics", scrape_deadline)?;
    let series = validate_exposition(&body).map_err(|e| format!("router scrape: {e}"))?;
    println!(
        "scraped router: {} series valid; degradation counters all rendered",
        series.len()
    );

    // The router kept a span tree for every routed query above; the
    // /traces endpoint dumps the slowest ones as JSON (the same feed
    // the `tkspmv_trace` binary pretty-prints).
    let traces = http_get(endpoint.addr(), "/traces", scrape_deadline)?;
    let slowest = router.slowest_traces(1);
    let trace = slowest.first().expect("traced queries recorded");
    println!(
        "slowest of {} recorded traces: id {} took {}us across {} shard spans ({} bytes of JSON on /traces)",
        router.slowest_traces(usize::MAX).len(),
        trace.trace_id.to_hex(),
        trace.total_us,
        trace.root.children.len(),
        traces.len(),
    );

    drop(endpoint);
    for node in nodes {
        node.shutdown();
    }
    println!("fleet shut down cleanly");
    Ok(())
}
