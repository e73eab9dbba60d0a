//! Fabric scaling benchmark: router throughput vs fleet size on the
//! Table III-scale collection, plus the streaming-ingest invariants.
//!
//! The paper's scaling argument is bandwidth partitioning: each HBM
//! channel group streams its row slice concurrently, so K channels give
//! ~K× the effective bandwidth of one. The fabric lifts that to
//! processes — each node owns a row partition, the router is the merge
//! network — and this benchmark measures the same curve: closed-loop
//! throughput at 1, 2, 4, and 8 nodes over one fixed collection.
//!
//! # Pacing (read before trusting the numbers)
//!
//! The CI container has a single CPU core, so N in-process nodes doing
//! real arithmetic cannot speed anything up — they time-slice one core.
//! Each node therefore serves through a [`PacedBackend`]: answers come
//! from the real exact engine (so routed results stay bit-identical to
//! the unsharded reference), but each query is padded to a modelled
//! device time proportional to the shard's nnz — the paper's model of a
//! bandwidth-bound SpMV pass. Padding (a sleep) overlaps across nodes
//! the way real device work would across hosts, while the ~ms of real
//! CPU per query stays far below the pacing floor. The model constant
//! is reported in the JSON; rerun on a many-core host with
//! `--pace-ns 0` for unpaced numbers.
//!
//! The final JSON block is written to `BENCH_fabric.json`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv_obs::SpanNode;

use tkspmv::backend::{PreparedMatrix, Query, QueryResult, QueryTier, TopKBackend};
use tkspmv::EngineError;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{DeltaCollection, NodeServer, Router, RouterConfig, ShardSpec};
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{Csr, DenseVector};

const ROWS: usize = 100_000;
const DIM: usize = 1_024;
const NNZ_PER_ROW: usize = 12;
const K: usize = 100;
const CLIENTS: usize = 8;
const MEASURE: Duration = Duration::from_millis(1_500);
const FLEETS: [usize; 4] = [1, 2, 4, 8];
/// Modelled device time per nonzero. 60 ns/nnz puts the full 1.2M-nnz
/// collection at ~72 ms per query — well above the real exact pass plus
/// the per-query wire and merge work on this collection, so pacing
/// dominates and node overlap behaves like real multi-host overlap even
/// on the single-core CI machine.
const DEFAULT_PACE_NS: u64 = 60;

/// Wraps an exact engine, padding every query to `nnz × pace` of
/// modelled device time. Answers are the inner engine's, bit for bit.
struct PacedBackend {
    inner: CpuTopK,
    pace_ns: u64,
}

impl PacedBackend {
    fn pad(&self, start: Instant, queries: usize, nnz: u64) {
        let target = Duration::from_nanos(self.pace_ns * nnz * queries as u64);
        if let Some(rest) = target.checked_sub(start.elapsed()) {
            std::thread::sleep(rest);
        }
    }
}

impl TopKBackend for PacedBackend {
    fn name(&self) -> String {
        format!("paced-cpu@{}ns", self.pace_ns)
    }

    fn family(&self) -> String {
        self.inner.family()
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        self.inner.prepare(csr)
    }

    fn answer(
        &self,
        matrix: &PreparedMatrix,
        queries: &[DenseVector],
        query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let start = Instant::now();
        let out = self.inner.answer(matrix, queries, query)?;
        self.pad(start, queries.len(), matrix.nnz());
        Ok(out)
    }
}

fn collection() -> Csr {
    SyntheticConfig {
        num_rows: ROWS,
        num_cols: DIM,
        avg_nnz_per_row: NNZ_PER_ROW,
        distribution: NnzDistribution::table3_gamma(),
        seed: 42,
    }
    .generate()
}

fn spawn_fleet(csr: &Csr, nodes: usize, pace_ns: u64) -> (Vec<NodeServer>, Router) {
    let mut servers = Vec::with_capacity(nodes);
    let mut specs = Vec::with_capacity(nodes);
    for (first_row, shard) in csr.partition_rows(nodes) {
        let backend = Arc::new(PacedBackend {
            inner: CpuTopK::new(1),
            pace_ns,
        });
        let service = TopKService::builder(backend)
            .batch_policy(BatchPolicy::immediate())
            .queue_capacity(1024)
            .build(&shard)
            .expect("shard service builds");
        let node = NodeServer::spawn(
            Arc::new(DeltaCollection::new(service, shard, first_row)),
            "127.0.0.1:0",
        )
        .expect("node binds");
        specs.push(ShardSpec::single(node.local_addr().to_string()));
        servers.push(node);
    }
    let router = Router::connect(
        specs,
        RouterConfig {
            deadline: Duration::from_secs(30),
            ..RouterConfig::default()
        },
    )
    .expect("router connects");
    (servers, router)
}

struct Measurement {
    nodes: usize,
    throughput_qps: f64,
    queries: u64,
    identical: bool,
}

fn measure(csr: &Csr, reference: &[(u32, f64)], nodes: usize, pace_ns: u64) -> Measurement {
    let (servers, router) = spawn_fleet(csr, nodes, pace_ns);

    // Bit-identity first: the routed merge over this fleet must equal
    // the unsharded exact reference exactly.
    let routed = router
        .query(query_vector(DIM, 7).as_slice(), K, QueryTier::Exact)
        .expect("reference query");
    let identical = routed.topk.entries() == reference;

    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let router = &router;
            let served = &served;
            scope.spawn(move || {
                let mut seed = 1_000 * client as u64;
                while start.elapsed() < MEASURE {
                    seed += 1;
                    router
                        .query(query_vector(DIM, seed).as_slice(), K, QueryTier::Exact)
                        .expect("closed-loop query");
                    // ordering: independent throughput counter; the
                    // scope join orders the final read after all adds.
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    // ordering: read after thread::scope joined every client.
    let queries = served.load(Ordering::Relaxed);
    for server in servers {
        server.shutdown();
    }
    Measurement {
        nodes,
        throughput_qps: queries as f64 / elapsed.as_secs_f64(),
        queries,
        identical,
    }
}

/// The streaming-ingest invariants on a 4-node fleet: an appended row
/// is visible before compaction and bit-identical after the fold's
/// epoch swap.
struct DeltaCheck {
    visible_before_compaction: bool,
    identical_after_compaction: bool,
    folded: u64,
}

fn delta_check(csr: &Csr, pace_ns: u64) -> DeltaCheck {
    let (servers, router) = spawn_fleet(csr, 4, pace_ns);
    let x = query_vector(DIM, 99);
    // A row collinear with the query at 10x scale must rank first.
    let hot: (Vec<u32>, Vec<f32>) = (
        x.as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(c, _)| c as u32)
            .collect(),
        x.as_slice()
            .iter()
            .filter(|&&v| v != 0.0)
            .map(|&v| v * 10.0)
            .collect(),
    );
    let id = router.append(std::slice::from_ref(&hot)).expect("append")[0];
    let before = router
        .query(x.as_slice(), K, QueryTier::Exact)
        .expect("delta query")
        .topk;
    let visible = before.entries().first().map(|&(row, _)| row) == Some(id);
    let folded: u64 = router
        .compact_all()
        .expect("compaction")
        .iter()
        .map(|&(_, n)| n)
        .sum();
    let after = router
        .query(x.as_slice(), K, QueryTier::Exact)
        .expect("post-compaction query")
        .topk;
    for server in servers {
        server.shutdown();
    }
    DeltaCheck {
        visible_before_compaction: visible,
        identical_after_compaction: after == before,
        folded,
    }
}

/// Sums every stage span in a trace subtree into `totals`
/// (`stage name -> (spans, total us)`).
fn accumulate_stages(node: &SpanNode, totals: &mut BTreeMap<&'static str, (u64, u64)>) {
    for s in &node.stages {
        let entry = totals.entry(s.stage.name()).or_default();
        entry.0 += 1;
        entry.1 += u64::from(s.dur_us);
    }
    for child in &node.children {
        accumulate_stages(child, totals);
    }
}

/// Runs a traced 2-node fleet and prints the cross-node per-stage
/// breakdown aggregated over the assembled trace trees — where routed
/// query time actually goes (wire vs engine stages vs merge).
fn trace_breakdown(csr: &Csr, pace_ns: u64) {
    let mut servers = Vec::new();
    let mut specs = Vec::new();
    for (first_row, shard) in csr.partition_rows(2) {
        let backend = Arc::new(PacedBackend {
            inner: CpuTopK::new(1),
            pace_ns,
        });
        let service = TopKService::builder(backend)
            .batch_policy(BatchPolicy::immediate())
            .queue_capacity(1024)
            .build(&shard)
            .expect("shard service builds");
        let node = NodeServer::spawn(
            Arc::new(DeltaCollection::new(service, shard, first_row)),
            "127.0.0.1:0",
        )
        .expect("node binds");
        specs.push(ShardSpec::single(node.local_addr().to_string()));
        servers.push(node);
    }
    let router = Router::connect(
        specs,
        RouterConfig {
            deadline: Duration::from_secs(30),
            trace: true,
            ..RouterConfig::default()
        },
    )
    .expect("router connects");

    const TRACED: usize = 16;
    let mut total_us = 0u64;
    for i in 0..TRACED {
        let result = router
            .query(
                query_vector(DIM, 5_000 + i as u64).as_slice(),
                K,
                QueryTier::Exact,
            )
            .expect("traced query");
        let trace = result.trace.expect("tracing on");
        assert!(trace.is_well_formed(), "malformed trace tree");
        total_us += trace.total_us;
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for trace in router.slowest_traces(TRACED) {
        accumulate_stages(&trace.root, &mut totals);
    }
    for server in servers {
        server.shutdown();
    }

    println!("\nstage breakdown — 2 nodes, {TRACED} traced queries (from assembled trace trees):");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>8}",
        "stage", "spans", "total (us)", "mean (us)", "share"
    );
    for (stage, (count, us)) in &totals {
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>7.1}%",
            stage,
            count,
            us,
            us / count.max(&1),
            100.0 * *us as f64 / total_us.max(1) as f64
        );
    }
}

fn main() {
    let pace_ns = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--pace-ns")
        .map(|w| w[1].parse().expect("--pace-ns takes nanoseconds"))
        .unwrap_or(DEFAULT_PACE_NS);

    let csr = collection();
    println!(
        "fabric_bench: {} rows x {} cols, {} nnz, K = {K}, {CLIENTS} clients, pace {pace_ns} ns/nnz",
        csr.num_rows(),
        csr.num_cols(),
        csr.nnz()
    );

    let backend = CpuTopK::new(1);
    let prepared = backend.prepare(&csr).expect("prepare reference");
    let reference = backend
        .query(&prepared, &query_vector(DIM, 7), K)
        .expect("unsharded reference")
        .topk;
    drop(prepared);

    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>12}",
        "nodes", "qps", "queries", "speedup", "identical"
    );
    let mut all: Vec<Measurement> = Vec::new();
    for nodes in FLEETS {
        let m = measure(&csr, reference.entries(), nodes, pace_ns);
        let speedup = m.throughput_qps / all.first().map_or(m.throughput_qps, |b| b.throughput_qps);
        println!(
            "{:<8} {:>12.1} {:>10} {:>9.2}x {:>12}",
            m.nodes, m.throughput_qps, m.queries, speedup, m.identical
        );
        all.push(m);
    }

    let delta = delta_check(&csr, pace_ns);
    println!(
        "delta: visible before compaction = {}, identical after = {} ({} folded)",
        delta.visible_before_compaction, delta.identical_after_compaction, delta.folded
    );

    trace_breakdown(&csr, pace_ns);

    let base_qps = all[0].throughput_qps;
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"collection\": {{\"rows\": {ROWS}, \"dim\": {DIM}, \"nnz\": {}, \"k\": {K}}},\n",
        csr.nnz()
    ));
    json.push_str(&format!(
        "  \"pacing\": {{\"ns_per_nnz\": {pace_ns}, \"note\": \"modelled device time per query; answers from the real exact engine\"}},\n"
    ));
    json.push_str("  \"scaling\": [\n");
    for (i, m) in all.iter().enumerate() {
        let comma = if i + 1 == all.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"nodes\": {}, \"throughput_qps\": {:.1}, \"speedup_vs_single\": {:.2}, \"bit_identical_to_unsharded\": {}}}{comma}\n",
            m.nodes,
            m.throughput_qps,
            m.throughput_qps / base_qps,
            m.identical
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"delta\": {{\"visible_before_compaction\": {}, \"identical_after_compaction\": {}, \"rows_folded\": {}}}\n",
        delta.visible_before_compaction, delta.identical_after_compaction, delta.folded
    ));
    json.push_str("}\n");

    println!("\nJSON:\n{json}");
    std::fs::write("BENCH_fabric.json", &json).expect("write BENCH_fabric.json");
    println!("wrote BENCH_fabric.json");

    let four = all
        .iter()
        .find(|m| m.nodes == 4)
        .expect("4-node fleet measured");
    assert!(
        all.iter().all(|m| m.identical),
        "routed results diverged from the unsharded reference"
    );
    assert!(
        four.throughput_qps >= 2.5 * base_qps,
        "4-node speedup {:.2}x below the 2.5x floor",
        four.throughput_qps / base_qps
    );
    assert!(delta.visible_before_compaction && delta.identical_after_compaction);
}
