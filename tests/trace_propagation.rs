//! Distributed trace propagation, end to end: a traced query fanned out
//! over real TCP nodes must come back with one assembled span tree that
//! is structurally well-formed and consistent with the latency the
//! caller actually measured — across precision tiers, and with trace
//! ids surviving a compaction epoch hot-swap happening mid-stream.
//! Underneath that: the engine stage split inside each span is the one
//! the request's own backend call measured, exact while a batch's shard
//! tasks run beside each other.

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tkspmv::backend::{
    BackendPerf, BackendStats, PreparedMatrix, Query, QueryResult, QueryTier, TopKBackend,
};
use tkspmv::{Accelerator, EngineError, PrunedBackend, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{DeltaCollection, NodeClient, NodeServer, Router, RouterConfig, ShardSpec};
use tkspmv_fixed::PruneBits;
use tkspmv_obs::{QueryTrace, Stage, Stages, TraceId};
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{Csr, DenseVector};

const DEADLINE: Duration = Duration::from_secs(10);

/// Covering shortlist factor so the pruned tier is exact on the tiny
/// matrices this suite generates (c·k ≥ rows).
const COVERING_FACTOR: usize = 64;

/// One in-process node per partition behind a real TCP port, over the
/// CPU baseline (wrapped in the staged pipeline when `pruned`).
fn spawn_fleet(csr: &Csr, parts: usize, pruned: bool) -> (Vec<NodeServer>, Vec<ShardSpec>) {
    let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
    let backend: Arc<dyn TopKBackend> = if pruned {
        Arc::new(
            PrunedBackend::new(exact, PruneBits::Eight, COVERING_FACTOR)
                .expect("covering factor is valid"),
        )
    } else {
        exact
    };
    spawn_fleet_over(csr, parts, &backend)
}

/// One in-process node per partition behind a real TCP port.
fn spawn_fleet_over(
    csr: &Csr,
    parts: usize,
    backend: &Arc<dyn TopKBackend>,
) -> (Vec<NodeServer>, Vec<ShardSpec>) {
    let mut nodes = Vec::with_capacity(parts);
    let mut specs = Vec::with_capacity(parts);
    for (first_row, shard) in csr.partition_rows(parts) {
        let service = TopKService::builder(Arc::clone(backend))
            .batch_policy(BatchPolicy::immediate())
            .build(&shard)
            .expect("shard service builds");
        let collection = Arc::new(DeltaCollection::new(service, shard, first_row));
        let node = NodeServer::spawn(collection, "127.0.0.1:0").expect("node binds");
        specs.push(ShardSpec::single(node.local_addr().to_string()));
        nodes.push(node);
    }
    (nodes, specs)
}

fn traced_router(specs: Vec<ShardSpec>) -> Router {
    Router::connect(
        specs,
        RouterConfig {
            deadline: DEADLINE,
            trace: true,
            ..RouterConfig::default()
        },
    )
    .expect("router connects")
}

/// The structural and latency-consistency contract one assembled trace
/// must satisfy against the wall time the caller measured.
fn assert_trace_consistent(trace: &QueryTrace, answered: usize, wall: Duration) {
    assert!(
        trace.is_well_formed(),
        "malformed trace: {}",
        trace.to_json()
    );
    assert!(!trace.trace_id.is_zero(), "traced query got the zero id");
    assert_eq!(trace.root.name, "router");
    assert_eq!(
        trace.root.children.len(),
        answered,
        "one child per answered shard: {}",
        trace.to_json()
    );
    // The router's own total can only undershoot the caller's wall time
    // (the caller's interval contains it).
    let wall_us = wall.as_micros() as u64;
    assert!(
        trace.total_us <= wall_us,
        "trace total {}us exceeds measured wall {}us",
        trace.total_us,
        wall_us
    );
    for shard in &trace.root.children {
        // Per-node stage spans must sum to at most the shard's wire
        // round-trip, which itself fits the end-to-end total — the
        // "stage sums are consistent with measured latency" contract.
        let stage_sum: u64 = shard.stages.iter().map(|s| u64::from(s.dur_us)).sum();
        let child_sum: u64 = shard
            .children
            .iter()
            .flat_map(|n| n.stages.iter())
            .map(|s| u64::from(s.dur_us))
            .sum();
        assert!(
            stage_sum + child_sum <= u64::from(shard.dur_us).max(1),
            "shard stage sums {stage_sum}+{child_sum} exceed the shard interval {}us: {}",
            shard.dur_us,
            trace.to_json()
        );
        // Every answered node reported spans.
        let node = shard.children.first().expect("node span report");
        assert_eq!(node.name, "node");
        assert!(
            !node.stages.is_empty(),
            "node reported no stage spans: {}",
            trace.to_json()
        );
    }
}

/// The acceptance path: a routed query across two real TCP nodes yields
/// one assembled trace tree consistent with the measured latency.
#[test]
fn routed_query_across_two_tcp_nodes_assembles_one_consistent_tree() {
    let csr = SyntheticConfig {
        num_rows: 200,
        num_cols: 64,
        avg_nnz_per_row: 8,
        distribution: NnzDistribution::Uniform,
        seed: 11,
    }
    .generate();
    let (nodes, specs) = spawn_fleet(&csr, 2, false);
    let router = traced_router(specs);

    let mut ids = BTreeSet::new();
    for seed in 0..5 {
        let x = query_vector(64, seed);
        let started = Instant::now();
        let result = router
            .query(x.as_slice(), 10, QueryTier::Exact)
            .expect("routed query");
        let wall = started.elapsed();
        assert!(result.coverage.is_complete());
        let trace = result.trace.expect("tracing is on");
        assert_trace_consistent(&trace, 2, wall);
        ids.insert(trace.trace_id.to_hex());
    }
    assert_eq!(ids.len(), 5, "every query got a distinct trace id");

    // The router's ring kept them for the dump tool.
    let slowest = router.slowest_traces(16);
    assert_eq!(slowest.len(), 5);
    assert!(slowest.windows(2).all(|w| w[0].total_us >= w[1].total_us));

    for node in nodes {
        node.shutdown();
    }
}

/// Node spans of an accelerator-backed fleet split the engine interval
/// into the stages the engine itself timed: decode and score on the
/// exact tier; prune and rescore on the staged tier, which never enters
/// the accelerator and so decodes nothing.
#[test]
fn accelerator_fleet_node_spans_carry_the_engine_stage_split() {
    let csr = SyntheticConfig {
        num_rows: 6_000,
        num_cols: 256,
        avg_nnz_per_row: 16,
        distribution: NnzDistribution::Uniform,
        seed: 23,
    }
    .generate();
    let accelerator: Arc<dyn TopKBackend> = Arc::new(
        Accelerator::builder()
            .cores(2)
            .k(64)
            .build()
            .expect("small design builds"),
    );
    // A non-covering shortlist (8·100 of 3 000 rows per node), so the
    // staged path really prunes and rescores.
    let staged: Arc<dyn TopKBackend> = Arc::new(
        PrunedBackend::new(Arc::clone(&accelerator), PruneBits::Eight, 8).expect("valid factor"),
    );
    let cases: [(&Arc<dyn TopKBackend>, QueryTier, &[Stage]); 2] = [
        (
            &accelerator,
            QueryTier::Exact,
            &[Stage::Decode, Stage::Score],
        ),
        (
            &staged,
            QueryTier::Pruned {
                shortlist_factor: 8,
            },
            &[Stage::Prune, Stage::Rescore],
        ),
    ];
    for (backend, tier, expected) in cases {
        let (nodes, specs) = spawn_fleet_over(&csr, 2, backend);
        let router = traced_router(specs);
        let x = query_vector(256, 3);
        let started = Instant::now();
        let result = router.query(x.as_slice(), 100, tier).expect("routed query");
        let trace = result.trace.expect("tracing is on");
        assert_trace_consistent(&trace, 2, started.elapsed());
        for shard in &trace.root.children {
            let node = shard.children.first().expect("node span report");
            for stage in expected {
                assert!(
                    node.stages.iter().any(|s| s.stage == *stage),
                    "{tier}: node span lacks {stage:?}: {}",
                    trace.to_json()
                );
            }
            // `Score` also absorbs engine time no stage claims, so the
            // other three say which stages the engine ran.
            for stage in [Stage::Decode, Stage::Prune, Stage::Rescore] {
                assert_eq!(
                    node.stages.iter().any(|s| s.stage == stage),
                    expected.contains(&stage),
                    "{tier}: {stage:?}: {}",
                    trace.to_json()
                );
            }
        }
        for node in nodes {
            node.shutdown();
        }
    }
}

/// A backend whose every result is stamped with stage values derived
/// from the query itself, so a ticket can tell whose values it got.
struct StampBackend;

fn stamp(x: &DenseVector) -> Stages {
    let id = x.as_slice()[0] as u64;
    let mut stages = Stages::default();
    stages.add(Stage::Decode, Duration::from_nanos(10 * id + 1));
    stages.add(Stage::Score, Duration::from_nanos(10 * id + 2));
    stages.add(Stage::Prune, Duration::from_nanos(10 * id + 3));
    stages.add(Stage::Rescore, Duration::from_nanos(10 * id + 4));
    stages
}

impl TopKBackend for StampBackend {
    fn name(&self) -> String {
        "stamp".to_string()
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        Ok(PreparedMatrix::new(
            self.name(),
            csr.num_rows(),
            csr.num_cols(),
            csr.nnz() as u64,
            (),
        ))
    }

    fn answer(
        &self,
        _matrix: &PreparedMatrix,
        queries: &[DenseVector],
        _query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let answer = |x: &DenseVector| QueryResult {
            topk: TopKResult::from_pairs(vec![(0, 1.0)]),
            perf: BackendPerf::measured(1e-9, 1),
            stats: BackendStats::Pruned {
                bits: 8,
                shortlist: 1,
                pruned: true,
                stages: stamp(x),
            },
        };
        Ok(queries.iter().map(answer).collect())
    }
}

/// Concurrent submitters into a four-shard service (four backend calls
/// per batch): every ticket's engine stage split is exactly the sum of
/// the values its own four shard calls reported — nothing from the other
/// queries of its batch, or of any other batch.
#[test]
fn concurrent_requests_keep_their_own_stage_attribution() {
    const SHARDS: usize = 4;
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 40;
    let csr = SyntheticConfig {
        num_rows: 8,
        num_cols: 4,
        avg_nnz_per_row: 2,
        distribution: NnzDistribution::Uniform,
        seed: 1,
    }
    .generate();
    let service = TopKService::builder(Arc::new(StampBackend))
        .shards(SHARDS)
        .batch_policy(BatchPolicy::coalescing(4, Duration::from_micros(200)))
        .build(&csr)
        .expect("service builds");

    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let (service, start) = (&service, &start);
            scope.spawn(move || {
                start.wait();
                let tickets: Vec<_> = (0..PER_SUBMITTER)
                    .map(|i| {
                        let id = (submitter * PER_SUBMITTER + i + 1) as f32;
                        let x = DenseVector::from_values(vec![id, 0.0, 0.0, 0.0]);
                        let ticket = service.submit(x.clone(), 1).expect("admitted");
                        (x, ticket)
                    })
                    .collect();
                for (x, ticket) in tickets {
                    let served = ticket.wait().expect("served");
                    let mut want = Stages::default();
                    for _ in 0..SHARDS {
                        for (stage, d) in stamp(&x).iter() {
                            want.add(stage, d);
                        }
                    }
                    let got = served.stages.engine_stages;
                    assert_eq!(got, want, "query {:?}", x.as_slice());
                }
            });
        }
    });
    let metrics = service.shutdown();
    assert_eq!(metrics.served, (SUBMITTERS * PER_SUBMITTER) as u64);
}

/// The same through the real accelerator: the decode/score split of
/// each served request is what its own batch measured on its busiest
/// participant, summed over the partitions it walked, so it fits inside
/// that request's engine interval as reported — no clamp involved.
#[test]
fn served_accelerator_stages_fit_their_engine_interval() {
    let csr = SyntheticConfig {
        num_rows: 4_000,
        num_cols: 128,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::Uniform,
        seed: 9,
    }
    .generate();
    let backend = Arc::new(
        Accelerator::builder()
            .cores(4)
            .k(8)
            .build()
            .expect("builds"),
    );
    let service = TopKService::builder(backend)
        .shards(4)
        .batch_policy(BatchPolicy::coalescing(4, Duration::from_micros(500)))
        .build(&csr)
        .expect("service builds");
    std::thread::scope(|scope| {
        for submitter in 0..4u64 {
            let service = &service;
            scope.spawn(move || {
                let tickets: Vec<_> = (0..12)
                    .map(|i| service.submit(query_vector(128, 100 * submitter + i), 10))
                    .collect();
                for ticket in tickets {
                    let st = ticket.expect("admitted").wait().expect("served").stages;
                    let [decode, score, prune, rescore] =
                        [Stage::Decode, Stage::Score, Stage::Prune, Stage::Rescore]
                            .map(|s| st.engine_stages.get(s));
                    assert!(!decode.is_zero() && !score.is_zero(), "{st:?}");
                    assert!(decode + score <= st.engine, "{st:?}");
                    assert_eq!((prune, rescore), (Duration::ZERO, Duration::ZERO));
                }
            });
        }
    });
    service.shutdown();
}

/// Trace ids must keep flowing — and spans keep landing in the node's
/// ring — while the node compacts its delta shard and hot-swaps the
/// serving epoch mid-stream.
#[test]
fn trace_ids_survive_compaction_epoch_swap_mid_stream() {
    let dim = 64;
    let csr = SyntheticConfig {
        num_rows: 80,
        num_cols: dim,
        avg_nnz_per_row: 8,
        distribution: NnzDistribution::Uniform,
        seed: 5,
    }
    .generate();
    let backend: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
    let service = TopKService::builder(backend)
        .batch_policy(BatchPolicy::immediate())
        .build(&csr)
        .expect("service builds");
    // Keep a handle on the collection so the node's span ring stays
    // inspectable from the test.
    let collection = Arc::new(DeltaCollection::new(service, csr, 0));
    let node = NodeServer::spawn(Arc::clone(&collection), "127.0.0.1:0").expect("node binds");

    let mut client = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");
    let mut admin = NodeClient::connect(node.local_addr(), DEADLINE).expect("connect");

    // Rows for the delta shard so the fold has something to swap in.
    let rows: Vec<(Vec<u32>, Vec<f32>)> = (0..4).map(|i| (vec![i], vec![1.5])).collect();
    admin.append(&rows, DEADLINE).expect("append");

    let mut sent = Vec::new();
    for i in 0..10 {
        if i == 5 {
            // Mid-stream: fold the delta and hot-swap the epoch.
            let (epoch, folded) = admin.compact(DEADLINE).expect("compact");
            assert!(epoch >= 1, "compaction must bump the serving epoch");
            assert_eq!(folded, 4);
        }
        let id = TraceId::generate();
        let x = query_vector(dim, 50 + i);
        let (entries, wire_trace) = client
            .query_traced(
                x.as_slice(),
                &Query {
                    trace: id,
                    ..Query::new(5)
                },
                DEADLINE,
            )
            .expect("traced query");
        assert!(!entries.is_empty());
        let wire_trace = wire_trace.expect("traced query reports spans");
        assert!(wire_trace.total_us > 0);
        assert_eq!(
            wire_trace.trace_id, id,
            "the client files the record under its id"
        );
        sent.push(id.to_hex());
    }
    assert!(collection.service().metrics().epoch >= 1);

    // Every id — from before and after the swap — landed in the ring,
    // once: a traced query takes one slot.
    let ring = collection.service().slowest_spans(usize::MAX);
    assert_eq!(ring.len(), sent.len(), "one ring record per traced query");
    let recorded: BTreeSet<String> = ring.iter().map(|r| r.trace_id.to_hex()).collect();
    for id in &sent {
        assert!(recorded.contains(id), "trace id {id} lost mid-stream");
    }
    node.shutdown();
}

/// A matrix sized for up to 3 shards, a query, a k, and a shard count.
fn arb_case() -> impl Strategy<Value = (Csr, DenseVector, usize, usize)> {
    (18usize..48, 8usize..24, 1usize..7, 1usize..4).prop_flat_map(|(rows, cols, k, parts)| {
        let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..100)
            .prop_map(move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i * 13 % 89) + 1) as f32 / 100.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid")
            });
        let query =
            proptest::collection::vec(0.0f32..1.0, cols..=cols).prop_map(DenseVector::from_values);
        (matrix, query, Just(k), Just(parts))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// S3: assembled span trees are well-formed (children inside
    /// parents, stage sums within intervals, total within the measured
    /// wall time) for any fleet shape, on both precision tiers.
    #[test]
    fn assembled_trace_trees_are_well_formed_across_tiers(
        (csr, x, k, parts) in arb_case(),
    ) {
        // Alternate tiers across cases (the vendored proptest stub has
        // no bool strategy).
        let pruned = k % 2 == 0;
        let k = k.min(csr.num_rows());
        let tier = if pruned {
            QueryTier::Pruned { shortlist_factor: COVERING_FACTOR }
        } else {
            QueryTier::Exact
        };
        let (nodes, specs) = spawn_fleet(&csr, parts, pruned);
        let router = traced_router(specs);
        let started = Instant::now();
        let result = router.query(x.as_slice(), k, tier).expect("routed query");
        let wall = started.elapsed();
        prop_assert!(result.coverage.is_complete());
        let trace = result.trace.expect("tracing is on");
        assert_trace_consistent(&trace, parts.min(csr.num_rows()), wall);
        for node in nodes {
            node.shutdown();
        }
    }
}
