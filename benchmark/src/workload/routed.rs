//! `routed_rw`: writes beside reads, through the whole fabric.
//!
//! Two in-process `NodeServer`s over real loopback TCP, each a
//! `TopKService` (dispatch-immediately) over `PrunedBackend(CpuTopK(1),
//! 8-bit, c = 2)` behind a `DeltaCollection`, behind one `Router`. Two
//! closed-loop callers alternate the exact and pruned tiers; caller B
//! appends 32 rows on every 10th op and compacts the fleet on every
//! 500th. Wire, router fan-out and merge, the CPU baseline, the prune
//! pass and the delta write path do the work; the accelerator engine
//! does none. A read-side win that slows append or compaction lowers
//! `throughput_qps` here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv::backend::{QueryTier, TopKBackend};
use tkspmv::{PrunedBackend, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{
    DeltaCollection, NodeClient, NodeServer, RoutedResult, Router, RouterConfig, ShardSpec,
};
use tkspmv_fixed::PruneBits;
use tkspmv_obs::{QueryTrace, Stage};
use tkspmv_serve::{BatchPolicy, TopKService};

use super::{Observed, Round, Verified, Workload};
use crate::input::{routed_op, Inputs, RoutedOp, APPEND_ROWS, K, REFERENCE, SHORTLIST_FACTOR};
use crate::probes::Probes;
use crate::span::{Tracer, Waterfall};
use crate::spec::{WorkloadSpec, WORKLOADS};
use crate::verify::RoutedCheck;
use crate::{stats, verify};

const NODES: usize = 2;
const CALLERS: u64 = 2;
/// Generous on purpose: no op of this workload is meant to fail, and a
/// compaction re-prepares a whole shard inside one RPC.
const DEADLINE: Duration = Duration::from_secs(10);
/// Base rows a pruned-tier answer may hold that the exact reference
/// does not (the tier is approximate; its measured recall is ≈ 1).
const PRUNED_SLACK: usize = 5;

fn node_backend() -> Result<Arc<dyn TopKBackend>, String> {
    let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
    PrunedBackend::new(exact, PruneBits::Eight, SHORTLIST_FACTOR)
        .map(|b| Arc::new(b) as Arc<dyn TopKBackend>)
        .map_err(|e| e.to_string())
}

/// The running fleet. Field order is drop order: routers hang up
/// before the nodes they talk to stop.
struct Fleet {
    router: Router,
    traced_router: Option<Router>,
    nodes: Vec<NodeServer>,
}

impl Fleet {
    /// Connects a router to `nodes`, one unreplicated shard group each.
    fn connect(nodes: &[NodeServer], trace: bool) -> Result<Router, String> {
        Router::connect(
            nodes
                .iter()
                .map(|n| ShardSpec::single(n.local_addr().to_string()))
                .collect(),
            RouterConfig {
                deadline: DEADLINE,
                trace,
                ..RouterConfig::default()
            },
        )
        .map_err(|e| e.to_string())
    }
}

/// One traced query, kept by its caller thread until the round ends.
struct TracedQuery {
    op: u64,
    start: Instant,
    end: Instant,
    trace: QueryTrace,
}

/// What one caller did in one round.
#[derive(Default)]
struct CallerRound {
    round: Round,
    traced: Vec<TracedQuery>,
    append_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    appends: u64,
    rows_folded: u64,
    max_delta_rows: usize,
}

/// The `routed_rw` workload's state.
pub struct RoutedRw {
    fleet: Option<Fleet>,
    exact_refs: Vec<Vec<(u32, f64)>>,
    next_op: [u64; CALLERS as usize],
    appends: u64,
    rows_folded: u64,
    max_delta_rows: usize,
    append_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    tracer: Tracer,
    waterfall: Waterfall,
}

impl RoutedRw {
    /// The workload, nothing built yet.
    pub fn new() -> Self {
        Self {
            fleet: None,
            exact_refs: Vec::new(),
            next_op: [0; CALLERS as usize],
            appends: 0,
            rows_folded: 0,
            max_delta_rows: 0,
            append_ms: Vec::new(),
            compact_ms: Vec::new(),
            tracer: Tracer::new(),
            waterfall: Waterfall::default(),
        }
    }

    fn fleet(&self) -> &Fleet {
        self.fleet.as_ref().expect("setup ran before this call")
    }

    /// Runs caller `caller`'s ops from `first_op` until `duration` is up.
    fn caller_loop(
        &self,
        inputs: &Inputs,
        router: &Router,
        caller: u64,
        first_op: u64,
        duration: Duration,
    ) -> (CallerRound, u64) {
        let check = RoutedCheck {
            inputs,
            base_rows: inputs.csr.num_rows() as u32,
            k: K,
        };
        let tail = self.fleet().nodes.last().expect("fleet has nodes");
        let mut out = CallerRound::default();
        let mut i = first_op;
        let started = Instant::now();
        while started.elapsed() < duration {
            let op = routed_op(inputs.seed, caller, i);
            out.round.calls += 1;
            let t0 = Instant::now();
            match op {
                RoutedOp::Query { query, tier } => {
                    let result = router.query(inputs.queries[query].as_slice(), K, tier);
                    let t1 = Instant::now();
                    let exact = tier == QueryTier::Exact;
                    let ok = result.as_ref().is_ok_and(|r| {
                        let answer = r.topk.entries();
                        // Both tiers are held to the exact reference:
                        // whichever rows the prune pass lets through,
                        // their scores are exact.
                        match self.exact_refs.get(query) {
                            Some(reference) if exact => check.ok(query, answer, reference, true, 0),
                            Some(reference) => {
                                check.ok(query, answer, reference, false, PRUNED_SLACK)
                            }
                            None => verify::well_formed(answer, K),
                        }
                    });
                    if ok {
                        out.round.queries_ok += 1;
                        out.round.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    } else {
                        out.round.failed += 1;
                    }
                    if let Ok(RoutedResult {
                        trace: Some(trace), ..
                    }) = result
                    {
                        out.traced.push(TracedQuery {
                            op: i * CALLERS + caller,
                            start: t0,
                            end: t1,
                            trace,
                        });
                    }
                }
                RoutedOp::Append { n } => {
                    let result = router.append(&inputs.append_rows(n));
                    out.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match result {
                        Ok(ids) if ids.len() == APPEND_ROWS => out.appends += 1,
                        _ => out.round.failed += 1,
                    }
                    out.max_delta_rows = out.max_delta_rows.max(tail.collection().delta_rows());
                }
                RoutedOp::Compact => {
                    let result = router.compact_all();
                    out.compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match result {
                        Ok(folds) => out.rows_folded += folds.iter().map(|f| f.1).sum::<u64>(),
                        Err(_) => out.round.failed += 1,
                    }
                }
            }
            i += 1;
        }
        out.round.elapsed = started.elapsed();
        (out, i)
    }

    /// Turns one assembled router trace into spans and waterfall rows.
    /// Only the slowest shard is on the op's critical path; the others
    /// ran beside it and are recorded as spans but not attributed.
    fn ingest(&mut self, q: &TracedQuery) {
        let root = self.tracer.record("client.op", q.op, None, q.start, q.end);
        let router_us = u64::from(q.trace.root.dur_us);
        let router =
            self.tracer
                .record_offset("fabric.router", q.op, Some(root), q.start, 0, router_us);
        self.waterfall.op((q.end - q.start).as_secs_f64());
        let critical = q
            .trace
            .root
            .children
            .iter()
            .max_by_key(|s| s.start_us + s.dur_us);
        for shard in &q.trace.root.children {
            let on_path = critical.is_some_and(|c| std::ptr::eq(c, shard));
            let shard_at = u64::from(shard.start_us);
            let shard_span = self.tracer.record_offset(
                "fabric.shard",
                q.op,
                Some(router),
                q.start,
                shard_at,
                u64::from(shard.dur_us),
            );
            let mut spans = vec![(shard_span, shard_at, &shard.stages)];
            for node in &shard.children {
                let node_at = shard_at + u64::from(node.start_us);
                let node_span = self.tracer.record_offset(
                    "fabric.node",
                    q.op,
                    Some(shard_span),
                    q.start,
                    node_at,
                    u64::from(node.dur_us),
                );
                spans.push((node_span, node_at, &node.stages));
                if on_path {
                    // The node's self time: its interval minus the
                    // service stages inside it (delta snapshot and
                    // scoring, waiting for the shard worker).
                    let staged: u32 = node.stages.iter().map(|s| s.dur_us).sum();
                    self.waterfall.add(
                        "fabric.node",
                        f64::from(node.dur_us.saturating_sub(staged)) / 1e6,
                    );
                }
            }
            for (parent, at, stages) in spans {
                for s in stages {
                    let layer = match s.stage {
                        Stage::Wire => "fabric.wire",
                        Stage::Queue => "serve.queue",
                        Stage::Coalesce => "serve.coalesce",
                        Stage::Merge => "serve.merge",
                        _ => "serve.engine",
                    };
                    self.tracer.record_offset(
                        layer,
                        q.op,
                        Some(parent),
                        q.start,
                        at + u64::from(s.start_us),
                        u64::from(s.dur_us),
                    );
                    if on_path {
                        self.waterfall.add(layer, f64::from(s.dur_us) / 1e6);
                    }
                }
            }
            if on_path {
                let beside = router_us.saturating_sub(u64::from(shard.dur_us));
                self.waterfall.add("fabric.router", beside as f64 / 1e6);
            }
        }
    }
}

/// Reads counter `name` out of a Prometheus plaintext exposition.
fn counter(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(metric, _)| *metric == name)
        .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
        .sum()
}

impl Workload for RoutedRw {
    fn spec(&self) -> &'static WorkloadSpec {
        &WORKLOADS[3]
    }

    fn teardown(&mut self) {
        self.fleet = None;
    }

    fn setup(&mut self, inputs: &Inputs) -> Result<(), String> {
        let mut nodes = Vec::with_capacity(NODES);
        for (first_row, shard) in inputs.csr.partition_rows(NODES) {
            let service = TopKService::builder(node_backend()?)
                .shards(1)
                .batch_policy(BatchPolicy::immediate())
                .queue_capacity(1024)
                .build(&shard)
                .map_err(|e| e.to_string())?;
            let collection = Arc::new(DeltaCollection::new(service, shard, first_row));
            nodes.push(NodeServer::spawn(collection, "127.0.0.1:0").map_err(|e| e.to_string())?);
        }
        self.fleet = Some(Fleet {
            router: Fleet::connect(&nodes, false)?,
            traced_router: None,
            nodes,
        });
        Ok(())
    }

    fn verify(&mut self, inputs: &Inputs) -> Result<Verified, String> {
        // Exact tier: the unsharded CPU baseline, bit for bit.
        let cpu = CpuTopK::new(1);
        let whole = cpu.prepare(&inputs.csr).map_err(|e| e.to_string())?;
        // Pruned tier: each shard shortlists on its own, so the
        // reference is the same per-shard pipeline queried directly.
        let pruned = node_backend()?;
        let shards: Vec<_> = inputs
            .csr
            .partition_rows(NODES)
            .into_iter()
            .map(|(first, part)| pruned.prepare(&part).map(|m| (first as u32, m)))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        self.exact_refs.clear();
        let mut pruned_refs = Vec::with_capacity(REFERENCE);
        for x in &inputs.queries[..REFERENCE] {
            let exact = cpu.query(&whole, x, K).map_err(|e| e.to_string())?;
            self.exact_refs.push(exact.topk.entries().to_vec());
            let mut pairs = Vec::with_capacity(NODES * K);
            for (first, matrix) in &shards {
                let out = pruned.query(matrix, x, K).map_err(|e| e.to_string())?;
                pairs.extend(out.topk.entries().iter().map(|&(r, s)| (r + first, s)));
            }
            pruned_refs.push(TopKResult::merge_pairs(pairs, K).entries().to_vec());
        }

        let mut verified = Verified::default();
        let tiers = [
            (QueryTier::Exact, &self.exact_refs),
            (
                QueryTier::Pruned {
                    shortlist_factor: SHORTLIST_FACTOR,
                },
                &pruned_refs,
            ),
        ];
        for (tier, references) in tiers {
            for (q, x) in inputs.queries[..REFERENCE].iter().enumerate() {
                let routed = self
                    .fleet()
                    .router
                    .query(x.as_slice(), K, tier)
                    .map_err(|e| e.to_string())?;
                verified.checked += 1;
                if !verify::identical(routed.topk.entries(), &references[q]) {
                    verified.mismatches += 1;
                }
                verified.recall += verify::recall(routed.topk.entries(), &inputs.oracle[q])
                    / (2 * REFERENCE) as f64;
            }
        }
        Ok(verified)
    }

    fn round(&mut self, inputs: &Inputs, duration: Duration, traced: bool) -> Round {
        if traced && self.fleet().traced_router.is_none() {
            let router = Fleet::connect(&self.fleet().nodes, true)
                .expect("the fleet that accepted one router accepts another");
            self.fleet.as_mut().expect("checked above").traced_router = Some(router);
        }
        let fleet = self.fleet();
        let router = match (&fleet.traced_router, traced) {
            (Some(traced_router), true) => traced_router,
            _ => &fleet.router,
        };
        let callers: Vec<(CallerRound, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|c| {
                    let first_op = self.next_op[c as usize];
                    let this = &*self;
                    scope.spawn(move || this.caller_loop(inputs, router, c, first_op, duration))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller threads do not panic"))
                .collect()
        });

        let mut round = Round::default();
        for (c, (caller, next_op)) in callers.into_iter().enumerate() {
            self.next_op[c] = next_op;
            round.elapsed = round.elapsed.max(caller.round.elapsed);
            round.calls += caller.round.calls;
            round.failed += caller.round.failed;
            round.queries_ok += caller.round.queries_ok;
            round.latencies_ms.extend(caller.round.latencies_ms);
            self.appends += caller.appends;
            self.rows_folded += caller.rows_folded;
            self.max_delta_rows = self.max_delta_rows.max(caller.max_delta_rows);
            self.append_ms.extend(caller.append_ms);
            self.compact_ms.extend(caller.compact_ms);
            for q in &caller.traced {
                self.ingest(q);
            }
        }
        round
    }

    fn observed(&mut self, inputs: &Inputs, _probes: &Probes) -> Observed {
        // Idle-fleet probes. Each query goes to every node on its own
        // and then through the router, back to back, so the difference
        // — what the router adds when nothing contends — is taken pair
        // by pair and the host's drift cancels.
        let mut clients: Vec<NodeClient> = self
            .fleet()
            .nodes
            .iter()
            .filter_map(|n| NodeClient::connect(n.local_addr(), DEADLINE).ok())
            .collect();
        let mut ping_us = Vec::new();
        for client in &mut clients {
            for _ in 0..200 {
                let t0 = Instant::now();
                if client.ping(DEADLINE).is_ok() {
                    ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let (mut node_ms, mut overhead_us) = (Vec::new(), Vec::new());
        for x in &inputs.queries[..REFERENCE] {
            let mut slowest_node = Duration::ZERO;
            for client in &mut clients {
                let t0 = Instant::now();
                if client
                    .query(x.as_slice(), K, QueryTier::Exact, DEADLINE)
                    .is_ok()
                {
                    slowest_node = slowest_node.max(t0.elapsed());
                }
            }
            let t0 = Instant::now();
            if self
                .fleet()
                .router
                .query(x.as_slice(), K, QueryTier::Exact)
                .is_ok()
            {
                let routed = t0.elapsed().as_secs_f64();
                node_ms.push(slowest_node.as_secs_f64() * 1e3);
                overhead_us.push((routed - slowest_node.as_secs_f64()) * 1e6);
            }
        }

        let fleet = self.fleet();
        let mut exposition = fleet.router.render_metrics();
        if let Some(traced_router) = &fleet.traced_router {
            exposition.push_str(&traced_router.render_metrics());
        }
        let w = &self.waterfall;
        vec![
            (
                "fabric.node.ping_rtt_us",
                stats::median(&ping_us).unwrap_or(0.0),
            ),
            (
                "fabric.node.query_ms",
                stats::median(&node_ms).unwrap_or(0.0),
            ),
            (
                "fabric.router.overhead_us",
                stats::median(&overhead_us).unwrap_or(0.0),
            ),
            (
                "fabric.router.hedged_sends_total",
                counter(&exposition, "tkspmv_router_hedged_sends_total"),
            ),
            (
                "fabric.router.failovers_total",
                counter(&exposition, "tkspmv_router_failovers_total"),
            ),
            (
                "fabric.router.deadline_expiries_total",
                counter(&exposition, "tkspmv_router_deadline_expiries_total"),
            ),
            (
                "fabric.router.incomplete_coverage_total",
                counter(&exposition, "tkspmv_router_incomplete_coverage_total"),
            ),
            ("fabric.trace.wire_share", w.share("fabric.wire")),
            (
                "fabric.trace.queue_share",
                w.share("serve.queue") + w.share("serve.coalesce"),
            ),
            ("fabric.trace.score_share", w.share("serve.engine")),
            ("fabric.trace.merge_share", w.share("serve.merge")),
            (
                "fabric.delta.append_p50_ms",
                stats::median(&self.append_ms).unwrap_or(0.0),
            ),
            (
                "fabric.delta.compact_p50_ms",
                stats::median(&self.compact_ms).unwrap_or(0.0),
            ),
            (
                "fabric.delta.rows_appended",
                (self.appends * APPEND_ROWS as u64) as f64,
            ),
            ("fabric.delta.rows_folded", self.rows_folded as f64),
            ("fabric.delta.max_delta_rows", self.max_delta_rows as f64),
        ]
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn waterfall(&self) -> &Waterfall {
        &self.waterfall
    }

    fn finish(&mut self, inputs: &Inputs) -> Result<(u64, u64), String> {
        // Appended ≡ rebuilt: fold every delta, then the routed exact
        // answers must equal the unsharded baseline rebuilt over the
        // base plus every row appended, bit for bit.
        self.fleet()
            .router
            .compact_all()
            .map_err(|e| e.to_string())?;
        let appended: Vec<_> = (0..self.appends)
            .flat_map(|n| inputs.append_rows(n))
            .collect();
        let rebuilt = inputs
            .csr
            .append_rows(&appended)
            .map_err(|e| e.to_string())?;
        let cpu = CpuTopK::new(1);
        let whole = cpu.prepare(&rebuilt).map_err(|e| e.to_string())?;
        let mut mismatches = 0;
        for x in &inputs.queries[..REFERENCE] {
            let reference = cpu.query(&whole, x, K).map_err(|e| e.to_string())?;
            let routed = self
                .fleet()
                .router
                .query(x.as_slice(), K, QueryTier::Exact)
                .map_err(|e| e.to_string())?;
            if !verify::identical(routed.topk.entries(), reference.topk.entries()) {
                mismatches += 1;
            }
        }
        self.teardown();
        Ok((REFERENCE as u64, mismatches))
    }
}
