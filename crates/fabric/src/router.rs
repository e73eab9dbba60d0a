//! The fan-out router: one query in, every shard asked, one merged
//! ranking out.
//!
//! A router fronts N *shard groups*, each a replica set of nodes
//! serving the same global row range. A query fans out to every group
//! concurrently; per-group answers come back with global row ids and
//! bit-exact scores, and are merged under the engine total order with
//! [`TopKResult::merge_pairs`], each row once: groups serve disjoint
//! row ranges ([`Router::connect`] checks) and each gives one answer —
//! the process-level picture of the paper's per-HBM-channel Top-K units
//! feeding one merge network.
//!
//! # Deadlines and the batcher's wait
//!
//! Every node runs a work-conserving micro-batcher: a query that finds
//! it idle runs at once, and a batch seed waits for company only after a
//! batch that had company. `max_wait` is therefore the most a query can
//! wait in the batcher, and only after a batch that had company. A
//! router deadline at or below that wait could time out a query that
//! was never late — a misconfiguration, not a runtime condition.
//! [`Router::connect`] therefore fetches each node's [`NodeInfo`] and
//! rejects, with a typed [`FabricError::InvalidConfig`], any deadline
//! that does not clear `max_wait` plus a headroom budget for transport
//! and execution (cover the node's p99 service time with
//! [`RouterConfig::headroom`]). The budget split is:
//! `deadline > max_wait + headroom ≥ max_wait + p99`.
//!
//! # Retry, hedging, and partial answers
//!
//! Within a shard group the router tries the primary replica first. If
//! it fails with something another replica might not — a wire failure,
//! a node error that [`RpcError::is_retryable`] — the next replica is
//! asked at once (a *failover*); if it stays silent for `deadline /
//! replicas` the next one is asked as well (a *hedge*). The first
//! success wins; a non-retryable node error is about the request, not
//! the replica, and closes the group on the spot. A group with no
//! success by the deadline is recorded in the [`CoverageReport`];
//! whether the query then fails or returns the partial merge is the
//! caller's [`PartialPolicy`]. A query no node could answer (wrong
//! dimension, `k = 0`, a zero shortlist factor) never leaves the
//! router: it gets the typed [`RpcError::BadRequest`] a node would have
//! sent, before any call is queued, and moves no degradation counter.
//!
//! # One loop
//!
//! [`Router::query`] is the fan-out's only event loop: every attempt of
//! every group reports `(shard, result)` on one channel, and the loop
//! wakes for an attempt result, the earliest hedge due, or the
//! deadline. It owns the deadline, so the router never blocks past it
//! however nodes die — attempts still on the wire are left to their
//! socket timeouts and report to nobody.
//!
//! # Connections
//!
//! As each HBM channel has one Top-K core for the whole run, each
//! replica has `POOL_SLOTS` (4) resident workers, started by
//! [`Router::connect`]. A worker owns one connection: dialled on first
//! use, dropped after a wire failure. A replica's workers take every
//! node call — a query's attempt or hedge, the `Info` fetch, an append,
//! a compaction — from one queue, in arrival order, and drop unsent an
//! attempt still queued past its query's deadline. So the request path
//! starts no thread, and a wedged replica holds at most four of a
//! router's connections. Dropping the router closes the queues; each
//! worker ends after its current call.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tkspmv::backend::{Query, QueryTier};
use tkspmv::TopKResult;
use tkspmv_obs::{
    Counter, QueryTrace, Registry, SpanNode, SpanRecord, SpanRing, Stage, StageSpan, TraceId,
};

use crate::client::{CallError, NodeClient};
use crate::delta::check_query;
use crate::error::{FabricError, RpcError, ShardFailure};
use crate::wire::{NodeInfo, WireError};
use crate::SparseRow;

/// Assembled traces the router keeps for the dump tool (`/traces`).
const TRACE_RING_CAPACITY: usize = 256;

/// The replica addresses of one shard group. All replicas serve the
/// same global row range; one answer covers the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Node addresses in preference order (primary first).
    pub replicas: Vec<String>,
}

impl ShardSpec {
    /// A group with a single, unreplicated node.
    pub fn single(addr: impl Into<String>) -> Self {
        Self {
            replicas: vec![addr.into()],
        }
    }

    /// A replicated group; the first address is the primary.
    pub fn replicated<I: IntoIterator<Item = S>, S: Into<String>>(addrs: I) -> Self {
        Self {
            replicas: addrs.into_iter().map(Into::into).collect(),
        }
    }
}

/// What a router does when some — but not all — shards fail a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialPolicy {
    /// Fail the query with [`FabricError::Partial`]; the coverage report
    /// rides in the error.
    Fail,
    /// Return the merged ranking over the shards that answered; the
    /// coverage report on the result says what is missing.
    Allow,
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Total per-query budget, connect to merged answer. Must clear
    /// every node's `max_wait` plus [`RouterConfig::headroom`]
    /// (validated at [`Router::connect`]).
    pub deadline: Duration,
    /// TCP connect budget of each dial.
    pub connect_timeout: Duration,
    /// Behaviour when shards fail (see [`PartialPolicy`]).
    pub partial: PartialPolicy,
    /// Required deadline margin above the slowest node's `max_wait` —
    /// the transport + execution budget. Size it to cover the node's
    /// p99 service time.
    pub headroom: Duration,
    /// Trace every query: generate a [`TraceId`], carry it to every
    /// node, and assemble the per-node span reports into one
    /// [`QueryTrace`] tree (returned on the result and kept in a
    /// bounded ring for the dump tool). Off by default — tracing costs
    /// a few extra wire bytes per query.
    pub trace: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            partial: PartialPolicy::Fail,
            headroom: Duration::from_millis(50),
            trace: false,
        }
    }
}

/// How one shard group fared in a fan-out.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome {
    /// The group answered; `replica` is the index that won.
    Answered {
        /// Index into the group's replica list.
        replica: usize,
    },
    /// The group produced no answer.
    Failed(ShardFailure),
}

/// Per-shard coverage of one fan-out: which groups answered, and why
/// the rest did not. Partial results always carry one of these.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    outcomes: Vec<ShardOutcome>,
}

impl CoverageReport {
    /// Total shard groups fanned out to.
    pub fn shards(&self) -> usize {
        self.outcomes.len()
    }

    /// Groups that answered.
    pub fn answered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Answered { .. }))
            .count()
    }

    /// Whether every group answered.
    pub fn is_complete(&self) -> bool {
        self.answered() == self.shards()
    }

    /// Per-group outcomes, in shard order.
    pub fn outcomes(&self) -> &[ShardOutcome] {
        &self.outcomes
    }

    /// The failed groups as `(shard index, failure)`.
    pub fn failures(&self) -> Vec<(usize, &ShardFailure)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                ShardOutcome::Failed(f) => Some((i, f)),
                ShardOutcome::Answered { .. } => None,
            })
            .collect()
    }
}

/// A routed answer: the merged ranking plus the coverage that produced
/// it. Under [`PartialPolicy::Allow`] the ranking may cover a subset of
/// shards — always check [`CoverageReport::is_complete`] before trusting
/// it as global.
#[derive(Debug, Clone)]
pub struct RoutedResult {
    /// The merged ranking, global row ids, engine total order.
    pub topk: TopKResult,
    /// Which shards contributed.
    pub coverage: CoverageReport,
    /// The assembled cross-node trace tree, when the router runs with
    /// [`RouterConfig::trace`] on.
    pub trace: Option<QueryTrace>,
}

/// The router's degradation counters and trace ring, shared with any
/// metrics endpoint.
struct RouterMetrics {
    registry: Registry,
    requests: Arc<Counter>,
    hedged_sends: Arc<Counter>,
    failovers: Arc<Counter>,
    deadline_expiries: Arc<Counter>,
    incomplete_coverage: Arc<Counter>,
    traces: SpanRing<QueryTrace>,
}

impl RouterMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter(
            "tkspmv_router_requests_total",
            "Queries fanned out by this router.",
        );
        let hedged_sends = registry.counter(
            "tkspmv_router_hedged_sends_total",
            "Replica attempts launched because the previous replica stayed silent past the hedge stagger.",
        );
        let failovers = registry.counter(
            "tkspmv_router_failovers_total",
            "Replica attempts launched immediately after a failed attempt.",
        );
        let deadline_expiries = registry.counter(
            "tkspmv_router_deadline_expiries_total",
            "Shard groups that produced no answer before the per-query deadline.",
        );
        let incomplete_coverage = registry.counter(
            "tkspmv_router_incomplete_coverage_total",
            "Queries whose coverage report had at least one failed shard group.",
        );
        Self {
            registry,
            requests,
            hedged_sends,
            failovers,
            deadline_expiries,
            incomplete_coverage,
            traces: SpanRing::new(TRACE_RING_CAPACITY),
        }
    }
}

/// Resident connection workers per replica.
const POOL_SLOTS: usize = 4;

/// A worker's connection: dialled on first use, dropped after a wire failure.
struct Conn {
    addr: String,
    connect_timeout: Duration,
    client: Option<NodeClient>,
}

impl Conn {
    fn run<T>(
        &mut self,
        f: impl FnOnce(&mut NodeClient) -> Result<T, CallError>,
    ) -> Result<T, CallError> {
        let client = match &mut self.client {
            Some(client) => client,
            empty => empty.insert(NodeClient::connect(&*self.addr, self.connect_timeout)?),
        };
        let result = f(client);
        if matches!(result, Err(CallError::Wire(_))) {
            self.client = None;
        }
        result
    }
}

/// A queued call, run by whichever of its replica's workers takes it.
type Call = Box<dyn FnOnce(&mut Conn) + Send>;

/// One replica: `POOL_SLOTS` workers, each owning a [`Conn`], on one queue.
struct Replica {
    calls: mpsc::Sender<Call>,
}

impl Replica {
    fn new(addr: &str, connect_timeout: Duration) -> Self {
        let (tx, rx) = mpsc::channel::<Call>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..POOL_SLOTS {
            let calls = Arc::clone(&rx);
            let mut conn = Conn {
                addr: addr.to_string(),
                connect_timeout,
                client: None,
            };
            #[expect(
                clippy::disallowed_methods,
                clippy::expect_used,
                reason = "long-lived: a replica's connection workers, ending when the router \
                          drops; invariant: spawn fails only on OS thread exhaustion"
            )]
            std::thread::Builder::new()
                .name("tkspmv-router-conn".to_string())
                .spawn(move || loop {
                    // The queue's lock is held only to wait for a call.
                    let next = calls.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(call) = next else { return };
                    call(&mut conn);
                })
                .expect("spawn connection worker");
        }
        Self { calls: tx }
    }

    /// Queues `call`; the workers keep the queue open while it has a sender.
    fn enqueue(&self, call: impl FnOnce(&mut Conn) + Send + 'static) {
        let _ = self.calls.send(Box::new(call));
    }

    /// Runs `f` on one of the replica's connections and waits for it.
    fn call<T: Send + 'static>(
        &self,
        f: impl FnOnce(&mut NodeClient) -> Result<T, CallError> + Send + 'static,
    ) -> Result<T, CallError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(move |conn| drop(tx.send(conn.run(f))));
        // Only a panic in the client loses the answer.
        let lost = || CallError::Wire(WireError::Io(std::io::Error::other("call lost")));
        rx.recv().unwrap_or_else(|_| Err(lost()))
    }
}

struct ShardGroup {
    replicas: Vec<Replica>,
    info: NodeInfo,
}

/// The fan-out router over a set of shard groups.
pub struct Router {
    shards: Vec<ShardGroup>,
    config: RouterConfig,
    dim: usize,
    metrics: Arc<RouterMetrics>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("dim", &self.dim)
            .field("config", &self.config)
            .finish()
    }
}

impl Router {
    /// Connects to every shard group's primary (falling back through
    /// replicas), validates the fleet, and builds the router.
    ///
    /// Validation, all with typed [`FabricError::InvalidConfig`]:
    /// at least one shard; equal dimensions; strictly increasing,
    /// contiguous global row ranges; and the deadline-budget contract —
    /// `deadline > max_wait + headroom` for the slowest node, so a query
    /// that waits the full `max_wait` for company (after a batch that
    /// had some) cannot be timed out by its own batcher.
    pub fn connect(specs: Vec<ShardSpec>, config: RouterConfig) -> Result<Self, FabricError> {
        if specs.is_empty() {
            return Err(FabricError::invalid_config("no shard groups configured"));
        }
        let mut shards = Vec::with_capacity(specs.len());
        for (i, spec) in specs.into_iter().enumerate() {
            if spec.replicas.is_empty() {
                return Err(FabricError::invalid_config(format!(
                    "shard group {i} has no replicas"
                )));
            }
            let replicas: Vec<Replica> = spec
                .replicas
                .iter()
                .map(|addr| Replica::new(addr, config.connect_timeout))
                .collect();
            let mut info = None;
            let mut last_err: Option<CallError> = None;
            for replica in &replicas {
                match replica.call(move |c| c.info(config.deadline)) {
                    Ok(i) => {
                        info = Some(i);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            let info = match info {
                Some(info) => info,
                None => {
                    return Err(last_err.map_or_else(
                        || {
                            FabricError::invalid_config(format!(
                                "shard group {i}: no replica reachable"
                            ))
                        },
                        FabricError::from,
                    ))
                }
            };
            shards.push(ShardGroup { replicas, info });
        }
        shards.sort_by_key(|s| s.info.start_row);

        let dim = shards[0].info.dim;
        let mut expected_start = shards[0].info.start_row;
        let mut slowest_wait = Duration::ZERO;
        for (i, s) in shards.iter().enumerate() {
            if s.info.dim != dim {
                return Err(FabricError::invalid_config(format!(
                    "shard group {i} has dimension {} but the fleet serves {dim}",
                    s.info.dim
                )));
            }
            if s.info.start_row != expected_start {
                return Err(FabricError::invalid_config(format!(
                    "shard group {i} starts at row {} but the previous group ends at {expected_start} \
                     (row ranges must be contiguous and non-overlapping)",
                    s.info.start_row
                )));
            }
            expected_start += s.info.total_rows();
            slowest_wait = slowest_wait.max(Duration::from_micros(s.info.max_wait_micros));
        }
        let floor = slowest_wait + config.headroom;
        if config.deadline <= floor {
            return Err(FabricError::invalid_config(format!(
                "deadline {:?} does not clear the deadline budget: the slowest node's batcher may \
                 hold a query up to {slowest_wait:?} (its max_wait, after a batch that had \
                 company) before it executes, and {:?} of headroom must remain for transport \
                 and execution; set deadline > {floor:?}",
                config.deadline, config.headroom
            )));
        }

        Ok(Self {
            shards,
            config,
            dim: dim as usize,
            metrics: Arc::new(RouterMetrics::new()),
        })
    }

    /// Renders the router's metrics (fan-out and degradation counters)
    /// in Prometheus plaintext exposition format.
    pub fn render_metrics(&self) -> String {
        self.metrics.registry.render()
    }

    /// The slowest `n` assembled query traces, descending by end-to-end
    /// latency. Empty unless [`RouterConfig::trace`] is on.
    pub fn slowest_traces(&self, n: usize) -> Vec<QueryTrace> {
        self.metrics.traces.slowest(n)
    }

    /// Serves the router's observability over HTTP on `bind` (port 0
    /// for ephemeral): `/metrics` answers Prometheus plaintext,
    /// `/traces` the slowest assembled trace trees as a JSON array.
    /// The endpoint lives until the returned server is dropped.
    pub fn serve_metrics(&self, bind: &str) -> std::io::Result<tkspmv_obs::MetricsServer> {
        let metrics = Arc::clone(&self.metrics);
        tkspmv_obs::MetricsServer::spawn(bind, move |path| {
            if path == "/metrics" {
                Some(metrics.registry.render())
            } else if path == "/traces" || path.starts_with("/traces?") {
                let traces = metrics.traces.slowest(16);
                let mut out = String::from("[");
                for (i, t) in traces.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&t.to_json());
                }
                out.push(']');
                Some(out)
            } else {
                None
            }
        })
    }

    /// Shard group count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Embedding dimension the fleet serves.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total rows across the fleet, as of [`Router::connect`].
    pub fn total_rows(&self) -> u64 {
        self.shards.iter().map(|s| s.info.total_rows()).sum()
    }

    /// The configured per-query deadline.
    pub fn deadline(&self) -> Duration {
        self.config.deadline
    }

    /// Fans `x` out to every shard group and merges the top `k` under
    /// the engine total order. Returns by the deadline, answered or not.
    ///
    /// # Errors
    ///
    /// [`RpcError::BadRequest`] for a query no node could answer (nothing
    /// is sent); [`FabricError::NoCoverage`] if every group failed;
    /// [`FabricError::Partial`] if some failed under
    /// [`PartialPolicy::Fail`]. Under [`PartialPolicy::Allow`] a partial
    /// answer is `Ok` and its [`CoverageReport`] names the gaps.
    pub fn query(&self, x: &[f32], k: usize, tier: QueryTier) -> Result<RoutedResult, FabricError> {
        let mut query = Query {
            tier,
            ..Query::new(k)
        };
        if let Err(e) = check_query(self.dim, x.len(), &query) {
            return Err(FabricError::Rpc(RpcError::BadRequest {
                detail: e.to_string(),
            }));
        }

        let start = Instant::now();
        self.metrics.requests.inc();
        if self.config.trace {
            query.trace = TraceId::generate();
        }
        let deadline = self.config.deadline;
        let x: Arc<[f32]> = Arc::from(x);
        let (tx, rx) = mpsc::channel::<(usize, Result<ShardAnswer, CallError>)>();
        // A replica attempt: a queued call that reports to the loop below.
        let launch = |shard: usize, replica: usize| {
            let (tx, x) = (tx.clone(), Arc::clone(&x));
            self.shards[shard].replicas[replica].enqueue(move |conn| {
                let sent = start.elapsed();
                if sent >= deadline {
                    return; // still queued at the deadline: the loop gave up
                }
                let attempt = Instant::now();
                let result = conn.run(|c| c.query_traced(&x, &query, deadline - sent));
                let rtt_us = us(attempt.elapsed());
                let _ = tx.send((
                    shard,
                    result.map(|(entries, node_trace)| ShardAnswer {
                        replica,
                        entries,
                        sent_us: us(sent),
                        rtt_us,
                        node_trace,
                    }),
                ));
            });
        };

        let mut groups: Vec<GroupState> = Vec::new();
        groups.resize_with(self.shards.len(), GroupState::default);
        let mut answers: Vec<Option<ShardAnswer>> = Vec::new();
        answers.resize_with(self.shards.len(), || None);
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        while groups.iter().any(|g| g.outcome.is_none()) {
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                break;
            }
            // Start what is due — a group's primary at 0, its next
            // replica after each further `deadline / replicas` of
            // silence — and wake for the earliest start still ahead.
            let mut wake = deadline;
            for (shard, g) in groups.iter_mut().enumerate() {
                let replicas = self.shards[shard].replicas.len();
                let due = |launched: usize| deadline / replicas as u32 * launched as u32;
                if g.outcome.is_some() || g.launched == replicas {
                    continue;
                }
                if elapsed >= due(g.launched) {
                    if g.launched > 0 {
                        self.metrics.hedged_sends.inc();
                    }
                    launch(shard, g.launched);
                    g.launched += 1;
                }
                if g.launched < replicas {
                    wake = wake.min(due(g.launched));
                }
            }
            let Ok((shard, result)) = rx.recv_timeout(wake.saturating_sub(elapsed)) else {
                continue;
            };
            let g = &mut groups[shard];
            if g.outcome.is_some() {
                // A closed group's straggler (the loser of a hedge race).
                continue;
            }
            match result {
                Ok(mut answer) => {
                    pairs.append(&mut answer.entries);
                    g.outcome = Some(ShardOutcome::Answered {
                        replica: answer.replica,
                    });
                    answers[shard] = Some(answer);
                }
                Err(e) => {
                    g.finished += 1;
                    let retryable = match e {
                        CallError::Rpc(rpc) => {
                            let retryable = rpc.is_retryable();
                            g.last_rpc = Some(rpc);
                            retryable
                        }
                        CallError::Wire(w) => {
                            g.saw_timeout |= w.is_timeout();
                            g.attempts.push(w.to_string());
                            true
                        }
                    };
                    if retryable && g.launched < self.shards[shard].replicas.len() {
                        // Fail over immediately; don't wait for the stagger.
                        self.metrics.failovers.inc();
                        launch(shard, g.launched);
                        g.launched += 1;
                    } else if !retryable || g.finished == g.launched {
                        g.outcome = Some(ShardOutcome::Failed(g.failure(false)));
                    }
                }
            }
        }
        let coverage = CoverageReport {
            outcomes: groups
                .iter_mut()
                .map(|g| match g.outcome.take() {
                    Some(outcome) => outcome,
                    None => ShardOutcome::Failed(g.failure(true)),
                })
                .collect(),
        };
        if !coverage.is_complete() {
            self.metrics.incomplete_coverage.inc();
        }
        let expired = coverage
            .outcomes()
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Failed(ShardFailure::DeadlineExceeded)))
            .count() as u64;
        if expired > 0 {
            self.metrics.deadline_expiries.add(expired);
        }

        let trace = self.config.trace.then(|| {
            let trace = assemble_trace(query.trace, start.elapsed(), &answers);
            self.metrics.traces.record(&trace);
            trace
        });

        if coverage.answered() == 0 {
            return Err(FabricError::NoCoverage { coverage });
        }
        if !coverage.is_complete() && self.config.partial == PartialPolicy::Fail {
            return Err(FabricError::Partial { coverage });
        }
        Ok(RoutedResult {
            topk: TopKResult::merge_pairs(pairs, k),
            coverage,
            trace,
        })
    }

    /// Appends rows to the fleet's tail shard group (the one serving the
    /// highest row range — the only place appends keep global ids
    /// contiguous). Every replica of the group must admit the rows (one
    /// copy, shared by every replica's call) with the same ids, returned.
    #[expect(
        clippy::expect_used,
        reason = "invariant: RouterConfig validation rejects an empty shard list and a group \
                  without replicas, so `tail` exists and the loop assigns `agreed`"
    )]
    pub fn append(&self, rows: &[SparseRow]) -> Result<Vec<u32>, FabricError> {
        let tail = self.shards.last().expect("validated non-empty");
        let rows: Arc<[SparseRow]> = Arc::from(rows);
        let deadline = self.config.deadline;
        let mut agreed: Option<Vec<u32>> = None;
        for replica in &tail.replicas {
            let rows = Arc::clone(&rows);
            let ids = replica.call(move |c| c.append(&rows, deadline))?;
            match &agreed {
                None => agreed = Some(ids),
                Some(prev) if *prev == ids => {}
                Some(prev) => {
                    return Err(FabricError::Rpc(RpcError::Internal {
                        detail: format!(
                            "replica id divergence on append: {:?} vs {:?} — replicas of a \
                             group must see appends in the same order",
                            prev, ids
                        ),
                    }))
                }
            }
        }
        Ok(agreed.expect("validated non-empty replica set"))
    }

    /// Asks every node in the fleet to fold its delta shard now.
    /// Returns `(epoch, folded)` per shard group (from the primary).
    pub fn compact_all(&self) -> Result<Vec<(u64, u64)>, FabricError> {
        let deadline = self.config.deadline;
        let mut results = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let mut first = None;
            for replica in &shard.replicas {
                let r = replica.call(move |c| c.compact(deadline))?;
                if first.is_none() {
                    first = Some(r);
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "invariant: validation guarantees at least one replica per group, so the \
                          loop assigned it"
            )]
            results.push(first.expect("validated non-empty replica set"));
        }
        Ok(results)
    }
}

/// One answered shard group's contribution: the winning replica, the
/// entries it ranked, and — for trace assembly — when the winning
/// attempt was sent (offset from query start), its wire round-trip, and
/// the node's span report (absent for untraced queries).
struct ShardAnswer {
    replica: usize,
    entries: Vec<(u32, f64)>,
    sent_us: u32,
    rtt_us: u32,
    node_trace: Option<SpanRecord>,
}

/// One shard group's progress through a fan-out.
#[derive(Default)]
struct GroupState {
    /// Replica attempts started, in preference order.
    launched: usize,
    /// Attempts that reported a failure.
    finished: usize,
    /// Whether any failed attempt was a socket timeout.
    saw_timeout: bool,
    /// The wire failures, stringified in the order they arrived.
    attempts: Vec<String>,
    /// The latest node-side error.
    last_rpc: Option<RpcError>,
    /// `None` while the group is open.
    outcome: Option<ShardOutcome>,
}

impl GroupState {
    /// Why the group has no answer. Cut off `at_deadline`, a timeout or
    /// plain silence is the deadline's doing whatever else was seen;
    /// otherwise (every attempt reported, or one was non-retryable) a
    /// node's own words outrank a timeout, which outranks other io.
    fn failure(&mut self, at_deadline: bool) -> ShardFailure {
        let rpc = self.last_rpc.take();
        let silent = rpc.is_none() && self.attempts.is_empty();
        if at_deadline && (self.saw_timeout || silent) {
            return ShardFailure::DeadlineExceeded;
        }
        match rpc {
            Some(e) => ShardFailure::Rpc(e),
            None if self.saw_timeout => ShardFailure::DeadlineExceeded,
            None => ShardFailure::Unreachable {
                attempts: std::mem::take(&mut self.attempts),
            },
        }
    }
}

/// Saturating microseconds for span arithmetic.
fn us(d: Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

/// Assembles one fan-out's cross-node trace tree.
///
/// Shape: the root `router` span covers the whole query; each answered
/// group contributes a `shard{i}` child at its send offset covering the
/// wire round-trip, carrying a [`Stage::Wire`] span for the portion of
/// the round-trip the node itself cannot account for; a node that
/// reported spans adds a `node` grandchild (placed so it ends with the
/// round-trip) holding its own per-stage spans. Every offset and
/// duration is clamped into its parent, so the result satisfies
/// [`QueryTrace::is_well_formed`] by construction even when the node's
/// clock and the router's disagree.
fn assemble_trace(
    trace_id: TraceId,
    total: Duration,
    answers: &[Option<ShardAnswer>],
) -> QueryTrace {
    let total_us = us(total);
    let mut root = SpanNode::new("router", 0, total_us);
    for (i, answer) in answers.iter().enumerate() {
        let Some(a) = answer else { continue };
        let sent_us = a.sent_us.min(total_us);
        let rtt_us = a.rtt_us.min(total_us - sent_us);
        let mut shard = SpanNode::new(format!("shard{i}"), sent_us, rtt_us);
        let node_total = a
            .node_trace
            .as_ref()
            .map(|t| t.total_us.min(rtt_us))
            .unwrap_or(0);
        // Wire time: the round-trip minus what the node accounts for.
        if rtt_us > node_total {
            shard.stages.push(StageSpan {
                stage: Stage::Wire,
                start_us: 0,
                dur_us: rtt_us - node_total,
            });
        }
        if let Some(node_trace) = &a.node_trace {
            let mut node = SpanNode::new("node", rtt_us - node_total, node_total);
            // A budget caps the stage sum at the node interval even if a
            // peer reports overlapping spans.
            let mut budget = node_total;
            for s in node_trace.spans() {
                let start_us = s.start_us.min(node_total);
                let dur_us = s.dur_us.min(node_total - start_us).min(budget);
                budget -= dur_us;
                if dur_us > 0 {
                    node.stages.push(StageSpan {
                        stage: s.stage,
                        start_us,
                        dur_us,
                    });
                }
            }
            shard.children.push(node);
        }
        root.children.push(shard);
    }
    QueryTrace {
        trace_id,
        total_us: u64::from(total_us),
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row the fan-out's failure reporting distinguishes, through
    /// the one classifier.
    #[test]
    #[rustfmt::skip] // one row per line
    fn failure_classifier_table() {
        let rpc = || Some(RpcError::Overloaded);
        let node_said = || ShardFailure::Rpc(RpcError::Overloaded);
        let strings = |attempts: &[&str]| attempts.iter().map(|a| a.to_string()).collect();
        let unreachable = |attempts: &[&str]| ShardFailure::Unreachable {
            attempts: strings(attempts),
        };
        let row = |what, saw_timeout, attempts: &[&str], last_rpc, at_deadline, expected| {
            let mut g = GroupState {
                saw_timeout,
                attempts: strings(attempts),
                last_rpc,
                ..GroupState::default()
            };
            assert_eq!(g.failure(at_deadline), expected, "{what}");
        };
        let expired = ShardFailure::DeadlineExceeded;
        // what the group saw | saw_timeout | wire failures | last rpc | at_deadline | expected
        row("timeout + rpc, cut off by the deadline", true, &["timed out"], rpc(), true, expired.clone());
        row("timeout + rpc, every attempt reported", true, &["timed out"], rpc(), false, node_said());
        row("silence at the deadline", false, &[], None, true, expired.clone());
        row("rpc only, at the deadline", false, &[], rpc(), true, node_said());
        row("io + rpc, at the deadline", false, &["refused"], rpc(), true, node_said());
        row("io + timeout, every attempt reported", true, &["refused", "timed out"], None, false, expired);
        row("io only, every attempt reported", false, &["refused", "reset"], None, false, unreachable(&["refused", "reset"]));
        row("io only, at the deadline", false, &["refused", "reset"], None, true, unreachable(&["refused", "reset"]));
    }
}
