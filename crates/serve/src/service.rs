//! The serving engine: bounded admission, dynamic micro-batching, a
//! batcher that runs each batch over its shards one after another,
//! cross-shard merge, metrics and shutdown.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkspmv::backend::{MatrixShard, PreparedMatrix, Query, QueryTier, TopKBackend};
use tkspmv::{EngineError, TopKResult};
use tkspmv_obs::{SpanRecord, Stages, TraceId};
use tkspmv_sparse::{Csr, DenseVector};

use crate::batch::BatchPolicy;
use crate::error::ServeError;
use crate::metrics::{MetricsShared, ServiceMetrics, StageBreakdown};

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the serving loops must keep running through backend panics.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Stringifies a caught panic payload for [`ServeError::WorkerPanicked`].
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One answered request: the merged ranking plus serving facts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedResult {
    /// The cross-shard merged Top-K, best first.
    pub topk: TopKResult,
    /// End-to-end latency, from admission to response.
    pub latency: Duration,
    /// Queries in the backend batch this request rode in (1 when the
    /// policy is [`BatchPolicy::immediate`] or traffic was idle).
    pub batch_size: usize,
    /// The precision tier this request was answered at.
    pub tier: QueryTier,
    /// Where the request spent its time, stage by stage (queue wait,
    /// batch coalesce, engine — with the stage split its shard calls
    /// measured — and cross-shard merge).
    pub stages: StageBreakdown,
}

/// A claim on an in-flight request, returned by [`TopKService::submit`].
///
/// Dropping the ticket abandons the response (the work still runs); the
/// service never blocks on an unclaimed ticket.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServedResult, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Whatever the serving layer reports for the request — see
    /// [`ServeError`].
    pub fn wait(self) -> Result<ServedResult, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// One generation of the served collection: the prepared row shards
/// plus a monotonically increasing id.
///
/// Epochs are immutable once installed. A request is stamped with the
/// current epoch at admission and carries that `Arc` through batching
/// and execution, so a hot swap never changes what an in-flight request
/// runs against — the old epoch simply drops when its last request (and
/// the service handle) let go of it.
struct Epoch {
    id: u64,
    shards: Vec<MatrixShard>,
    num_rows: usize,
}

/// A request admitted to the submission queue.
struct Pending {
    x: DenseVector,
    /// What the caller asked for. The batcher never mixes `k`s or tiers
    /// inside one backend batch; the trace id files its span record
    /// ([`TraceId::ZERO`] when untraced).
    query: Query,
    enqueued: Instant,
    /// When the batcher moved this request out of the submission queue
    /// and into a forming batch (= `enqueued` until that happens).
    /// Queue wait is `extracted - enqueued`; coalesce wait is
    /// `dispatched - extracted`.
    extracted: Instant,
    /// The collection generation this request was admitted against.
    epoch: Arc<Epoch>,
    tx: mpsc::Sender<Result<ServedResult, ServeError>>,
}

/// The response half of a batched request.
struct Responder {
    enqueued: Instant,
    /// Time spent in the submission queue before joining a batch.
    queue_wait: Duration,
    /// Time spent in the forming batch before dispatch.
    coalesce_wait: Duration,
    trace: TraceId,
    tx: mpsc::Sender<Result<ServedResult, ServeError>>,
}

/// One query's answer from one shard: its globalized `(row, score)`
/// candidates and the engine stage times its result carried.
type ShardAnswer = (Vec<(u32, f64)>, Stages);

/// What one shard contributes to a batch: one answer per query, or the
/// shard's failure.
type ShardOutcome = Result<Vec<ShardAnswer>, ServeError>;

/// Runs a batch against one shard's prepared partition and globalizes
/// the row indices. A backend panic is caught here and reported as
/// [`ServeError::WorkerPanicked`], so it costs this batch at most.
fn run_shard(
    backend: &dyn TopKBackend,
    shard: &MatrixShard,
    batch: &[DenseVector],
    query: &Query,
) -> ShardOutcome {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let results = backend.answer(shard.matrix(), batch, query)?;
        Ok(results
            .iter()
            .map(|r| (shard.globalize(&r.topk), r.stats.stage_times()))
            .collect())
    }));
    match ran {
        Ok(Ok(answers)) => Ok(answers),
        Ok(Err(e)) => Err(ServeError::Engine(e)),
        Err(payload) => Err(ServeError::WorkerPanicked {
            detail: panic_detail(payload),
        }),
    }
}

/// Merges every shard's candidates per query and answers every
/// responder; the first shard failure, if any, goes to all of them.
/// `engine` is the wall time of the batch's shard calls, which ran one
/// after another, so each query's stage split — the sum of its shard
/// calls' splits — is exact and fits inside it.
fn finalize(
    metrics: &MetricsShared,
    query: &Query,
    responders: Vec<Responder>,
    shards: Vec<ShardOutcome>,
    engine: Duration,
) {
    let batch_size = responders.len();
    let mut stages = vec![Stages::default(); batch_size];
    let mut failure: Option<ServeError> = None;
    let mut per_query: Vec<Vec<(u32, f64)>> = vec![Vec::new(); batch_size];
    for outcome in shards {
        match outcome {
            Ok(shard_results) => {
                for (q, (pairs, shard_stages)) in shard_results.into_iter().enumerate() {
                    per_query[q].extend(pairs);
                    for (stage, d) in shard_stages.iter() {
                        stages[q].add(stage, d);
                    }
                }
            }
            Err(e) => {
                failure.get_or_insert(e);
            }
        }
    }
    // Merge first, record, then respond. Counters and histograms record
    // lock-free, so nothing here can stall submitters. Recording
    // *before* the sends keeps a blocking caller's next metrics()
    // snapshot consistent with the response it just received.
    let tier_label = match query.tier {
        QueryTier::Exact => Cow::Borrowed("exact"),
        tier => Cow::Owned(tier.to_string()),
    };
    metrics.record_batch(batch_size, engine);
    if let Some(error) = failure {
        metrics.record_failed(&tier_label, batch_size as u64);
        for responder in &responders {
            // A dropped ticket is fine; everyone else gets the first
            // shard failure.
            let _ = responder.tx.send(Err(error.clone()));
        }
        return;
    }
    let mut outputs = Vec::with_capacity(batch_size);
    for ((responder, pairs), engine_stages) in responders.into_iter().zip(per_query).zip(stages) {
        let merge_started = Instant::now();
        let topk = TopKResult::merge_pairs(pairs, query.k);
        let stages = StageBreakdown {
            queue: responder.queue_wait,
            coalesce: responder.coalesce_wait,
            engine,
            engine_stages,
            merge: merge_started.elapsed(),
        };
        let latency = responder.enqueued.elapsed();
        outputs.push((responder.tx, topk, latency, stages, responder.trace));
    }
    metrics.record_served(
        &tier_label,
        outputs
            .iter()
            .map(|(_, _, latency, stages, trace)| (*latency, stages.stages(), *trace)),
    );
    for (tx, topk, latency, stages, _) in outputs {
        let _ = tx.send(Ok(ServedResult {
            topk,
            latency,
            batch_size,
            tier: query.tier,
            stages,
        }));
    }
}

/// The bounded submission queue guarded by `Inner::submit`.
struct SubmitQueue {
    queue: VecDeque<Pending>,
    /// Cleared when shutdown begins: nothing new is admitted, but the
    /// batcher keeps draining what is already queued.
    open: bool,
}

/// State shared by the service handle and the batcher.
struct Inner {
    backend: Arc<dyn TopKBackend>,
    /// Shard slots; `epoch.shards` always has this length (enforced at
    /// build and swap time).
    num_shards: usize,
    /// The collection generation new admissions are stamped with.
    epoch: Mutex<Arc<Epoch>>,
    submit: Mutex<SubmitQueue>,
    submit_cv: Condvar,
    policy: BatchPolicy,
    queue_capacity: usize,
    dim: usize,
    metrics: MetricsShared,
}

impl Inner {
    /// The collection generation new admissions would be stamped with.
    fn current_epoch(&self) -> Arc<Epoch> {
        Arc::clone(&lock(&self.epoch))
    }

    /// Runs a coalesced set of same-`k`, same-tier, same-epoch requests
    /// against every shard of their epoch, one shard after another (each
    /// backend call fans out over the whole compute pool), then merges
    /// and responds.
    fn run_batch(&self, members: Vec<Pending>) {
        // The batch's shared options; its members' trace ids stay with
        // their responders.
        let query = Query {
            trace: TraceId::ZERO,
            ..members[0].query
        };
        let epoch = Arc::clone(&members[0].epoch);
        let dispatched = Instant::now();
        let mut queries = Vec::with_capacity(members.len());
        let mut responders = Vec::with_capacity(members.len());
        for pending in members {
            debug_assert!(Arc::ptr_eq(&epoch, &pending.epoch));
            debug_assert_eq!(query.tier, pending.query.tier);
            queries.push(pending.x);
            responders.push(Responder {
                enqueued: pending.enqueued,
                queue_wait: pending
                    .extracted
                    .saturating_duration_since(pending.enqueued),
                coalesce_wait: dispatched.saturating_duration_since(pending.extracted),
                trace: pending.query.trace,
                tx: pending.tx,
            });
        }
        // The shard data comes from the batch's epoch, not from any
        // global "current" state: a hot swap installed after these
        // requests were admitted must not change what they run against.
        let started = Instant::now();
        let outcomes = epoch
            .shards
            .iter()
            .map(|shard| run_shard(self.backend.as_ref(), shard, &queries, &query))
            .collect();
        finalize(
            &self.metrics,
            &query,
            responders,
            outcomes,
            started.elapsed(),
        );
    }
}

/// Moves queued requests compatible with the seed — same `k`, same
/// precision tier *and* same collection epoch — into `members`,
/// preserving the queue order of everything left behind.
///
/// One O(len) rotation — every entry is popped once and either joins
/// the batch or returns to the back in its original relative order — so
/// batch formation never does quadratic element shifting while holding
/// the submit mutex. Epoch matching is what keeps a hot swap linear:
/// requests admitted against the old collection never share a backend
/// batch with requests admitted against the new one. Tier matching is
/// the same discipline for precision: an exact request never rides a
/// pruned batch (or vice versa), so every response honours the
/// precision contract its caller asked for.
fn extract_compatible(queue: &mut VecDeque<Pending>, members: &mut Vec<Pending>, max: usize) {
    let Query { k, tier, .. } = members[0].query;
    let epoch = Arc::clone(&members[0].epoch);
    let now = Instant::now();
    for _ in 0..queue.len() {
        #[expect(
            clippy::expect_used,
            reason = "invariant: the loop bound caps iterations at the queue length"
        )]
        let mut pending = queue.pop_front().expect("len checked by the loop bound");
        if members.len() < max
            && pending.query.k == k
            && pending.query.tier == tier
            && Arc::ptr_eq(&pending.epoch, &epoch)
        {
            pending.extracted = now;
            members.push(pending);
        } else {
            queue.push_back(pending);
        }
    }
}

/// The batcher thread: seed, coalesce under the policy, run the batch,
/// repeat until shutdown has drained the queue.
///
/// Work-conserving: the batcher is idle whenever it picks a seed, so a
/// seed waits for company only when the previous batch had some. After
/// a batch of one (and at start) traffic is sparse, and a wait would
/// buy latency without batch size; the seed leaves at once, with any
/// compatible requests already queued. After a batch with company the
/// seed waits as the policy says, which keeps a closed-loop client
/// population's trickling refill in one batch. The coalescing deadline
/// counts from the seed's admission, so a request that arrived while
/// the previous batch ran leaves as soon as the batcher is free if its
/// window has already closed; its wait shows up as queue time. No lock
/// is held while a batch runs.
fn batcher_loop(inner: &Inner) {
    let mut last_batch_size = 0;
    loop {
        let mut seed = {
            let mut q = lock(&inner.submit);
            loop {
                if let Some(pending) = q.queue.pop_front() {
                    break pending;
                }
                if !q.open {
                    // Shutdown and fully drained: close shop.
                    return;
                }
                q = inner
                    .submit_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                inner.metrics.record_wakeup();
            }
        };
        inner.metrics.record_wakeup();
        seed.extracted = Instant::now();
        let deadline = seed.enqueued + inner.policy.max_wait;
        let mut members = vec![seed];
        let max = inner.policy.max_batch_size;
        if max > 1 {
            let mut q = lock(&inner.submit);
            loop {
                extract_compatible(&mut q.queue, &mut members, max);
                if last_batch_size <= 1 || members.len() >= max || !q.open {
                    break;
                }
                // After extraction the queue holds only incompatible
                // requests; once a full batch of that work is waiting,
                // stop coalescing and run, so mixed-k traffic cannot
                // head-of-line block the engine for max_wait.
                if q.queue.len() >= max {
                    break;
                }
                // An expired deadline (always, for a zero max_wait)
                // dispatches what was scooped up without waiting.
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                q = inner
                    .submit_cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                inner.metrics.record_wakeup();
            }
        }
        last_batch_size = members.len();
        // A panic past the shard calls' own guards (merge or response
        // code) drops this batch's senders, so its tickets resolve to
        // `Disconnected` instead of hanging, and the batcher lives on.
        let _ = catch_unwind(AssertUnwindSafe(|| inner.run_batch(members)));
    }
}

/// Prepares a collection's row shards for an epoch, mapping engine
/// errors the way the serving layer reports them.
fn prepare_epoch_shards(
    backend: &dyn TopKBackend,
    csr: &Csr,
    shards: usize,
) -> Result<Vec<MatrixShard>, ServeError> {
    PreparedMatrix::prepare_row_shards(backend, csr, shards).map_err(|e| match e {
        EngineError::InvalidConfig { .. } => ServeError::InvalidConfig {
            detail: e.to_string(),
        },
        other => ServeError::Engine(other),
    })
}

/// Checks that a shard set is usable as an epoch: the expected slot
/// count, the service backend's family, one shared dimension, and a
/// contiguous row cover starting at row 0. Returns `(dim, total_rows)`.
///
/// The family check is what keeps a swap atomic in the failure case
/// too: without it, foreign shards would install as a "successful"
/// epoch whose every query then fails in the backend's downcast —
/// bricking a previously healthy service.
fn validate_shard_layout(
    shards: &[MatrixShard],
    expected: usize,
    family: &str,
) -> Result<(usize, usize), ServeError> {
    if shards.is_empty() || shards.len() != expected {
        return Err(ServeError::invalid_config(format!(
            "epoch needs exactly {expected} shard(s), got {}",
            shards.len()
        )));
    }
    let dim = shards[0].matrix().num_cols();
    let mut next_row = 0usize;
    for (i, shard) in shards.iter().enumerate() {
        if shard.matrix().family() != family {
            return Err(ServeError::invalid_config(format!(
                "shard {i} was prepared by backend family `{}`, service runs `{family}`",
                shard.matrix().family()
            )));
        }
        if shard.matrix().num_cols() != dim {
            return Err(ServeError::invalid_config(format!(
                "shard {i} has dimension {}, shard 0 has {dim}",
                shard.matrix().num_cols()
            )));
        }
        if shard.start_row() != next_row {
            return Err(ServeError::invalid_config(format!(
                "shard {i} starts at row {}, expected {next_row} (shards must \
                 cover the rows contiguously from 0)",
                shard.start_row()
            )));
        }
        if shard.num_rows() == 0 {
            return Err(ServeError::invalid_config(format!(
                "shard {i} holds no rows"
            )));
        }
        next_row += shard.num_rows();
    }
    Ok((dim, next_row))
}

/// Configures and builds a [`TopKService`].
///
/// Obtained from [`TopKService::builder`]; every knob has a production
/// default, so `builder(backend).build(&collection)` is a working
/// service.
pub struct ServiceBuilder {
    backend: Arc<dyn TopKBackend>,
    shards: usize,
    policy: BatchPolicy,
    queue_capacity: usize,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("backend", &self.backend.name())
            .field("shards", &self.shards)
            .field("policy", &self.policy)
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}

impl ServiceBuilder {
    /// Row shards to split the collection into (default 2). Each shard
    /// is prepared independently, mirroring the paper's per-HBM-channel
    /// partitions one level up, and is the unit a snapshot persists. A
    /// batch runs its shards one after another, and each shard's backend
    /// call fans out over the whole compute pool, so the shard count sets
    /// the data layout, not how many threads run.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The micro-batching policy (default [`BatchPolicy::default`]).
    #[must_use]
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounded submission-queue capacity (default 1024). Submissions
    /// beyond it are shed with [`ServeError::QueueFull`].
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Prepares every shard through the backend and starts the batcher
    /// thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for unusable knobs (zero queue
    /// capacity, zero-sized batches, shard count outside
    /// `1..=rows`); [`ServeError::Engine`] if the backend rejects a
    /// shard in `prepare`.
    ///
    /// # Panics
    ///
    /// Panics only if the OS refuses to spawn the batcher thread.
    pub fn build(self, csr: &Csr) -> Result<TopKService, ServeError> {
        let shards = prepare_epoch_shards(self.backend.as_ref(), csr, self.shards)?;
        self.build_from_shards(shards)
    }

    /// Starts the service over already-prepared shards — the cold-start
    /// path for collections persisted with `PreparedMatrix::save`: load
    /// each shard's snapshot, wrap it in a `MatrixShard`, and the server
    /// is up without re-paying a single `prepare`.
    ///
    /// The `shards` knob is ignored on this path; the shard count is
    /// `shards.len()`, and the set must be a contiguous row cover of one
    /// dimension (validated here).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for unusable knobs or a shard set
    /// that is empty, non-contiguous, or mixes dimensions.
    ///
    /// # Panics
    ///
    /// Panics only if the OS refuses to spawn the batcher thread.
    pub fn build_from_shards(self, shards: Vec<MatrixShard>) -> Result<TopKService, ServeError> {
        self.policy.validate()?;
        if self.queue_capacity == 0 {
            return Err(ServeError::invalid_config(
                "queue_capacity must be at least 1",
            ));
        }
        let (dim, num_rows) = validate_shard_layout(&shards, shards.len(), &self.backend.family())?;
        let num_shards = shards.len();
        let inner = Arc::new(Inner {
            backend: self.backend,
            num_shards,
            epoch: Mutex::new(Arc::new(Epoch {
                id: 0,
                shards,
                num_rows,
            })),
            submit: Mutex::new(SubmitQueue {
                queue: VecDeque::new(),
                open: true,
            }),
            submit_cv: Condvar::new(),
            policy: self.policy,
            queue_capacity: self.queue_capacity,
            dim,
            metrics: MetricsShared::new(self.policy.max_batch_size),
        });

        #[expect(
            clippy::disallowed_methods,
            clippy::expect_used,
            reason = "long-lived: the batcher, one per service; invariant: spawn fails only on OS \
                      thread exhaustion, and the service cannot run without its batcher"
        )]
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("tkspmv-serve-batcher".to_string())
                .spawn(move || batcher_loop(&inner))
                .expect("spawn batcher thread")
        };
        Ok(TopKService {
            inner,
            batcher: Some(batcher),
        })
    }
}

/// A sharded, micro-batching Top-K similarity service over any
/// [`TopKBackend`].
///
/// The collection is split into row shards, each prepared once and held
/// resident for the life of its epoch (the serving-layer picture of the
/// paper's matrix-resident HBM channels). Concurrent callers
/// [`submit`](TopKService::submit) queries into a bounded queue; the one
/// service thread, the batcher, coalesces them under a [`BatchPolicy`]
/// and runs each batch against every shard, one shard after another;
/// per-shard Top-K answers are merged with [`TopKResult::merge_pairs`]
/// and handed back through [`Ticket`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tkspmv::Accelerator;
/// use tkspmv_serve::{BatchPolicy, TopKService};
/// use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
///
/// let collection = SyntheticConfig {
///     num_rows: 1_000,
///     num_cols: 128,
///     avg_nnz_per_row: 12,
///     distribution: NnzDistribution::Uniform,
///     seed: 3,
/// }
/// .generate();
/// let backend = Arc::new(Accelerator::builder().cores(4).k(8).build()?);
/// let service = TopKService::builder(backend)
///     .shards(2)
///     .batch_policy(BatchPolicy::default())
///     .build(&collection)?;
///
/// let answer = service.query(query_vector(128, 7), 5)?;
/// assert_eq!(answer.topk.len(), 5);
/// let finale = service.shutdown();
/// assert_eq!(finale.served, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TopKService {
    inner: Arc<Inner>,
    batcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("backend", &self.backend.name())
            .field("shards", &self.num_shards)
            .field("dim", &self.dim)
            .field("epoch", &self.current_epoch().id)
            .finish_non_exhaustive()
    }
}

impl TopKService {
    /// Starts configuring a service over `backend`.
    pub fn builder(backend: Arc<dyn TopKBackend>) -> ServiceBuilder {
        ServiceBuilder {
            backend,
            shards: 2,
            policy: BatchPolicy::default(),
            queue_capacity: 1024,
        }
    }

    /// Query-vector dimension the service expects (fixed for the
    /// service's lifetime; hot swaps must keep it).
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Rows (embeddings) in the currently served collection epoch.
    pub fn num_rows(&self) -> usize {
        self.inner.current_epoch().num_rows
    }

    /// Row shards the collection is split into.
    pub fn num_shards(&self) -> usize {
        self.inner.num_shards
    }

    /// The collection epoch new admissions are served from (0 at build;
    /// each successful swap increments it).
    pub fn epoch(&self) -> u64 {
        self.inner.current_epoch().id
    }

    /// The micro-batching policy the service was built with.
    ///
    /// Embedding layers (an RPC node wrapping this service) publish it so
    /// *their* callers can budget deadlines correctly. A seed that
    /// follows a batch with company may legitimately sit the full
    /// `max_wait` in the batcher before it reaches a backend (a request
    /// on an idle service after a batch of one leaves at once), so any
    /// deadline stacked on top of the service must exceed `max_wait`
    /// plus expected execution time (and, under load, the batch already
    /// running), or such a request times out spuriously.
    pub fn batch_policy(&self) -> BatchPolicy {
        self.inner.policy
    }

    /// The bounded submission-queue capacity (submissions beyond it shed
    /// with [`ServeError::QueueFull`]).
    pub fn queue_capacity(&self) -> usize {
        self.inner.queue_capacity
    }

    /// Hot-swaps the served collection to `csr` under live traffic —
    /// the rolling-update primitive: re-prepare the new collection's
    /// shards (the expensive part, done before anything changes), then
    /// atomically install them as a new epoch.
    ///
    /// Zero downtime, zero lost requests: requests admitted before the
    /// swap finish against the collection they were admitted to (their
    /// epoch travels with them through batching and execution), requests
    /// admitted after are answered from the new collection, and nothing
    /// restarts — each batch runs against the epoch its members carry.
    /// The batcher never mixes epochs inside one backend batch.
    ///
    /// The new collection must keep the service's dimension and support
    /// the configured shard count; its row count may differ (growing the
    /// collection is the point).
    ///
    /// Returns the new epoch id.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a dimension mismatch or a
    /// collection too small for the shard count; [`ServeError::Engine`]
    /// if the backend rejects a shard in `prepare`. On error the old
    /// epoch keeps serving untouched.
    pub fn swap_collection(&self, csr: &Csr) -> Result<u64, ServeError> {
        if csr.num_cols() != self.inner.dim {
            return Err(ServeError::invalid_config(format!(
                "new collection has dimension {}, service expects {}",
                csr.num_cols(),
                self.inner.dim
            )));
        }
        let shards = prepare_epoch_shards(self.inner.backend.as_ref(), csr, self.num_shards())?;
        self.install_epoch(shards)
    }

    /// Hot-swaps to already-prepared shards — the snapshot path: load
    /// each shard with `PreparedMatrix::load`, wrap in `MatrixShard`s,
    /// and swap without the service ever touching raw CSR. Semantics are
    /// exactly [`TopKService::swap_collection`]'s.
    ///
    /// Returns the new epoch id.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] if the shard set does not match the
    /// service's shard count or dimension, or is not a contiguous row
    /// cover. On error the old epoch keeps serving untouched.
    pub fn swap_shards(&self, shards: Vec<MatrixShard>) -> Result<u64, ServeError> {
        let (dim, _) =
            validate_shard_layout(&shards, self.num_shards(), &self.inner.backend.family())?;
        if dim != self.inner.dim {
            return Err(ServeError::invalid_config(format!(
                "new shards have dimension {dim}, service expects {}",
                self.inner.dim
            )));
        }
        self.install_epoch(shards)
    }

    /// Atomically publishes a validated shard set as the next epoch.
    fn install_epoch(&self, shards: Vec<MatrixShard>) -> Result<u64, ServeError> {
        let num_rows = shards.iter().map(MatrixShard::num_rows).sum();
        let mut current = lock(&self.inner.epoch);
        let id = current.id + 1;
        *current = Arc::new(Epoch {
            id,
            shards,
            num_rows,
        });
        // Recorded while still holding the epoch lock so concurrent
        // swaps cannot interleave install and record — the epoch gauge
        // always matches the installed epoch.
        self.inner.metrics.record_swap(id);
        Ok(id)
    }

    /// Admits a query into the submission queue, returning a [`Ticket`]
    /// for the response. Never blocks on backend work.
    ///
    /// `query` is a [`Query`], or a bare `k` for an exact-tier, untraced
    /// one. A [`QueryTier::Pruned`] request rides the staged low-bit
    /// prune + exact rescore pipeline when the service backend supports
    /// it (a `PrunedBackend`). Batches never mix tiers, so an exact
    /// request never pays for — or benefits from — a pruned neighbour.
    /// The request's span record (see [`TopKService::slowest_spans`]) is
    /// filed under the query's trace id.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a query that fails
    /// [`Query::check`] (checked before queueing),
    /// [`ServeError::QueueFull`] when the bounded queue sheds the
    /// request, [`ServeError::ShuttingDown`] after
    /// [`shutdown`](TopKService::shutdown) has begun. A pruned-tier
    /// request against a backend without a staged pipeline fails at
    /// execution with [`ServeError::Engine`], not silently downgraded.
    pub fn submit(&self, x: DenseVector, query: impl Into<Query>) -> Result<Ticket, ServeError> {
        let query = query.into();
        query
            .check(self.inner.dim, x.len())
            .map_err(ServeError::BadRequest)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.inner.submit);
            if !q.open {
                return Err(ServeError::ShuttingDown);
            }
            if q.queue.len() >= self.inner.queue_capacity {
                self.inner.metrics.record_shed();
                return Err(ServeError::QueueFull {
                    capacity: self.inner.queue_capacity,
                });
            }
            // Stamp the epoch while holding the submit lock, so
            // "admitted before the swap" and "stamped with the old
            // epoch" are the same set of requests.
            let now = Instant::now();
            q.queue.push_back(Pending {
                x,
                query,
                enqueued: now,
                // Re-stamped by the batcher at extraction; seeded here so
                // a request never reports uninitialised queue wait.
                extracted: now,
                epoch: self.inner.current_epoch(),
                tx,
            });
        }
        self.inner.submit_cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits and blocks for the answer — the closed-loop client call.
    ///
    /// # Errors
    ///
    /// As [`TopKService::submit`], plus whatever the execution reports.
    pub fn query(
        &self,
        x: DenseVector,
        query: impl Into<Query>,
    ) -> Result<ServedResult, ServeError> {
        self.submit(x, query)?.wait()
    }

    /// Snapshots the service's metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        self.inner.metrics.snapshot()
    }

    /// Renders the service's metrics in Prometheus plaintext exposition
    /// format, ready to answer a `/metrics` scrape: the series
    /// [`TopKService::metrics`] snapshots, with full latency histograms,
    /// plus the per-tier (`tkspmv_serve_tier_*`), per-stage
    /// (`tkspmv_serve_stage_seconds`) and engine-time
    /// (`tkspmv_serve_engine_microseconds_total`) series.
    pub fn render_metrics(&self) -> String {
        self.inner.metrics.render()
    }

    /// Returns the slowest `n` recently served requests' stage spans,
    /// slowest first, from the service's bounded span ring.
    pub fn slowest_spans(&self, n: usize) -> Vec<SpanRecord> {
        self.inner.metrics.slowest_spans(n)
    }

    /// Gracefully shuts down: rejects new submissions, drains every
    /// queued and in-flight request to a response, joins the batcher,
    /// and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.shutdown_inner();
        self.metrics()
    }

    fn shutdown_inner(&mut self) {
        {
            lock(&self.inner.submit).open = false;
        }
        self.inner.submit_cv.notify_all();
        // The batcher answers every queued request before it returns.
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

impl Drop for TopKService {
    /// Dropping the service performs the same graceful drain as
    /// [`TopKService::shutdown`].
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::sample;
    use tkspmv::backend::{BackendPerf, BackendStats, QueryResult};
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

    /// A brute-force exact backend for serving tests: `spmv_exact` plus
    /// a full sort, optionally slowed or booby-trapped.
    struct TestBackend {
        /// Artificial per-query latency, to hold the batcher busy.
        delay: Duration,
        /// Panic when a query's `k` equals this (poisoned-shard drill).
        panic_on_k: Option<usize>,
    }

    impl TestBackend {
        fn exact() -> Self {
            Self {
                delay: Duration::ZERO,
                panic_on_k: None,
            }
        }
    }

    const FAMILY: &str = "test-exact";

    impl TopKBackend for TestBackend {
        fn name(&self) -> String {
            FAMILY.to_string()
        }

        fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
            if csr.num_rows() == 0 {
                return Err(EngineError::empty_matrix());
            }
            Ok(PreparedMatrix::new(
                FAMILY,
                csr.num_rows(),
                csr.num_cols(),
                csr.nnz() as u64,
                csr.clone(),
            ))
        }

        fn answer(
            &self,
            matrix: &PreparedMatrix,
            queries: &[DenseVector],
            query: &Query,
        ) -> Result<Vec<QueryResult>, EngineError> {
            if Some(query.k) == self.panic_on_k {
                panic!("backend tripped on k = {}", query.k);
            }
            let csr = matrix.downcast::<Csr>(FAMILY)?;
            let k = query.check_exact(self, csr.num_cols(), queries)?;
            let answer = |x: &DenseVector| {
                if !self.delay.is_zero() {
                    std::thread::sleep(self.delay);
                }
                let pairs: Vec<(u32, f64)> = csr
                    .spmv_exact(x.as_slice())
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as u32, v))
                    .collect();
                QueryResult {
                    topk: TopKResult::from_pairs(pairs).truncated(k),
                    perf: BackendPerf::measured(1e-9, csr.nnz() as u64),
                    stats: BackendStats::Cpu { threads: 1 },
                }
            };
            Ok(queries.iter().map(answer).collect())
        }
    }

    /// A Top-`k` query at the pruned tier's `shortlist_factor`.
    fn pruned(k: usize, shortlist_factor: usize) -> Query {
        Query {
            tier: QueryTier::Pruned { shortlist_factor },
            ..Query::new(k)
        }
    }

    fn collection(rows: usize) -> Csr {
        SyntheticConfig {
            num_rows: rows,
            num_cols: 64,
            avg_nnz_per_row: 8,
            distribution: NnzDistribution::Uniform,
            seed: 77,
        }
        .generate()
    }

    fn direct_reference(csr: &Csr, x: &DenseVector, k: usize) -> TopKResult {
        let backend = TestBackend::exact();
        let prepared = backend.prepare(csr).unwrap();
        TopKBackend::query(&backend, &prepared, x, k).unwrap().topk
    }

    fn service(csr: &Csr, shards: usize, policy: BatchPolicy) -> TopKService {
        TopKService::builder(Arc::new(TestBackend::exact()))
            .shards(shards)
            .batch_policy(policy)
            .build(csr)
            .unwrap()
    }

    #[test]
    fn serves_exact_answers_across_shards() {
        let csr = collection(300);
        for shards in [1, 2, 5] {
            let svc = service(&csr, shards, BatchPolicy::immediate());
            for seed in 0..4 {
                let x = query_vector(64, seed);
                let got = svc.query(x.clone(), 10).unwrap();
                assert_eq!(got.topk, direct_reference(&csr, &x, 10), "{shards} shards");
                assert_eq!(got.batch_size, 1);
            }
            let m = svc.shutdown();
            assert_eq!(m.served, 4);
            assert_eq!(m.shed, 0);
        }
    }

    #[test]
    fn k_larger_than_shard_rows_still_merges_globally() {
        // 5 shards of 8 rows each; K = 20 needs candidates from several
        // shards and exceeds every single shard's contribution cap.
        let csr = collection(40);
        let svc = service(&csr, 5, BatchPolicy::immediate());
        let x = query_vector(64, 9);
        let got = svc.query(x.clone(), 20).unwrap();
        assert_eq!(got.topk, direct_reference(&csr, &x, 20));
        assert_eq!(got.topk.len(), 20);
    }

    #[test]
    fn bad_requests_are_rejected_before_queueing() {
        let csr = collection(50);
        let svc = service(&csr, 2, BatchPolicy::immediate());
        assert!(matches!(
            svc.submit(query_vector(63, 1), 5),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            svc.submit(query_vector(64, 1), 0),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(svc.metrics().served, 0);
    }

    #[test]
    fn builder_validates_configuration() {
        let csr = collection(50);
        let backend = || Arc::new(TestBackend::exact());
        assert!(matches!(
            TopKService::builder(backend()).shards(0).build(&csr),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            TopKService::builder(backend()).shards(51).build(&csr),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            TopKService::builder(backend())
                .queue_capacity(0)
                .build(&csr),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            TopKService::builder(backend())
                .batch_policy(BatchPolicy {
                    max_batch_size: 0,
                    max_wait: Duration::ZERO
                })
                .build(&csr),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn full_queue_sheds_with_backpressure() {
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(5),
            panic_on_k: None,
        }))
        .shards(1)
        .batch_policy(BatchPolicy::immediate())
        .queue_capacity(2)
        .build(&csr)
        .unwrap();
        // Shedding needs submissions to transiently outrun the batcher,
        // which is a scheduler race; burst with a pre-built vector (so
        // each submit is cheaper than the dispatch it triggers) and
        // retry the burst until backpressure engages, draining between
        // attempts so the accounting stays exact.
        let x = query_vector(64, 0);
        let mut shed = 0u64;
        for _burst in 0..20 {
            let mut tickets = Vec::new();
            for _ in 0..64 {
                match svc.submit(x.clone(), 3) {
                    Ok(t) => tickets.push(t),
                    Err(ServeError::QueueFull { capacity }) => {
                        assert_eq!(capacity, 2);
                        shed += 1;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            for t in tickets {
                assert!(t.wait().is_ok());
            }
            if shed > 0 {
                break;
            }
        }
        assert!(shed > 0, "queue of 2 never shed under repeated bursts");
        let m = svc.shutdown();
        assert_eq!(m.shed, shed);
        assert!(m.served >= 1);
    }

    #[test]
    fn burst_coalesces_into_one_backend_batch() {
        let csr = collection(80);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(30),
            panic_on_k: None,
        }))
        .shards(2)
        .batch_policy(BatchPolicy::coalescing(7, Duration::from_millis(500)))
        .build(&csr)
        .unwrap();
        // The first request seeds a batch that dispatches alone or with
        // early companions; the following seven share one batch of
        // exactly max_batch_size (the batcher fills before its 500 ms
        // window can expire).
        let first = svc.submit(query_vector(64, 100), 4).unwrap();
        let burst: Vec<Ticket> = (0..7)
            .map(|seed| svc.submit(query_vector(64, seed), 4).unwrap())
            .collect();
        assert!(first.wait().is_ok());
        let mut batch_sizes = Vec::new();
        for t in burst {
            let served = t.wait().unwrap();
            assert_eq!(served.topk.len(), 4);
            batch_sizes.push(served.batch_size);
        }
        assert!(
            batch_sizes.contains(&7),
            "burst should ride one 7-query batch, got {batch_sizes:?}"
        );
        let m = svc.shutdown();
        assert!(m.mean_batch_size > 1.0, "{m:?}");
        assert!(m.batch_size_histogram.iter().any(|&(size, _)| size == 7));
    }

    #[test]
    fn full_backlog_of_another_k_cuts_the_coalescing_wait_short() {
        // A k=3 seed with a 5-second window would idle the engine for
        // 5 s while four dispatchable k=9 requests sit queued; the
        // batcher must dispatch early instead of head-of-line blocking.
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(TestBackend::exact()))
            .shards(2)
            .batch_policy(BatchPolicy::coalescing(4, Duration::from_secs(5)))
            .build(&csr)
            .unwrap();
        let started = Instant::now();
        let seed = svc.submit(query_vector(64, 0), 3).unwrap();
        let others: Vec<Ticket> = (1..=4)
            .map(|s| svc.submit(query_vector(64, s), 9).unwrap())
            .collect();
        assert_eq!(seed.wait().unwrap().topk.len(), 3);
        for t in others {
            assert_eq!(t.wait().unwrap().topk.len(), 9);
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "mixed-k backlog must not wait out the 5 s coalescing window"
        );
        assert_eq!(svc.shutdown().served, 5);
    }

    #[test]
    fn mixed_k_requests_batch_separately_but_all_answer() {
        let csr = collection(70);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(10),
            panic_on_k: None,
        }))
        .shards(2)
        .batch_policy(BatchPolicy::coalescing(8, Duration::from_millis(5)))
        .build(&csr)
        .unwrap();
        let tickets: Vec<(usize, Ticket)> = (0..12)
            .map(|i| {
                let k = if i % 2 == 0 { 3 } else { 9 };
                (k, svc.submit(query_vector(64, i as u64), k).unwrap())
            })
            .collect();
        for (k, t) in tickets {
            let served = t.wait().unwrap();
            assert_eq!(served.topk.len(), k);
        }
        assert_eq!(svc.shutdown().served, 12);
    }

    #[test]
    fn backend_panic_is_contained_and_worker_recovers() {
        let csr = collection(90);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::ZERO,
            panic_on_k: Some(13),
        }))
        .shards(2)
        .batch_policy(BatchPolicy::immediate())
        .build(&csr)
        .unwrap();
        let x = query_vector(64, 1);
        // Healthy before...
        assert!(svc.query(x.clone(), 5).is_ok());
        // ...the poisoned request gets a typed error...
        match svc.query(x.clone(), 13) {
            Err(ServeError::WorkerPanicked { detail }) => {
                assert!(detail.contains("k = 13"), "{detail}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // ...and the service keeps serving afterwards.
        let after = svc.query(x.clone(), 5).unwrap();
        assert_eq!(after.topk, direct_reference(&csr, &x, 5));
        let m = svc.shutdown();
        assert_eq!(m.served, 2);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn engine_errors_propagate_per_request() {
        // K = 0 is caught at submit; an engine-level failure needs a
        // deeper trigger — a backend whose prepare succeeded but whose
        // query rejects. TestBackend rejects nothing the service lets
        // through, so fake it with a poisoned k sentinel instead:
        // covered by `backend_panic_is_contained_and_worker_recovers`.
        // Here: wrong-dimension submissions never reach the backend.
        let csr = collection(30);
        let svc = service(&csr, 2, BatchPolicy::immediate());
        let err = svc.submit(DenseVector::zeros(1), 2).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let csr = collection(100);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(15),
            panic_on_k: None,
        }))
        .shards(4)
        .batch_policy(BatchPolicy::coalescing(4, Duration::from_millis(1)))
        .build(&csr)
        .unwrap();
        let tickets: Vec<Ticket> = (0..10)
            .map(|seed| svc.submit(query_vector(64, seed), 6).unwrap())
            .collect();
        let metrics = svc.shutdown();
        // Every admitted request was drained to a successful response.
        assert_eq!(metrics.served, 10);
        assert_eq!(metrics.failed, 0);
        for t in tickets {
            let served = t.wait().expect("drained during shutdown");
            assert_eq!(served.topk.len(), 6);
        }
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let csr = collection(40);
        let mut svc = service(&csr, 2, BatchPolicy::immediate());
        svc.shutdown_inner();
        assert!(matches!(
            svc.submit(query_vector(64, 1), 3),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn metrics_snapshot_reports_latency_and_throughput() {
        let csr = collection(120);
        // A real (if tiny) backend delay keeps every recorded latency
        // above the metrics' microsecond granularity, so the percentile
        // assertions cannot flake on a fast scheduler.
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_micros(300),
            panic_on_k: None,
        }))
        .shards(3)
        .batch_policy(BatchPolicy::default())
        .build(&csr)
        .unwrap();
        for seed in 0..20 {
            svc.query(query_vector(64, seed), 5).unwrap();
        }
        let m = svc.metrics();
        assert_eq!(m.served, 20);
        assert!(m.latency_p50 > Duration::ZERO);
        assert!(m.latency_p50 <= m.latency_p95 && m.latency_p95 <= m.latency_p99);
        assert!(m.throughput_qps > 0.0);
        assert!(m.uptime > Duration::ZERO);
        let total: u64 = m.batch_size_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, m.batches);
    }

    #[test]
    fn accessors_expose_the_layout() {
        let csr = collection(64);
        let svc = service(&csr, 4, BatchPolicy::immediate());
        assert_eq!(svc.dim(), 64);
        assert_eq!(svc.num_rows(), 64);
        assert_eq!(svc.num_shards(), 4);
        assert_eq!(svc.batch_policy(), BatchPolicy::immediate());
        assert_eq!(svc.queue_capacity(), 1024);
    }

    #[test]
    fn dropped_ticket_does_not_wedge_the_service() {
        let csr = collection(50);
        let svc = service(&csr, 2, BatchPolicy::immediate());
        drop(svc.submit(query_vector(64, 1), 3).unwrap());
        // The abandoned request still executes; the service stays live.
        let out = svc.query(query_vector(64, 2), 3).unwrap();
        assert_eq!(out.topk.len(), 3);
        assert_eq!(svc.shutdown().served, 2);
    }

    #[test]
    fn zero_max_wait_dispatches_immediately_without_spinning() {
        // max_batch_size > 1 with max_wait = 0 means "dispatch as soon
        // as a request is present": its deadline has passed at
        // admission. A regressed batcher that waits on an expired
        // deadline would spin hot; the wakeup counter pins the wakeups
        // to O(requests), not O(cpu-cycles), even with a slow client
        // leaving the batcher idle between submissions.
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(TestBackend::exact()))
            .shards(2)
            .batch_policy(BatchPolicy {
                max_batch_size: 8,
                max_wait: Duration::ZERO,
            })
            .build(&csr)
            .unwrap();
        const REQUESTS: u64 = 20;
        for seed in 0..REQUESTS {
            let served = svc.query(query_vector(64, seed), 5).unwrap();
            assert_eq!(served.topk.len(), 5);
            // One slow client: the batcher sits idle between requests.
            std::thread::sleep(Duration::from_millis(2));
        }
        let m = svc.shutdown();
        assert_eq!(m.served, REQUESTS);
        // Each request costs at most a handful of wakeups (seed + the
        // condvar return that delivered it); a busy spin over 20 x 2 ms
        // of idle time would register thousands.
        assert!(
            m.batcher_wakeups <= 4 * REQUESTS + 8,
            "batcher woke {} times for {REQUESTS} requests — it is spinning",
            m.batcher_wakeups
        );
    }

    #[test]
    fn zero_max_wait_still_coalesces_queued_work() {
        // Zero wait never *waits*, but work already queued behind a
        // running batch must still ride one batch.
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(30),
            panic_on_k: None,
        }))
        .shards(1)
        .batch_policy(BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::ZERO,
        })
        .build(&csr)
        .unwrap();
        // Whether a burst piles up behind the batcher is a scheduler
        // race; retry with a pre-built vector until one batch coalesces.
        let x = query_vector(64, 0);
        let mut coalesced = false;
        for _burst in 0..20 {
            let tickets: Vec<Ticket> = (0..12).map(|_| svc.submit(x.clone(), 4).unwrap()).collect();
            let sizes: Vec<usize> = tickets
                .into_iter()
                .map(|t| t.wait().unwrap().batch_size)
                .collect();
            if sizes.iter().any(|&s| s > 1) {
                coalesced = true;
                break;
            }
        }
        assert!(
            coalesced,
            "queued bursts never coalesced under zero max_wait"
        );
        svc.shutdown();
    }

    /// A [`TestBackend`] that announces each backend call as it starts,
    /// so a test can act while a batch is known to be running.
    struct Announcing {
        inner: TestBackend,
        entered: mpsc::Sender<()>,
    }

    impl TopKBackend for Announcing {
        fn name(&self) -> String {
            self.inner.name()
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
            let _ = self.entered.send(());
            self.inner.answer(matrix, queries, query)
        }
    }

    #[test]
    fn a_request_arriving_mid_batch_leaves_when_the_batch_returns() {
        // A request that arrives while a lone request's batch runs is
        // dispatched as soon as the batcher is free — not held another
        // max_wait. (After a batch of one the seed does not wait at
        // all; the window counting from admission is pinned by
        // `a_seed_after_a_batch_with_company_counts_max_wait_from_admission`.)
        let max_wait = Duration::from_millis(20);
        let (entered, started) = mpsc::channel();
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(Announcing {
            inner: TestBackend {
                delay: Duration::from_millis(50),
                panic_on_k: None,
            },
            entered,
        }))
        .shards(1)
        .batch_policy(BatchPolicy::coalescing(8, max_wait))
        .build(&csr)
        .unwrap();
        let first = svc.submit(query_vector(64, 1), 4).unwrap();
        started.recv().unwrap();
        let submitted = Instant::now();
        let second = svc.submit(query_vector(64, 2), 4).unwrap();
        first.wait().unwrap();
        let first_returned = submitted.elapsed();
        let second = second.wait().unwrap();
        let bound = first_returned + second.stages.engine + max_wait / 2;
        assert!(
            second.latency < bound,
            "held past the batch: {:?} >= {bound:?} ({:?})",
            second.latency,
            second.stages
        );
        svc.shutdown();
    }

    #[test]
    fn a_lone_request_on_an_idle_service_skips_max_wait() {
        // An idle batcher after no batch, or after a batch of one, has
        // no company to wait for: each request leaves at once instead of
        // sitting out the 5 s window.
        let csr = collection(60);
        let svc = service(&csr, 2, BatchPolicy::coalescing(8, Duration::from_secs(5)));
        let started = Instant::now();
        for seed in 0..3 {
            let served = svc.query(query_vector(64, seed), 4).unwrap();
            assert_eq!(served.batch_size, 1);
            assert!(
                served.stages.coalesce < Duration::from_millis(50),
                "an idle seed waited for company: {:?}",
                served.stages
            );
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "lone requests sat out max_wait: {:?}",
            started.elapsed()
        );
        svc.shutdown();
    }

    #[test]
    fn after_a_batch_with_company_the_seed_waits_for_trickling_requests() {
        // Closed-loop clients refill one at a time as their answers
        // arrive. Once a batch had company, the next seed waits (up to
        // max_wait) so that refill rides one batch instead of trickling
        // into batches of one.
        let (entered, started) = mpsc::channel();
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(Announcing {
            inner: TestBackend {
                delay: Duration::from_millis(20),
                panic_on_k: None,
            },
            entered,
        }))
        .shards(1)
        .batch_policy(BatchPolicy::coalescing(4, Duration::from_secs(2)))
        .build(&csr)
        .unwrap();
        // The idle seed leaves alone; two requests submitted while it
        // runs share the next batch.
        let first = svc.submit(query_vector(64, 0), 4).unwrap();
        started.recv().unwrap();
        let pair: Vec<Ticket> = (1..=2)
            .map(|seed| svc.submit(query_vector(64, seed), 4).unwrap())
            .collect();
        assert_eq!(first.wait().unwrap().batch_size, 1);
        for t in pair {
            assert_eq!(t.wait().unwrap().batch_size, 2);
        }
        let trickle: Vec<Ticket> = (3..7)
            .map(|seed| {
                std::thread::sleep(Duration::from_millis(5));
                svc.submit(query_vector(64, seed), 4).unwrap()
            })
            .collect();
        for t in trickle {
            assert_eq!(t.wait().unwrap().batch_size, 4);
        }
        svc.shutdown();
    }

    #[test]
    fn a_seed_after_a_batch_with_company_counts_max_wait_from_admission() {
        // After a batch with company the seed may wait for company, but
        // its window counts from admission: a request that arrived while
        // that batch ran has had its window close during it, so it is
        // dispatched as soon as the batcher is free.
        let max_wait = Duration::from_millis(20);
        let (entered, started) = mpsc::channel();
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(Announcing {
            inner: TestBackend {
                delay: Duration::from_millis(50),
                panic_on_k: None,
            },
            entered,
        }))
        .shards(1)
        .batch_policy(BatchPolicy::coalescing(8, max_wait))
        .build(&csr)
        .unwrap();
        let first = svc.submit(query_vector(64, 1), 4).unwrap();
        started.recv().unwrap();
        let pair: Vec<Ticket> = (2..=3)
            .map(|seed| svc.submit(query_vector(64, seed), 4).unwrap())
            .collect();
        // The pair's batch of two has started.
        started.recv().unwrap();
        let submitted = Instant::now();
        let late = svc.submit(query_vector(64, 4), 4).unwrap();
        first.wait().unwrap();
        for t in pair {
            assert_eq!(t.wait().unwrap().batch_size, 2);
        }
        let pair_returned = submitted.elapsed();
        let late = late.wait().unwrap();
        let bound = pair_returned + late.stages.engine + max_wait / 2;
        assert!(
            late.latency < bound,
            "held past the batch: {:?} >= {bound:?} ({:?})",
            late.latency,
            late.stages
        );
        svc.shutdown();
    }

    #[test]
    fn stages_cover_the_latency_of_a_request_queued_behind_a_batch() {
        let csr = collection(60);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(50),
            panic_on_k: None,
        }))
        .shards(1)
        .batch_policy(BatchPolicy::immediate())
        .build(&csr)
        .unwrap();
        let first = svc.submit(query_vector(64, 1), 4).unwrap();
        let second = svc.submit(query_vector(64, 2), 4).unwrap();
        first.wait().unwrap();
        let second = second.wait().unwrap();
        let st = second.stages;
        let covered = st.queue + st.coalesce + st.engine + st.merge;
        assert!(
            second.latency.saturating_sub(covered) <= Duration::from_millis(5),
            "stages cover {covered:?} of {:?}: {st:?}",
            second.latency
        );
        svc.shutdown();
    }

    /// Two same-dimension collections with disjoint "live" row spaces:
    /// epoch A scores rows 0..rows_a, epoch B scores only rows >=
    /// rows_a (its first rows_a rows are empty, so they score 0 and
    /// positive rows always win).
    fn disjoint_collections(rows_a: usize, extra_b: usize) -> (Csr, Csr) {
        let a_triplets: Vec<(u32, u32, f32)> = (0..rows_a as u32)
            .map(|r| (r, r % 64, 0.5 + (r % 7) as f32 / 100.0))
            .collect();
        let a = Csr::from_triplets(rows_a, 64, &a_triplets).unwrap();
        let b_rows = rows_a + extra_b;
        let b_triplets: Vec<(u32, u32, f32)> = (rows_a as u32..b_rows as u32)
            .map(|r| (r, r % 64, 0.5 + (r % 5) as f32 / 100.0))
            .collect();
        let b = Csr::from_triplets(b_rows, 64, &b_triplets).unwrap();
        (a, b)
    }

    #[test]
    fn swap_collection_serves_new_rows_to_new_admissions() {
        let (a, b) = disjoint_collections(40, 40);
        let svc = service(&a, 2, BatchPolicy::immediate());
        assert_eq!(svc.epoch(), 0);
        assert_eq!(svc.num_rows(), 40);
        let x = DenseVector::from_values(vec![1.0; 64]);
        let before = svc.query(x.clone(), 5).unwrap();
        assert!(before.topk.indices().iter().all(|&r| r < 40));

        let new_epoch = svc.swap_collection(&b).unwrap();
        assert_eq!(new_epoch, 1);
        assert_eq!(svc.epoch(), 1);
        assert_eq!(svc.num_rows(), 80, "grown collection is visible");

        let after = svc.query(x.clone(), 5).unwrap();
        assert!(
            after.topk.indices().iter().all(|&r| (40..80).contains(&r)),
            "post-swap admission answered from the old collection: {:?}",
            after.topk.indices()
        );
        let m = svc.shutdown();
        assert_eq!(m.served, 2);
        assert_eq!(m.swaps, 1);
        assert_eq!(m.epoch, 1);
    }

    #[test]
    fn requests_admitted_before_a_swap_finish_on_their_epoch() {
        // A slow backend holds the pre-swap request in flight while the
        // swap lands; the ticket must still resolve against collection A.
        let (a, b) = disjoint_collections(30, 30);
        let svc = TopKService::builder(Arc::new(TestBackend {
            delay: Duration::from_millis(60),
            panic_on_k: None,
        }))
        .shards(2)
        .batch_policy(BatchPolicy::immediate())
        .build(&a)
        .unwrap();
        let x = DenseVector::from_values(vec![1.0; 64]);
        let ticket = svc.submit(x.clone(), 5).unwrap();
        svc.swap_collection(&b).unwrap();
        let served = ticket.wait().unwrap();
        assert!(
            served.topk.indices().iter().all(|&r| r < 30),
            "pre-swap admission leaked onto the new epoch: {:?}",
            served.topk.indices()
        );
        assert_eq!(svc.shutdown().swaps, 1);
    }

    #[test]
    fn swap_validation_protects_the_running_epoch() {
        let (a, _) = disjoint_collections(40, 40);
        let svc = service(&a, 4, BatchPolicy::immediate());
        // Wrong dimension.
        let narrow = Csr::from_triplets(50, 32, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            svc.swap_collection(&narrow),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Too few rows for the shard count.
        let tiny = Csr::from_triplets(2, 64, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            svc.swap_collection(&tiny),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Failed swaps leave the epoch untouched and serving.
        assert_eq!(svc.epoch(), 0);
        let x = DenseVector::from_values(vec![1.0; 64]);
        assert!(svc.query(x, 3).is_ok());
        let m = svc.shutdown();
        assert_eq!(m.swaps, 0);
    }

    #[test]
    fn swap_shards_validates_the_layout() {
        let (a, b) = disjoint_collections(40, 40);
        let backend = TestBackend::exact();
        let svc = service(&a, 2, BatchPolicy::immediate());
        // Wrong shard count.
        let three = PreparedMatrix::prepare_row_shards(&backend, &b, 3).unwrap();
        assert!(matches!(
            svc.swap_shards(three),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Non-contiguous cover.
        let mut gap = PreparedMatrix::prepare_row_shards(&backend, &b, 2).unwrap();
        let second = gap.pop().unwrap();
        let second = MatrixShard::new(second.start_row() + 7, {
            let csr = second.matrix().downcast::<Csr>(FAMILY).unwrap();
            backend.prepare(&csr).unwrap()
        });
        gap.push(second);
        assert!(matches!(
            svc.swap_shards(gap),
            Err(ServeError::InvalidConfig { .. })
        ));
        // Shards from a foreign backend family: installing them would
        // brick every future query in the backend's downcast, so the
        // swap must refuse and leave the old epoch serving.
        let foreign_shards = vec![
            MatrixShard::new(
                0,
                PreparedMatrix::new("some-other-family", 40, 64, 10, 0u32),
            ),
            MatrixShard::new(
                40,
                PreparedMatrix::new("some-other-family", 40, 64, 10, 0u32),
            ),
        ];
        assert!(matches!(
            svc.swap_shards(foreign_shards),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert_eq!(svc.epoch(), 0, "failed swap must not install an epoch");
        // A valid prepared set swaps in.
        let good = PreparedMatrix::prepare_row_shards(&backend, &b, 2).unwrap();
        assert_eq!(svc.swap_shards(good).unwrap(), 1);
        let x = DenseVector::from_values(vec![1.0; 64]);
        let served = svc.query(x, 5).unwrap();
        assert!(served.topk.indices().iter().all(|&r| (40..80).contains(&r)));
        svc.shutdown();
    }

    #[test]
    fn tiered_requests_never_mix_and_report_per_tier_metrics() {
        use tkspmv::PrunedBackend;
        use tkspmv_fixed::PruneBits;

        let csr = collection(240);
        let backend = Arc::new(
            PrunedBackend::new(Arc::new(TestBackend::exact()), PruneBits::Eight, 4).unwrap(),
        );
        let svc = TopKService::builder(backend.clone())
            .shards(1)
            .batch_policy(BatchPolicy::coalescing(8, Duration::from_millis(2)))
            .build(&csr)
            .unwrap();
        let direct = backend.prepare(&csr).unwrap();
        for seed in 0..4 {
            let x = query_vector(64, seed);
            let exact = svc.query(x.clone(), Query::new(10)).unwrap();
            assert_eq!(exact.tier, QueryTier::Exact);
            assert_eq!(exact.topk, direct_reference(&csr, &x, 10));
            let pruned = svc.query(x.clone(), pruned(10, 4)).unwrap();
            assert_eq!(
                pruned.tier,
                QueryTier::Pruned {
                    shortlist_factor: 4
                }
            );
            // One shard: the served pruned answer equals the direct
            // staged answer on the full collection.
            assert_eq!(
                pruned.topk,
                TopKBackend::query(backend.as_ref(), &direct, &x, 10)
                    .unwrap()
                    .topk
            );
        }
        let page = svc.render_metrics();
        let m = svc.shutdown();
        assert_eq!(m.served, 8);
        let mut labels: Vec<&str> = page
            .lines()
            .filter_map(|l| l.strip_prefix("tkspmv_serve_tier_requests_total{tier=\""))
            .filter_map(|l| l.split('"').next())
            .collect();
        labels.sort_unstable();
        assert_eq!(labels, ["exact", "pruned-c4"]);
        for tier in labels {
            let series = |outcome| {
                format!("tkspmv_serve_tier_requests_total{{tier=\"{tier}\",outcome=\"{outcome}\"}}")
            };
            assert_eq!(sample(&page, &series("served")), Some(4.0), "{tier}");
            assert_eq!(sample(&page, &series("failed")), None, "{tier}");
            let latency = format!("tkspmv_serve_tier_latency_seconds_count{{tier=\"{tier}\"}}");
            assert_eq!(sample(&page, &latency), Some(4.0), "{tier}");
        }
    }

    #[test]
    fn pruned_tier_against_a_plain_backend_fails_typed() {
        let csr = collection(50);
        let svc = service(&csr, 2, BatchPolicy::immediate());
        let err = svc.query(query_vector(64, 1), pruned(5, 2)).unwrap_err();
        assert!(matches!(err, ServeError::Engine(_)), "{err}");
        // Zero shortlist factors never reach the queue.
        assert!(matches!(
            svc.submit(query_vector(64, 1), pruned(5, 0)),
            Err(ServeError::BadRequest(_))
        ));
        let page = svc.render_metrics();
        let m = svc.shutdown();
        assert_eq!(m.failed, 1);
        // An immediate policy's size table has one slot; the failed
        // batch of one lands in it.
        assert_eq!(m.batch_size_histogram, vec![(1, 1)]);
        let tiers: Vec<&str> = page
            .lines()
            .filter(|l| l.starts_with("tkspmv_serve_tier_"))
            .collect();
        assert_eq!(
            tiers,
            ["tkspmv_serve_tier_requests_total{tier=\"pruned-c2\",outcome=\"failed\"} 1"]
        );
        assert_eq!(
            sample(
                &page,
                "tkspmv_serve_tier_requests_total{tier=\"pruned-c2\",outcome=\"failed\"}"
            ),
            Some(1.0)
        );
    }

    #[test]
    fn concurrent_submitters_all_get_exact_answers() {
        let csr = collection(200);
        let svc = service(
            &csr,
            3,
            BatchPolicy::coalescing(8, Duration::from_micros(500)),
        );
        std::thread::scope(|scope| {
            let svc = &svc;
            let csr = &csr;
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    scope.spawn(move || {
                        for q in 0..5 {
                            let x = query_vector(64, t * 100 + q);
                            let got = svc.query(x.clone(), 7).unwrap();
                            assert_eq!(got.topk, direct_reference(csr, &x, 7));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(svc.shutdown().served, 40);
    }
}
