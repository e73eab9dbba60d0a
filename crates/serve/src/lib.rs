//! `tkspmv_serve` — a sharded, micro-batching query-serving subsystem
//! over any [`tkspmv::TopKBackend`].
//!
//! The paper's accelerator is built for *sustained* similarity traffic:
//! the sparse embedding collection stays resident in HBM channels while
//! query vectors swap through URAM. The rest of this workspace drives
//! engines with single-shot evaluation binaries; this crate supplies the
//! missing layer that turns concurrent caller traffic into well-formed
//! batches against a resident, sharded collection — using nothing but
//! `std` threads (the workspace vendors its dependencies offline; no
//! async runtime is available or needed).
//!
//! # Architecture
//!
//! ```text
//! callers ──submit──▶ bounded queue ──▶ seed + coalesce ──▶ shard 0 call ─▶ … ─▶ shard S-1 call ──▶ merge_pairs
//!    ▲                 (backpressure:    (queued company,     [rows 0..n/S]                              │
//!    │                  QueueFull shed)   ≤ max_batch; waits                                             │
//!    │                                    ≤ max_wait from admission,                                     │
//!    │                                    only after a batch of ≥ 2)                                     │
//! Ticket◀────────────────────────────────────────────────────────────────────────── responses + metrics ◀┘
//!                                       └──────── one batch at a time, driven by the batcher thread ─────────┘
//!                 each shard call is one flat fan-out over the resident compute pool:
//!                 the batcher plus host_parallelism() − 1 helpers
//! ```
//!
//! - **Sharding** — [`TopKService`] splits the collection into `S`
//!   row-contiguous shards ([`tkspmv::PreparedMatrix::prepare_row_shards`]),
//!   each prepared once and held resident for the life of its epoch:
//!   the paper's per-HBM-channel partitioning (§III-A) applied one
//!   level up, at serving granularity. A batch runs its shards one
//!   after another on the batcher thread, and each shard's backend call
//!   is one flat fan-out over the resident compute pool
//!   ([`tkspmv::fanout::fork_join`]), with the batcher as its first
//!   participant. The shard count sets the serving-level partitioning,
//!   not how many threads run, and a request's engine stage split is
//!   the exact sum of its shard calls' splits.
//! - **Micro-batching** — the batcher, the service's one thread,
//!   coalesces concurrent same-`k` requests under a [`BatchPolicy`]
//!   (`max_batch_size` / `max_wait`) into [`tkspmv::QueryBatch`]es, so
//!   the backend's batched path can keep every shard partition resident
//!   across the whole batch instead of paying per-request dispatch. It
//!   runs each batch it forms, merges and replies, then forms the next:
//!   as the paper's host issues one kernel launch at a time, batches
//!   are serialised, and a request that arrives meanwhile waits in the
//!   queue, where its wait is counted, and rides the next batch. The
//!   batcher is work-conserving: it is idle whenever it picks a seed,
//!   and a seed waits up to `max_wait` for company only when the
//!   previous batch had company. After a batch of one, the seed leaves
//!   at once with whatever compatible requests are already queued, as
//!   the paper's engine answers a query as soon as it has it.
//! - **Backpressure** — the submission queue is bounded; overload sheds
//!   requests with the typed [`ServeError::QueueFull`] instead of
//!   queueing unboundedly. Every other failure is equally typed:
//!   rejected requests ([`ServeError::BadRequest`]), engine failures
//!   ([`ServeError::Engine`]), and backend panics, which each shard
//!   call catches so the service carries on
//!   ([`ServeError::WorkerPanicked`]).
//! - **Merge** — per-shard Top-K answers are re-based to global row
//!   indices and reduced with [`tkspmv::TopKResult::merge_pairs`], the
//!   same reduction the accelerator uses across cores.
//! - **Hot swap** — [`TopKService::swap_collection`] (and
//!   [`TopKService::swap_shards`], fed from persisted snapshots)
//!   replaces the served collection under live traffic by installing a
//!   new *epoch*: requests admitted before the swap finish against the
//!   collection they were admitted to, later admissions see the new
//!   one, the batcher never mixes epochs in one backend batch, and
//!   nothing restarts. [`ServiceMetrics::epoch`] /
//!   [`ServiceMetrics::swaps`] account for it.
//! - **Cold start from snapshots** — `ServiceBuilder::build_from_shards`
//!   assembles a service from shards loaded with
//!   `tkspmv::PreparedMatrix::load`, so a restart pays disk I/O instead
//!   of re-encoding the collection.
//! - **Precision tiers** — every request is one
//!   [`tkspmv::backend::Query`]: `k`, a [`tkspmv::QueryTier`] (`Exact`,
//!   or `Pruned { shortlist_factor }` for the staged low-bit prune +
//!   exact rescore fast lane of a `tkspmv::PrunedBackend`) and the trace
//!   id the request's span record is filed under. [`TopKService::submit`]
//!   and [`TopKService::query`] take it, or a bare `k` for the exact
//!   tier, untraced. The batcher never mixes `k`s or tiers in one
//!   backend batch — the same discipline as epochs — and `/metrics`
//!   counts and times each tier apart (`tkspmv_serve_tier_*`).
//! - **Observability** — one `tkspmv_obs` registry holds every series.
//!   [`ServiceMetrics`] snapshots p50/p95/p99 latency, the batch-size
//!   histogram, throughput, shed counts, the serving epoch and batcher
//!   wake-ups; [`TopKService::render_metrics`] renders the whole
//!   registry, per-tier, per-stage and engine-time series included.
//! - **Shutdown** — [`TopKService::shutdown`] (and `Drop`) stops
//!   admissions, drains every queued and in-flight request to a
//!   response, and joins the batcher.
//!
//! For *exact* backends (the CPU and GPU baselines) a served answer is
//! element-wise identical to a direct [`tkspmv::TopKBackend::query`]
//! call on the unsharded collection, for any shard count, batching
//! policy, and submitter concurrency (property-tested in
//! `tests/serve_equivalence.rs`). For the approximate accelerator the
//! shard layout is part of the approximation — exactly as the paper's
//! core-partition layout is — so answers are reproducible per layout and
//! identical to a per-shard direct-query-plus-merge reference.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tkspmv::Accelerator;
//! use tkspmv_serve::{BatchPolicy, ServeError, TopKService};
//! use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
//!
//! let collection = SyntheticConfig {
//!     num_rows: 2_000,
//!     num_cols: 256,
//!     avg_nnz_per_row: 16,
//!     distribution: NnzDistribution::Uniform,
//!     seed: 42,
//! }
//! .generate();
//!
//! // The paper's accelerator behind the service; any TopKBackend works.
//! let backend = Arc::new(Accelerator::builder().cores(8).k(8).build()?);
//! let service = TopKService::builder(backend)
//!     .shards(2)
//!     .batch_policy(BatchPolicy::default())
//!     .queue_capacity(256)
//!     .build(&collection)?;
//!
//! // Blocking closed-loop call…
//! let answer = service.query(query_vector(256, 7), 10)?;
//! assert_eq!(answer.topk.len(), 10);
//!
//! // …or fire-and-wait with a ticket.
//! let ticket = service.submit(query_vector(256, 8), 10)?;
//! assert_eq!(ticket.wait()?.topk.len(), 10);
//!
//! let finale = service.shutdown(); // drains in-flight work
//! assert_eq!(finale.served, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod error;
mod metrics;
mod service;

pub use batch::BatchPolicy;
pub use error::ServeError;
pub use metrics::{ServiceMetrics, StageBreakdown};
pub use service::{ServedResult, ServiceBuilder, Ticket, TopKService};
