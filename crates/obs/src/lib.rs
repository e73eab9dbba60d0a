//! Std-only observability primitives for the Top-K SpMV serving stack.
//!
//! The paper's whole argument is a latency/bandwidth budget, so the repo
//! needs to say *where* a query spent its time — not just report lumped
//! end-to-end percentiles. This crate provides the three pieces every
//! layer shares:
//!
//! - [`Registry`] / [`Counter`] / [`Gauge`] / [`Histogram`] — a
//!   lock-cheap metrics registry. Counters and gauges are single
//!   atomics; histograms are fixed log-bucket arrays of atomics striped
//!   across shards, so recording never takes a lock and a snapshot is
//!   O(buckets) — no 65k-sample reservoir to clone and sort, and no
//!   samples silently aging out under sustained load.
//! - [`Stage`] / [`Stages`] / [`StageSpan`] / [`SpanRing`] /
//!   [`QueryTrace`] — the one stage taxonomy (queue wait, batch
//!   coalesce, packet decode, scoring, prune pass, exact rescore, shard
//!   merge, wire RTT), the per-stage time vector every layer from the
//!   engine up fills, per-query stage spans recorded into a
//!   preallocated ring, and the tree type a router assembles from spans
//!   propagated across nodes, rendered as JSON.
//! - [`MetricsServer`] — a minimal std-TCP HTTP server answering
//!   `GET /metrics` with Prometheus-style plaintext exposition, with
//!   [`validate_exposition`] as the syntax checker tests and CI use.
//!
//! Everything here is `std`-only (no tokio, no third-party deps) to
//! match the rest of the workspace, and the record paths are designed
//! to be allocation-free in steady state (proven by
//! `tests/zero_alloc.rs`).

mod http;
mod metrics;
mod trace;

pub use http::{http_get, MetricsServer};
pub use metrics::{validate_exposition, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{
    QueryTrace, SpanNode, SpanRecord, SpanRing, Stage, StageSpan, Stages, TraceId,
    MAX_SPANS_PER_RECORD,
};
