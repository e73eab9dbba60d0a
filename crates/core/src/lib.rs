//! Approximate multi-core Top-K SpMV — the primary contribution of
//! *"Scaling up HBM Efficiency of Top-K SpMV for Approximate Embedding
//! Similarity on FPGAs"* (DAC 2021), reproduced as a software-emulated
//! accelerator.
//!
//! Top-K SpMV finds the `K` rows of a sparse embedding collection `A`
//! most similar to a dense query `x` (the `K` largest entries of
//! `y = A·x`). The paper accelerates it on an HBM FPGA with three ideas,
//! all implemented here:
//!
//! 1. **Partitioned approximation** (§III-A): `c` independent cores each
//!    keep only the top-`k` of their row partition, `k·c ≥ K`; see
//!    [`approx`] for the precision theory (Table I).
//! 2. **BS-CSR** (§III-B): a streaming sparse format packing 2–3× more
//!    non-zeros per 512-bit HBM packet than COO
//!    (see [`tkspmv_sparse::BsCsr`]).
//! 3. **A 4-stage dataflow core** (§IV, Algorithm 1): multiply →
//!    aggregate → cross-packet stitch → argmin Top-K update, emulated
//!    bit-exactly in [`engine`].
//!
//! The card is fixed — one Alveo U280 — and [`hw`] models it: the HBM
//! channels, resources, clock and power that every modelled time and
//! Table II come from.
//!
//! # Quickstart
//!
//! Every engine in this workspace — the emulated accelerator built here,
//! plus the CPU and GPU baselines in `tkspmv_baselines` — speaks the
//! [`backend::TopKBackend`] trait: `prepare` a collection once, then
//! query it, one vector at a time or as a [`backend::QueryBatch`].
//! The trait is the only way in: every accelerator query, single or
//! batched, enters through [`TopKBackend::answer`] — a slice of vectors
//! and one [`backend::Query`] (`k`, tier, trace id) — which fans
//! [`run_core_batch_with_scratch`] out over the cores, and every result
//! carries the [`tkspmv_obs::Stages`] its own call measured
//! ([`BackendStats::stage_times`]). [`TopKBackend::query`] and
//! [`TopKBackend::query_batch`] are its exact-tier `(x, k)` shorthands.
//!
//! ```
//! use tkspmv::backend::{QueryBatch, TopKBackend};
//! use tkspmv::Accelerator;
//! use tkspmv_fixed::Precision;
//! use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
//!
//! // A small synthetic embedding collection (Table III shape).
//! let collection = SyntheticConfig {
//!     num_rows: 2_000,
//!     num_cols: 512,
//!     avg_nnz_per_row: 20,
//!     distribution: NnzDistribution::Uniform,
//!     seed: 42,
//! }
//! .generate();
//!
//! // The paper's 20-bit, 32-core design, held behind the trait all
//! // engines implement (swap in a CPU or GPU baseline the same way).
//! let backend: Box<dyn TopKBackend> = Box::new(
//!     Accelerator::builder()
//!         .precision(Precision::Fixed20)
//!         .cores(32)
//!         .k(8)
//!         .build()?,
//! );
//!
//! // One-time encode/upload, then query.
//! let matrix = backend.prepare(&collection)?;
//! let result = backend.query(&matrix, &query_vector(512, 7), 100)?;
//! assert_eq!(result.topk.len(), 100);
//! println!("modelled time: {:.3} ms", result.perf.seconds * 1e3);
//!
//! // Deployments answer many queries per collection: batches amortise
//! // quantisation and keep each channel's partition resident.
//! let batch = QueryBatch::random(16, 512, 1);
//! let results = backend.query_batch(&matrix, &batch, 100)?;
//! assert_eq!(results.len(), 16);
//! # Ok::<(), tkspmv::EngineError>(())
//! ```

// No thread starts but the compute pool's: every module except `fanout`.
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod accelerator;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
pub mod approx;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod axi;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
pub mod backend;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
pub mod engine;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod error;
pub mod fanout;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod hbm;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
pub mod hw;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod math;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod perf;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod pruned;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod resources;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod roofline;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod topk;
#[cfg_attr(not(test), forbid(clippy::disallowed_methods))]
mod uram;

pub use accelerator::{Accelerator, AcceleratorBuilder, AcceleratorConfig, LoadedMatrix};
pub use backend::{
    BackendPerf, BackendStats, MatrixShard, PreparedMatrix, QueryBatch, QueryResult, QueryTier,
    TimingSource, TopKBackend,
};
pub use engine::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, CoreOutput, CoreStats, Fidelity,
};
pub use error::EngineError;
pub use math::{hypergeometric_pmf, ln_choose, ln_gamma};
pub use perf::{PerfReport, HOST_OVERHEAD_SECONDS};
pub use pruned::PrunedBackend;
pub use topk::{rank_cmp, TopKResult, TopKTracker};
