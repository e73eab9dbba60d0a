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
//! # Quickstart
//!
//! Every engine in this workspace — the emulated accelerator built here,
//! plus the CPU and GPU baselines in `tkspmv_baselines` — speaks the
//! [`backend::TopKBackend`] trait: `prepare` a collection once, then
//! `query` it, one vector at a time or as a [`backend::QueryBatch`].
//! Underneath there is one way in: every accelerator query, single or
//! batched, is [`Accelerator::query_batch`] fanning
//! [`run_core_batch_with_scratch`] out over the cores, and every result
//! carries the [`StageTimes`] its own call measured.
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

mod accelerator;
pub mod approx;
pub mod backend;
pub mod engine;
mod error;
pub mod fanout;
mod math;
mod perf;
mod pruned;
mod stages;
mod topk;

pub use accelerator::{
    Accelerator, AcceleratorBuilder, AcceleratorConfig, LoadedMatrix, QueryOutput,
};
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
pub use stages::StageTimes;
pub use topk::{rank_cmp, TopKResult, TopKTracker};
