//! The unified execution interface every Top-K SpMV engine implements.
//!
//! The paper's evaluation races three very different machines — the
//! emulated FPGA accelerator, a multi-threaded CPU baseline, and an
//! analytic GPU model — against each other on identical data. This
//! module gives them one contract, [`TopKBackend`], so experiments,
//! benchmarks and future serving layers can enumerate engines as
//! `Box<dyn TopKBackend>` values instead of hand-wiring each call
//! signature:
//!
//! 1. [`TopKBackend::prepare`] pays the one-time encode/upload cost and
//!    returns an opaque [`PreparedMatrix`];
//! 2. [`TopKBackend::query`] answers a single query with a uniform
//!    [`QueryResult`] (ranked rows + performance + backend statistics);
//! 3. [`TopKBackend::query_batch`] answers a [`QueryBatch`], letting
//!    backends amortise per-call overhead — the accelerator keeps each
//!    HBM channel's BS-CSR partition resident across the whole batch
//!    (its `query` is the one-lane case of the same call).
//!
//! Results of `query_batch` are guaranteed element-wise identical to
//! issuing the same queries one at a time (property-tested in
//! `tests/backend_batch.rs`); batching only changes *how fast* the
//! answers arrive.
//!
//! Persistence is one adjacent pair on the same trait:
//! [`TopKBackend::to_snapshot`] says what a backend writes,
//! [`TopKBackend::from_snapshot`] which families it adopts and how it
//! rebuilds its state. [`PreparedMatrix::save`] and
//! [`PreparedMatrix::load`] only frame those two calls with the codec
//! and the header-shape check.

use std::any::Any;
use std::io::{Read, Write};
use std::path::Path;

use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::snapshot::{Snapshot, SnapshotError, SnapshotPayload};
use tkspmv_sparse::{Csr, DenseVector, PruneIndex};

use crate::accelerator::{Accelerator, LoadedMatrix};
use crate::engine::CoreStats;
use crate::error::EngineError;
use crate::perf::PerfReport;
use crate::stages::StageTimes;
use crate::topk::TopKResult;

/// A Top-K SpMV engine: prepares a sparse embedding collection once,
/// then answers similarity queries against it.
///
/// Implementations must be cheap to construct and immutable at query
/// time (`&self` everywhere), so one backend value can serve concurrent
/// callers and prepared matrices can outlive the call that made them.
pub trait TopKBackend: Send + Sync {
    /// Stable display name, e.g. `fpga-20b`, `cpu`, `gpu-f16`. Used in
    /// tables and error messages.
    fn name(&self) -> String;

    /// Prepared-matrix compatibility family (defaults to [`name`]).
    ///
    /// Backends that can correctly serve each other's prepared matrices
    /// share one family — the GPU billing/precision variants all report
    /// `gpu` — so callers may prepare a collection once per family and
    /// reuse it across those backends. [`PreparedMatrix::downcast`]
    /// enforces the family at query time.
    ///
    /// [`name`]: TopKBackend::name
    fn family(&self) -> String {
        self.name()
    }

    /// One-time preparation of an embedding collection (encoding,
    /// partitioning, feasibility checks — whatever this engine needs
    /// before it can answer queries).
    ///
    /// # Errors
    ///
    /// Backend-specific: the accelerator rejects designs that do not
    /// place on the device, for example.
    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError>;

    /// Answers one Top-`k` query against a prepared collection.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] if the vector length or `k` is
    /// inconsistent with the prepared matrix, or if `matrix` was
    /// prepared by an incompatible backend.
    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError>;

    /// Answers a batch of queries, in input order.
    ///
    /// The default implementation loops over [`TopKBackend::query`];
    /// backends override it to amortise per-call work. Either way the
    /// results must be element-wise identical to sequential calls.
    ///
    /// # Errors
    ///
    /// As [`TopKBackend::query`]; the first failing query's error is
    /// returned and implementations validate the whole batch before
    /// running any of it where practical.
    fn query_batch(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
    ) -> Result<Vec<QueryResult>, EngineError> {
        batch.iter().map(|x| self.query(matrix, x, k)).collect()
    }

    /// Answers a batch at an explicit precision tier.
    ///
    /// Every backend supports [`QueryTier::Exact`]: the full-precision
    /// answer. For a plain backend that is [`TopKBackend::query_batch`]
    /// by another name; for the `PrunedBackend` wrapper it is the
    /// *wrapped* backend's `query_batch`, while the wrapper's own
    /// `query`/`query_batch` are the staged path at its constructor's
    /// shortlist factor. [`QueryTier::Pruned`] asks for the staged
    /// low-bit prune + exact rescore pipeline at an explicit factor;
    /// only backends that implement it (the wrapper) accept the tier —
    /// everything else fails typed rather than silently degrading to an
    /// exact answer the caller did not pay for.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] for an unsupported tier; otherwise as
    /// [`TopKBackend::query_batch`].
    fn query_batch_tiered(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
        tier: QueryTier,
    ) -> Result<Vec<QueryResult>, EngineError> {
        match tier {
            QueryTier::Exact => self.query_batch(matrix, batch, k),
            QueryTier::Pruned { .. } => Err(EngineError::bad_query(format!(
                "backend `{}` does not implement the pruned query tier",
                self.name()
            ))),
        }
    }

    /// What this backend persists for `matrix` — the save half of the
    /// snapshot contract, read next to [`TopKBackend::from_snapshot`].
    ///
    /// The default covers every backend whose prepared state is the
    /// source [`Csr`] (the CPU and GPU baselines): that CSR, under
    /// [`family`]. The accelerator persists its encoded BS-CSR
    /// partitions instead; the `PrunedBackend` wrapper writes the CSR it
    /// keeps plus its companion prune stream under the *inner* family,
    /// so its snapshots stay loadable by the plain inner backend.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] if `matrix` does not belong to this
    /// backend's family.
    ///
    /// [`family`]: TopKBackend::family
    fn to_snapshot(&self, matrix: &PreparedMatrix) -> Result<Snapshot, EngineError> {
        let csr: &Csr = matrix.downcast(&self.family())?;
        Ok(matrix.snapshot_of(self.family(), SnapshotPayload::Csr(csr.clone()), None))
    }

    /// Adopts a decoded snapshot — the load half: which families this
    /// backend may adopt and how it rebuilds its prepared state.
    ///
    /// The default accepts exactly its own [`family`] and re-prepares
    /// from a CSR payload (free for the baselines, whose `prepare` is a
    /// clone), dropping any companion section. The accelerator adopts
    /// encoded partitions without re-running the layout solve and
    /// encode; the `PrunedBackend` also accepts its inner family and
    /// keeps the companion.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FamilyMismatch`] for a family this backend does
    /// not adopt, [`SnapshotError::Rejected`] for a payload kind it
    /// cannot restore or whatever [`TopKBackend::prepare`]-level
    /// validation reports.
    ///
    /// [`family`]: TopKBackend::family
    // The backend is the factory here: `&self` decides what is adopted.
    #[allow(clippy::wrong_self_convention)]
    fn from_snapshot(&self, snapshot: Snapshot) -> Result<PreparedMatrix, SnapshotError> {
        check_family(&snapshot.family, &[&self.family()])?;
        match snapshot.payload {
            SnapshotPayload::Csr(csr) => self.prepare(&csr).map_err(rejected),
            _ => Err(rejected(EngineError::bad_query(format!(
                "backend `{}` restores CSR snapshots, not encoded payload kinds",
                self.name()
            )))),
        }
    }
}

/// [`SnapshotError::FamilyMismatch`] unless `snapshot` is one of the
/// families `accepted` lists (the adopting backend's own family first).
pub(crate) fn check_family(snapshot: &str, accepted: &[&str]) -> Result<(), SnapshotError> {
    if accepted.contains(&snapshot) {
        return Ok(());
    }
    Err(SnapshotError::FamilyMismatch {
        snapshot: snapshot.to_string(),
        backend: accepted[0].to_string(),
    })
}

/// A backend's refusal of a snapshot it could decode.
pub(crate) fn rejected(e: EngineError) -> SnapshotError {
    SnapshotError::Rejected {
        detail: e.to_string(),
    }
}

/// An embedding collection after a backend's one-time preparation step.
///
/// The payload is backend-private (the accelerator stores BS-CSR
/// partitions, the baselines keep the CSR); only the shape is visible.
/// Hand it back to a backend of the *family* that prepared it —
/// anything else fails with [`EngineError::BadQuery`], even when the
/// private state types happen to coincide.
pub struct PreparedMatrix {
    family: String,
    num_rows: usize,
    num_cols: usize,
    nnz: u64,
    state: Box<dyn Any + Send + Sync>,
}

impl std::fmt::Debug for PreparedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMatrix")
            .field("family", &self.family)
            .field("num_rows", &self.num_rows)
            .field("num_cols", &self.num_cols)
            .field("nnz", &self.nnz)
            .finish_non_exhaustive()
    }
}

impl PreparedMatrix {
    /// Wraps a backend's private prepared state. Called by
    /// [`TopKBackend::prepare`] implementations, not by users.
    ///
    /// `family` is the compatibility key [`PreparedMatrix::downcast`]
    /// enforces: backends that can correctly serve each other's prepared
    /// matrices share one family (the GPU billing variants all use
    /// `gpu`), everything else uses a family of its own (the accelerator
    /// includes its precision, since the BS-CSR encoding differs).
    pub fn new<T: Any + Send + Sync>(
        family: impl Into<String>,
        num_rows: usize,
        num_cols: usize,
        nnz: u64,
        state: T,
    ) -> Self {
        Self {
            family: family.into(),
            num_rows,
            num_cols,
            nnz,
            state: Box::new(state),
        }
    }

    /// Compatibility family of the backend that prepared this matrix.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// Rows (embeddings) in the prepared collection.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns (embedding dimension `M`).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Logical non-zeros.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Recovers the private state for a backend of `family`.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] naming both families if the matrix was
    /// prepared by a different family — the name is checked as well as
    /// the state type, so two backends that coincidentally store the
    /// same type (the CPU and GPU baselines both keep a CSR) still
    /// cannot consume each other's matrices.
    pub fn downcast<T: Any>(&self, family: &str) -> Result<&T, EngineError> {
        if self.family != family {
            return Err(EngineError::backend_mismatch(family, &self.family));
        }
        self.state
            .downcast_ref::<T>()
            .ok_or_else(|| EngineError::corrupt_prepared_state(family))
    }

    /// The snapshot header for this matrix around a backend's payload:
    /// the shape travels with the matrix, the rest is the backend's
    /// [`TopKBackend::to_snapshot`] decision.
    pub(crate) fn snapshot_of(
        &self,
        family: String,
        payload: SnapshotPayload,
        companion: Option<PruneIndex>,
    ) -> Snapshot {
        Snapshot {
            family,
            num_rows: self.num_rows as u64,
            num_cols: self.num_cols as u64,
            nnz: self.nnz,
            payload,
            companion,
        }
    }

    /// Persists this prepared collection as a versioned, checksummed
    /// snapshot (see [`tkspmv_sparse::snapshot`]), so the next process
    /// can [`PreparedMatrix::load`] it instead of re-paying `prepare`.
    ///
    /// `backend` must be of the family that prepared this matrix; what
    /// is written is its [`TopKBackend::to_snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FamilyMismatch`] for a foreign backend,
    /// [`SnapshotError::Rejected`] if the backend cannot serialise the
    /// state, [`SnapshotError::Io`] on write failure.
    pub fn save<W: Write>(
        &self,
        backend: &dyn TopKBackend,
        writer: W,
    ) -> Result<(), SnapshotError> {
        check_family(&self.family, &[&backend.family()])?;
        backend
            .to_snapshot(self)
            .map_err(rejected)?
            .write_to(writer)
    }

    /// [`PreparedMatrix::save`] to a file path (buffered).
    ///
    /// # Errors
    ///
    /// As [`PreparedMatrix::save`], plus file-creation failures.
    pub fn save_to_path(
        &self,
        backend: &dyn TopKBackend,
        path: impl AsRef<Path>,
    ) -> Result<(), SnapshotError> {
        let file = std::fs::File::create(path)?;
        self.save(backend, std::io::BufWriter::new(file))
    }

    /// Loads a prepared collection persisted by [`PreparedMatrix::save`],
    /// fully verifying the stream (magic, version, structure, CRC), then
    /// letting the backend adopt it through
    /// [`TopKBackend::from_snapshot`] — which also decides whether the
    /// snapshot's family is one it may adopt — and checking the result
    /// against the header's shape.
    ///
    /// A loaded matrix answers queries element-wise identical to a fresh
    /// `prepare` of the same collection (property-tested per backend in
    /// `tests/snapshot_roundtrip.rs`) — only the load is cheaper: the
    /// accelerator skips the whole layout-solve + encode step.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: truncation, corruption, or version skew in
    /// the stream; [`SnapshotError::FamilyMismatch`] if the snapshot was
    /// saved by a different backend family (including an accelerator of
    /// a different precision — the family string carries it);
    /// [`SnapshotError::Rejected`] if the backend refuses the payload;
    /// [`SnapshotError::Invalid`] if the restored shape contradicts the
    /// header.
    pub fn load<R: Read>(
        backend: &dyn TopKBackend,
        reader: R,
    ) -> Result<PreparedMatrix, SnapshotError> {
        let snapshot = Snapshot::read_from(reader)?;
        let (num_rows, num_cols, nnz) = (snapshot.num_rows, snapshot.num_cols, snapshot.nnz);
        let prepared = backend.from_snapshot(snapshot)?;
        if (
            prepared.num_rows as u64,
            prepared.num_cols as u64,
            prepared.nnz,
        ) != (num_rows, num_cols, nnz)
        {
            return Err(SnapshotError::Invalid {
                detail: format!(
                    "restored matrix shape {}x{} ({} nnz) contradicts the snapshot \
                     header {num_rows}x{num_cols} ({nnz} nnz)",
                    prepared.num_rows, prepared.num_cols, prepared.nnz
                ),
            });
        }
        Ok(prepared)
    }

    /// [`PreparedMatrix::load`] from a file path (buffered).
    ///
    /// # Errors
    ///
    /// As [`PreparedMatrix::load`], plus file-open failures.
    pub fn load_from_path(
        backend: &dyn TopKBackend,
        path: impl AsRef<Path>,
    ) -> Result<PreparedMatrix, SnapshotError> {
        let file = std::fs::File::open(path)?;
        Self::load(backend, std::io::BufReader::new(file))
    }

    /// Splits an embedding collection into `shards` row-contiguous
    /// partitions and prepares each one through `backend` — the
    /// serving-layer analogue of the paper's per-HBM-channel row
    /// partitioning, one level up: each shard is an independently
    /// prepared collection a worker pool can own.
    ///
    /// A query is answered by running it against every shard and merging
    /// the per-shard Top-K lists with [`TopKResult::merge_pairs`] after
    /// re-basing local row indices via [`MatrixShard::globalize`]. For
    /// exact backends that reproduces the unsharded answer bit-for-bit;
    /// for the approximate accelerator the shard layout *is* part of the
    /// approximation (exactly as the core-partition layout is in §III-A),
    /// so results are reproducible per layout rather than
    /// layout-invariant.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if `shards` is zero or exceeds the
    /// row count; otherwise whatever [`TopKBackend::prepare`] reports
    /// for a shard.
    pub fn prepare_row_shards(
        backend: &dyn TopKBackend,
        csr: &Csr,
        shards: usize,
    ) -> Result<Vec<MatrixShard>, EngineError> {
        if shards == 0 || shards > csr.num_rows() {
            return Err(EngineError::bad_shard_count(shards, csr.num_rows()));
        }
        csr.partition_rows(shards)
            .into_iter()
            .map(|(start_row, part)| {
                Ok(MatrixShard {
                    start_row,
                    matrix: backend.prepare(&part)?,
                })
            })
            .collect()
    }
}

/// One row-contiguous shard of a collection prepared through
/// [`PreparedMatrix::prepare_row_shards`]: a [`PreparedMatrix`] over the
/// shard's rows plus the global index of its first row, so shard-local
/// Top-K answers can be re-based into collection coordinates.
#[derive(Debug)]
pub struct MatrixShard {
    start_row: usize,
    matrix: PreparedMatrix,
}

impl MatrixShard {
    /// Wraps an independently prepared (or snapshot-loaded) collection
    /// as the shard starting at global row `start_row` — the
    /// reconstruction path for serving layers that persist each shard
    /// with [`PreparedMatrix::save`] and reassemble the fleet after a
    /// restart. Layout invariants (contiguity, matching dimensions) are
    /// the assembling caller's to enforce across the shard set.
    pub fn new(start_row: usize, matrix: PreparedMatrix) -> Self {
        Self { start_row, matrix }
    }

    /// Global index of this shard's first row.
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Rows held by this shard.
    pub fn num_rows(&self) -> usize {
        self.matrix.num_rows()
    }

    /// The prepared collection covering this shard's rows.
    pub fn matrix(&self) -> &PreparedMatrix {
        &self.matrix
    }

    /// Re-bases a shard-local Top-K answer into global row indices,
    /// yielding `(row, score)` pairs ready for
    /// [`TopKResult::merge_pairs`].
    pub fn globalize(&self, topk: &TopKResult) -> Vec<(u32, f64)> {
        let base = self.start_row as u32;
        topk.entries()
            .iter()
            .map(|&(row, score)| (row + base, score))
            .collect()
    }
}

/// The precision tier a query is answered at.
///
/// Serving layers thread the tier from the request through batching to
/// the backend; batches never mix tiers (the same discipline that keeps
/// collection epochs from mixing), so every result in a batch carries
/// the precision contract its caller asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryTier {
    /// Full-precision answer from the backend's normal path.
    Exact,
    /// Staged two-phase answer: a low-bit prune pass shortlists
    /// `shortlist_factor · k` candidate rows, which are then rescored
    /// exactly. Larger factors trade speed for recall.
    Pruned {
        /// Shortlist size as a multiple of `k` (the paper-style `c`).
        shortlist_factor: usize,
    },
}

impl QueryTier {
    /// Compact label for metrics and tables: `exact` or `pruned-c{c}`.
    pub fn label(self) -> String {
        match self {
            QueryTier::Exact => "exact".to_string(),
            QueryTier::Pruned { shortlist_factor } => format!("pruned-c{shortlist_factor}"),
        }
    }
}

impl std::fmt::Display for QueryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A non-empty set of equal-dimension query vectors answered as one
/// [`TopKBackend::query_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    queries: Vec<DenseVector>,
    dim: usize,
}

impl QueryBatch {
    /// Builds a batch from query vectors.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] if `queries` is empty or the vectors do
    /// not all share one dimension.
    pub fn new(queries: Vec<DenseVector>) -> Result<Self, EngineError> {
        let Some(dim) = queries.first().map(DenseVector::len) else {
            return Err(EngineError::empty_batch());
        };
        if let Some(bad) = queries.iter().find(|q| q.len() != dim) {
            return Err(EngineError::vector_length_mismatch(bad.len(), dim));
        }
        Ok(Self { queries, dim })
    }

    /// A batch of `count` pseudo-random unit-scale queries of dimension
    /// `dim` — the standard workload for benchmarks and experiments.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `dim` is zero.
    pub fn random(count: usize, dim: usize, seed: u64) -> Self {
        assert!(count > 0, "batch needs at least one query");
        assert!(dim > 0, "queries need at least one dimension");
        let queries = (0..count as u64)
            .map(|q| query_vector(dim, seed.wrapping_add(q)))
            .collect();
        Self { queries, dim }
    }

    /// Number of queries in the batch (always at least 1).
    #[allow(clippy::len_without_is_empty)] // non-empty by construction
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Shared dimension of every query vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The queries, in batch order.
    pub fn queries(&self) -> &[DenseVector] {
        &self.queries
    }

    /// Iterates the queries in batch order.
    pub fn iter(&self) -> std::slice::Iter<'_, DenseVector> {
        self.queries.iter()
    }
}

impl<'a> IntoIterator for &'a QueryBatch {
    type Item = &'a DenseVector;
    type IntoIter = std::slice::Iter<'a, DenseVector>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Where a [`BackendPerf`] time came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSource {
    /// Wall-clock measured on this host (the CPU baseline).
    Measured,
    /// Produced by a calibrated analytic model (FPGA, GPU).
    Modelled,
}

/// Uniform performance facts every backend reports per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendPerf {
    /// End-to-end seconds, including host/launch overhead.
    pub seconds: f64,
    /// Compute-only seconds (the number Figure 5 compares).
    pub kernel_seconds: f64,
    /// Logical non-zeros processed.
    pub nnz: u64,
    /// Measured or modelled.
    pub timing: TimingSource,
}

impl BackendPerf {
    /// A wall-clock measurement (kernel time = total time).
    pub fn measured(seconds: f64, nnz: u64) -> Self {
        Self {
            seconds,
            kernel_seconds: seconds,
            nnz,
            timing: TimingSource::Measured,
        }
    }

    /// An analytically modelled execution.
    pub fn modelled(seconds: f64, kernel_seconds: f64, nnz: u64) -> Self {
        Self {
            seconds,
            kernel_seconds,
            nnz,
            timing: TimingSource::Modelled,
        }
    }

    /// Throughput in non-zeros per second (end-to-end).
    pub fn nnz_per_sec(&self) -> f64 {
        self.nnz as f64 / self.seconds
    }

    /// Throughput in giga-non-zeros per second.
    pub fn gnnz_per_sec(&self) -> f64 {
        self.nnz_per_sec() / 1e9
    }
}

/// Backend-specific execution statistics attached to a [`QueryResult`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendStats {
    /// The emulated accelerator: the full modelled report and per-core
    /// counters.
    Fpga {
        /// Complete performance model output.
        report: PerfReport,
        /// Per-core statistics, in partition order.
        cores: Vec<CoreStats>,
        /// Decode/score time of the batch this query rode in, on its
        /// busiest participant, summed over the partitions it walked.
        stages: StageTimes,
    },
    /// The CPU baseline.
    Cpu {
        /// Worker threads used.
        threads: usize,
    },
    /// The GPU model: component times of the two-kernel pipeline.
    Gpu {
        /// Modelled cuSPARSE SpMV seconds.
        spmv_seconds: f64,
        /// Modelled Thrust sort seconds.
        sort_seconds: f64,
        /// Whether the backend bills the idealised zero-cost sort.
        zero_cost_sort: bool,
    },
    /// The staged prune + rescore pipeline.
    Pruned {
        /// Bit width of the companion prune stream.
        bits: u32,
        /// Rows shortlisted for exact rescoring.
        shortlist: usize,
        /// Whether the low-bit pass actually ran; `false` means the
        /// query fell through to the exact path (no companion index, or
        /// the shortlist would have covered every row anyway).
        pruned: bool,
        /// This query's prune and rescore time, plus whatever stages
        /// the wrapped backend reported for the rescore (or, on the
        /// fall-through, for the whole query).
        stages: StageTimes,
    },
}

impl BackendStats {
    /// Per-core accelerator statistics, if this came from the FPGA.
    pub fn core_stats(&self) -> Option<&[CoreStats]> {
        match self {
            BackendStats::Fpga { cores, .. } => Some(cores),
            _ => None,
        }
    }

    /// Engine stage times measured by the call that produced this
    /// result; all zero for backends that do not split their work into
    /// stages.
    pub fn stage_times(&self) -> StageTimes {
        match self {
            BackendStats::Fpga { stages, .. } | BackendStats::Pruned { stages, .. } => *stages,
            _ => StageTimes::default(),
        }
    }

    /// The accelerator's full performance report, if available.
    pub fn perf_report(&self) -> Option<&PerfReport> {
        match self {
            BackendStats::Fpga { report, .. } => Some(report),
            _ => None,
        }
    }

    /// The GPU model's component timings as
    /// `(spmv_seconds, sort_seconds, zero_cost_sort)`, if this result
    /// came from the GPU baseline — the typed alternative to matching
    /// the [`BackendStats::Gpu`] variant by hand.
    pub fn gpu_timings(&self) -> Option<(f64, f64, bool)> {
        match *self {
            BackendStats::Gpu {
                spmv_seconds,
                sort_seconds,
                zero_cost_sort,
            } => Some((spmv_seconds, sort_seconds, zero_cost_sort)),
            _ => None,
        }
    }
}

/// What every backend returns per query: the ranked rows, uniform
/// performance facts, and whatever engine-specific statistics it keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The (approximate) Top-K, best first.
    pub topk: TopKResult,
    /// Uniform performance report.
    pub perf: BackendPerf,
    /// Backend-specific statistics.
    pub stats: BackendStats,
}

/// Recovers an accelerator's own prepared state, rejecting matrices of
/// any other family or (defence in depth, should the family string ever
/// be spoofed through [`PreparedMatrix::new`]) a different encoding
/// precision.
fn checked_loaded<'m>(
    acc: &Accelerator,
    matrix: &'m PreparedMatrix,
) -> Result<&'m LoadedMatrix, EngineError> {
    let loaded: &LoadedMatrix = matrix.downcast(&acc.family())?;
    if loaded.precision != acc.config().precision {
        return Err(EngineError::bad_query(format!(
            "prepared matrix is encoded as {}, backend expects {}",
            loaded.precision.label(),
            acc.config().precision.label()
        )));
    }
    Ok(loaded)
}

/// Lifts an accelerator's native output into the uniform result shape.
fn fpga_result(out: crate::accelerator::QueryOutput) -> QueryResult {
    QueryResult {
        perf: BackendPerf::modelled(out.perf.seconds, out.perf.kernel_seconds, out.perf.nnz),
        topk: out.topk,
        stats: BackendStats::Fpga {
            report: out.perf,
            cores: out.core_stats,
            stages: out.stages,
        },
    }
}

impl Accelerator {
    /// Wraps a loaded (encoded or snapshot-adopted) matrix for the trait.
    fn prepared(&self, loaded: LoadedMatrix) -> PreparedMatrix {
        PreparedMatrix::new(
            self.name(),
            loaded.num_rows,
            loaded.num_cols,
            loaded.nnz,
            loaded,
        )
    }
}

impl TopKBackend for Accelerator {
    fn name(&self) -> String {
        format!(
            "fpga-{}",
            self.config().precision.label().to_ascii_lowercase()
        )
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        Ok(self.prepared(self.load_matrix(csr)?))
    }

    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let loaded = checked_loaded(self, matrix)?;
        Ok(fpga_result(self.query(loaded, x, k)?))
    }

    fn query_batch(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let loaded = checked_loaded(self, matrix)?;
        let outs = self.query_batch(loaded, batch.queries(), k)?;
        Ok(outs.into_iter().map(fpga_result).collect())
    }

    /// The accelerator persists its *encoded* form — per-core BS-CSR
    /// packet streams plus the layout and precision — so a load skips
    /// the one-time encode entirely.
    fn to_snapshot(&self, matrix: &PreparedMatrix) -> Result<Snapshot, EngineError> {
        let loaded = checked_loaded(self, matrix)?;
        let payload = SnapshotPayload::BsCsrPartitions {
            precision: loaded.precision,
            layout: loaded.layout,
            partitions: loaded
                .partitions
                .iter()
                .map(|(first_row, part)| (*first_row as u64, part.clone()))
                .collect(),
        };
        Ok(matrix.snapshot_of(self.family(), payload, None))
    }

    /// Encoded partitions are adopted as they are; a CSR payload under
    /// this family (what a `PrunedBackend` around this design writes) is
    /// prepared from scratch — correct, just not accelerated.
    fn from_snapshot(&self, snapshot: Snapshot) -> Result<PreparedMatrix, SnapshotError> {
        check_family(&snapshot.family, &[&self.family()])?;
        let loaded = match snapshot.payload {
            SnapshotPayload::BsCsrPartitions {
                precision,
                layout,
                partitions,
            } => self.restore_matrix(precision, layout, partitions),
            SnapshotPayload::Csr(csr) => self.load_matrix(&csr),
            _ => Err(EngineError::bad_query(format!(
                "backend `{}` restores BS-CSR partition or CSR snapshots only",
                self.name()
            ))),
        }
        .map_err(rejected)?;
        Ok(self.prepared(loaded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::gen::{NnzDistribution, SyntheticConfig};

    fn small_matrix() -> Csr {
        SyntheticConfig {
            num_rows: 800,
            num_cols: 256,
            avg_nnz_per_row: 16,
            distribution: NnzDistribution::Uniform,
            seed: 31,
        }
        .generate()
    }

    fn accelerator_backend() -> Box<dyn TopKBackend> {
        Box::new(Accelerator::builder().cores(8).k(8).build().unwrap())
    }

    #[test]
    fn accelerator_runs_through_the_trait() {
        let backend = accelerator_backend();
        assert_eq!(backend.name(), "fpga-20b");
        let prepared = backend.prepare(&small_matrix()).unwrap();
        assert_eq!(prepared.family(), "fpga-20b");
        assert_eq!(prepared.num_rows(), 800);
        assert_eq!(prepared.num_cols(), 256);
        assert!(prepared.nnz() > 0);
        let out = backend.query(&prepared, &query_vector(256, 3), 20).unwrap();
        assert_eq!(out.topk.len(), 20);
        assert_eq!(out.perf.timing, TimingSource::Modelled);
        assert!(out.perf.kernel_seconds > 0.0);
        assert!(out.perf.seconds > out.perf.kernel_seconds);
        assert_eq!(out.stats.core_stats().unwrap().len(), 8);
        assert!(out.stats.perf_report().is_some());
    }

    #[test]
    fn trait_batch_matches_trait_singles() {
        let backend = accelerator_backend();
        let prepared = backend.prepare(&small_matrix()).unwrap();
        let batch = QueryBatch::random(6, 256, 11);
        let got = backend.query_batch(&prepared, &batch, 30).unwrap();
        assert_eq!(got.len(), 6);
        for (x, g) in batch.iter().zip(&got) {
            let single = backend.query(&prepared, x, 30).unwrap();
            assert_eq!(single.topk, g.topk);
            assert_eq!(single.perf, g.perf);
        }
    }

    #[test]
    fn foreign_prepared_matrix_is_rejected() {
        let backend = accelerator_backend();
        let fake = PreparedMatrix::new("something-else", 10, 256, 50, 0u32);
        let err = backend.query(&fake, &query_vector(256, 1), 5).unwrap_err();
        assert!(err.to_string().contains("something-else"), "{err}");
    }

    #[test]
    fn precision_mismatch_is_rejected() {
        use tkspmv_fixed::Precision;
        let b20 = accelerator_backend();
        let b32: Box<dyn TopKBackend> = Box::new(
            Accelerator::builder()
                .precision(Precision::Fixed32)
                .cores(8)
                .k(8)
                .build()
                .unwrap(),
        );
        let prepared = b20.prepare(&small_matrix()).unwrap();
        // Same state type, wrong encoding: must not silently misdecode.
        assert!(b32.query(&prepared, &query_vector(256, 1), 5).is_err());
    }

    #[test]
    fn query_batch_validates_dimensions() {
        assert!(QueryBatch::new(vec![]).is_err());
        assert!(QueryBatch::new(vec![query_vector(8, 1), query_vector(9, 2)]).is_err());
        let batch = QueryBatch::new(vec![query_vector(8, 1), query_vector(8, 2)]).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.dim(), 8);
        assert_eq!(batch.queries().len(), 2);
        assert_eq!((&batch).into_iter().count(), 2);
    }

    #[test]
    fn random_batch_is_deterministic() {
        let a = QueryBatch::random(4, 32, 9);
        let b = QueryBatch::random(4, 32, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.dim(), 32);
    }

    #[test]
    fn row_shards_cover_the_collection_and_globalize_indices() {
        let backend = accelerator_backend();
        let csr = small_matrix();
        let shards = PreparedMatrix::prepare_row_shards(backend.as_ref(), &csr, 3).unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].start_row(), 0);
        let covered: usize = shards.iter().map(MatrixShard::num_rows).sum();
        assert_eq!(covered, csr.num_rows());
        for pair in shards.windows(2) {
            assert_eq!(
                pair[1].start_row(),
                pair[0].start_row() + pair[0].num_rows()
            );
        }
        // Query the last shard: globalized indices land in its row range.
        let last = &shards[2];
        let out = backend
            .query(last.matrix(), &query_vector(256, 5), 10)
            .unwrap();
        for (row, score) in last.globalize(&out.topk) {
            assert!((row as usize) >= last.start_row());
            assert!((row as usize) < last.start_row() + last.num_rows());
            assert!(score.is_finite());
        }
    }

    #[test]
    fn bad_shard_counts_are_typed_errors() {
        let backend = accelerator_backend();
        let csr = small_matrix();
        for shards in [0, csr.num_rows() + 1] {
            let err =
                PreparedMatrix::prepare_row_shards(backend.as_ref(), &csr, shards).unwrap_err();
            assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
        }
    }

    #[test]
    fn snapshot_save_load_round_trips_the_accelerator() {
        let backend = accelerator_backend();
        let csr = small_matrix();
        let prepared = backend.prepare(&csr).unwrap();
        let mut buf = Vec::new();
        prepared.save(backend.as_ref(), &mut buf).unwrap();
        let loaded = PreparedMatrix::load(backend.as_ref(), buf.as_slice()).unwrap();
        assert_eq!(loaded.family(), prepared.family());
        assert_eq!(loaded.num_rows(), prepared.num_rows());
        assert_eq!(loaded.num_cols(), prepared.num_cols());
        assert_eq!(loaded.nnz(), prepared.nnz());
        for seed in 0..3 {
            let x = query_vector(256, seed);
            let fresh = backend.query(&prepared, &x, 20).unwrap();
            let restored = backend.query(&loaded, &x, 20).unwrap();
            assert_eq!(fresh.topk, restored.topk);
            assert_eq!(fresh.perf, restored.perf);
        }
    }

    #[test]
    fn foreign_family_snapshots_fail_typed() {
        use tkspmv_fixed::Precision;
        let b20 = accelerator_backend();
        let b32: Box<dyn TopKBackend> = Box::new(
            Accelerator::builder()
                .precision(Precision::Fixed32)
                .cores(8)
                .k(8)
                .build()
                .unwrap(),
        );
        let prepared = b20.prepare(&small_matrix()).unwrap();
        // Saving through a foreign backend is refused outright.
        let mut scratch = Vec::new();
        assert!(matches!(
            prepared.save(b32.as_ref(), &mut scratch),
            Err(SnapshotError::FamilyMismatch { .. })
        ));
        // A 20-bit snapshot cannot load into a 32-bit design: the family
        // string carries the precision, so the mismatch is typed before
        // the payload is ever adopted.
        let mut buf = Vec::new();
        prepared.save(b20.as_ref(), &mut buf).unwrap();
        assert!(matches!(
            PreparedMatrix::load(b32.as_ref(), buf.as_slice()),
            Err(SnapshotError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_from_a_different_core_count_is_rejected() {
        // Same family ("fpga-20b"), different core partitioning: the
        // partition layout is part of the approximation, so adopting it
        // silently would change answers relative to a fresh prepare.
        let b8 = accelerator_backend();
        let b4: Box<dyn TopKBackend> =
            Box::new(Accelerator::builder().cores(4).k(8).build().unwrap());
        let prepared = b8.prepare(&small_matrix()).unwrap();
        let mut buf = Vec::new();
        prepared.save(b8.as_ref(), &mut buf).unwrap();
        match PreparedMatrix::load(b4.as_ref(), buf.as_slice()) {
            Err(SnapshotError::Rejected { detail }) => {
                assert!(detail.contains("partitions"), "{detail}");
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_round_trips_through_a_file() {
        let backend = accelerator_backend();
        let prepared = backend.prepare(&small_matrix()).unwrap();
        let path = std::env::temp_dir().join(format!(
            "tkspmv-snapshot-test-{}.tksnap",
            std::process::id()
        ));
        prepared.save_to_path(backend.as_ref(), &path).unwrap();
        let loaded = PreparedMatrix::load_from_path(backend.as_ref(), &path).unwrap();
        let _ = std::fs::remove_file(&path);
        let x = query_vector(256, 9);
        assert_eq!(
            backend.query(&prepared, &x, 10).unwrap().topk,
            backend.query(&loaded, &x, 10).unwrap().topk
        );
    }

    #[test]
    fn matrix_shard_new_rebases_like_prepared_shards() {
        let backend = accelerator_backend();
        let csr = small_matrix();
        let prepared = backend.prepare(&csr).unwrap();
        let shard = MatrixShard::new(100, prepared);
        assert_eq!(shard.start_row(), 100);
        let out = backend
            .query(shard.matrix(), &query_vector(256, 2), 5)
            .unwrap();
        for (row, _) in shard.globalize(&out.topk) {
            assert!((100..100 + shard.num_rows() as u32).contains(&row));
        }
    }

    #[test]
    fn gpu_timings_only_on_gpu_stats() {
        let fpga = BackendStats::Cpu { threads: 4 };
        assert!(fpga.gpu_timings().is_none());
        let gpu = BackendStats::Gpu {
            spmv_seconds: 0.25,
            sort_seconds: 0.5,
            zero_cost_sort: true,
        };
        assert_eq!(gpu.gpu_timings(), Some((0.25, 0.5, true)));
    }

    #[test]
    fn backend_perf_rates() {
        let p = BackendPerf::measured(0.5, 1_000_000);
        assert_eq!(p.timing, TimingSource::Measured);
        assert!((p.nnz_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert!((p.gnnz_per_sec() - 0.002).abs() < 1e-12);
        let m = BackendPerf::modelled(0.2, 0.1, 100);
        assert_eq!(m.kernel_seconds, 0.1);
        assert_eq!(m.timing, TimingSource::Modelled);
    }
}
