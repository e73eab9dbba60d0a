//! Host-facing accelerator API.
//!
//! [`Accelerator`] plays the role of the paper's host program: it
//! validates a design configuration against the device model, encodes
//! the embedding collection into per-channel BS-CSR partitions
//! ([`Accelerator::load_matrix`]), and launches queries that run the
//! multi-core engine and return ranked results with a performance model
//! report ([`Accelerator::query`]).

use tkspmv_fixed::{Half, Precision, F32, Q1_19, Q1_24, Q1_31};
use tkspmv_hw::{ChannelModel, DesignPoint, HbmConfig, ResourceModel, UramBudget};
use tkspmv_sparse::{BsCsr, Csr, DenseVector, PacketLayout};

use crate::engine::{quantize_vector, run_multicore, CoreStats, Fidelity, MulticoreOutput};
use crate::error::EngineError;
use crate::fanout::host_parallelism;
use crate::perf::PerfReport;
use crate::stages::StageTimes;
use crate::topk::TopKResult;

/// Validated accelerator configuration (see [`Accelerator::builder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Numeric design (Table II row).
    pub precision: Precision,
    /// Cores = HBM channels used (32 in the paper).
    pub cores: u32,
    /// Per-core Top-k depth (8 in the paper).
    pub k: usize,
    /// `r` row slots per packet, or `None` for the reference (no-limit)
    /// datapath.
    pub rows_per_packet: Option<u32>,
    /// HBM stack parameters.
    pub hbm: HbmConfig,
}

/// Builder for [`Accelerator`].
///
/// # Example
///
/// ```
/// use tkspmv::Accelerator;
/// use tkspmv_fixed::Precision;
///
/// let acc = Accelerator::builder()
///     .precision(Precision::Fixed20)
///     .cores(32)
///     .k(8)
///     .build()?;
/// assert_eq!(acc.config().cores, 32);
/// # Ok::<(), tkspmv::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorBuilder {
    precision: Precision,
    cores: u32,
    k: usize,
    rows_per_packet: Option<u32>,
    hbm: HbmConfig,
}

impl Default for AcceleratorBuilder {
    fn default() -> Self {
        Self {
            precision: Precision::Fixed20,
            cores: 32,
            k: 8,
            rows_per_packet: None,
            hbm: HbmConfig::alveo_u280(),
        }
    }
}

impl AcceleratorBuilder {
    /// Selects the numeric design (default: 20-bit fixed point).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Number of cores / HBM channels (default 32).
    #[must_use]
    pub fn cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Per-core Top-k depth (default 8).
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Limits the row-completion slots per packet (`r` of §IV-B). By
    /// default the hardware default `r = B/2` is applied at load time.
    #[must_use]
    pub fn rows_per_packet(mut self, r: u32) -> Self {
        self.rows_per_packet = Some(r);
        self
    }

    /// Substitutes a different HBM configuration (e.g. a smaller card).
    #[must_use]
    pub fn hbm(mut self, hbm: HbmConfig) -> Self {
        self.hbm = hbm;
        self
    }

    /// Validates and builds the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if `cores` is zero or
    /// exceeds the HBM channel count, or if `k` is zero.
    pub fn build(self) -> Result<Accelerator, EngineError> {
        if self.cores == 0 || self.cores > self.hbm.num_channels {
            return Err(EngineError::cores_out_of_range(
                self.cores,
                self.hbm.num_channels,
            ));
        }
        if self.k == 0 {
            return Err(EngineError::zero_k());
        }
        if self.rows_per_packet == Some(0) {
            return Err(EngineError::zero_rows_per_packet());
        }
        Ok(Accelerator {
            config: AcceleratorConfig {
                precision: self.precision,
                cores: self.cores,
                k: self.k,
                rows_per_packet: self.rows_per_packet,
                hbm: self.hbm,
            },
            resources: ResourceModel::alveo_u280(),
        })
    }
}

/// The emulated multi-core Top-K SpMV accelerator.
///
/// See the crate-level documentation for the full workflow.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
    resources: ResourceModel,
}

impl Accelerator {
    /// Starts building an accelerator with the paper's defaults
    /// (20-bit fixed point, 32 cores, k = 8).
    #[must_use]
    pub fn builder() -> AcceleratorBuilder {
        AcceleratorBuilder::default()
    }

    /// The validated configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The resource model used for feasibility checks and Table II.
    pub fn resources(&self) -> &ResourceModel {
        &self.resources
    }

    /// Resolves the design point for a matrix with `num_cols` columns
    /// (B depends on `M` through the §IV-C capacity equation).
    ///
    /// # Errors
    ///
    /// Returns an error if no packet layout fits.
    pub fn design_for(&self, num_cols: usize) -> Result<(PacketLayout, DesignPoint), EngineError> {
        let layout = PacketLayout::solve(num_cols, self.config.precision.value_bits())?;
        let b = layout.entries_per_packet();
        let design = DesignPoint {
            cores: self.config.cores,
            b,
            value_bits: self.config.precision.value_bits(),
            is_float: !self.config.precision.is_fixed_point(),
            k: self.config.k as u32,
            r: self.config.rows_per_packet.unwrap_or((b / 2).max(1)),
            m: num_cols,
        };
        Ok((layout, design))
    }

    /// Encodes and partitions an embedding collection for this
    /// accelerator — the host's one-time upload step.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Infeasible`] if the design does not place
    /// on the device or the query vector would not fit URAM, and a
    /// format error if the matrix cannot be encoded.
    pub fn load_matrix(&self, csr: &Csr) -> Result<LoadedMatrix, EngineError> {
        if csr.num_rows() == 0 {
            return Err(EngineError::empty_matrix());
        }
        let (layout, design) = self.design_for(csr.num_cols())?;
        self.check_feasibility(&design, csr.num_cols())?;
        let cores = (self.config.cores as usize).min(csr.num_rows());
        let partitions: Vec<(usize, BsCsr)> = csr
            .partition_rows(cores)
            .into_iter()
            .map(|(first, part)| (first, self.encode_partition(&part, layout)))
            .collect();
        Ok(LoadedMatrix {
            precision: self.config.precision,
            layout,
            design,
            partitions,
            num_rows: csr.num_rows(),
            num_cols: csr.num_cols(),
            nnz: csr.nnz() as u64,
        })
    }

    /// The device-placement gate shared by the encode path
    /// ([`Accelerator::load_matrix`]) and the snapshot-restore path
    /// ([`Accelerator::restore_matrix`]): resources and the URAM query
    /// vector budget. One gate, so what loads and what restores can
    /// never silently diverge.
    fn check_feasibility(&self, design: &DesignPoint, num_cols: usize) -> Result<(), EngineError> {
        if !self.resources.is_feasible(design) {
            return Err(EngineError::infeasible(format!(
                "{design:?} exceeds device resources"
            )));
        }
        let uram = UramBudget::alveo_u280();
        if !uram.supports(design.cores, design.b, design.value_bits.max(16), num_cols) {
            return Err(EngineError::infeasible(format!(
                "query vector of {num_cols} entries does not fit URAM at {} cores",
                design.cores
            )));
        }
        Ok(())
    }

    /// Adopts already-encoded BS-CSR partitions (read back from a
    /// persisted snapshot) as a loaded matrix, skipping the encode —
    /// the cheap half of the one-time cost [`Accelerator::load_matrix`]
    /// pays from raw CSR.
    ///
    /// The partitions are revalidated against this accelerator exactly
    /// as a fresh load would be: the precision must match the configured
    /// design, the layout must equal what [`Accelerator::design_for`]
    /// solves for the matrix width, the partition count must equal the
    /// layout a fresh `load_matrix` would produce (core count clamped to
    /// the row count — a snapshot from a different core count would
    /// change the approximation), and the design must place on the
    /// device. The packet streams themselves are assumed
    /// structurally valid (snapshot reading runs `BsCsr::validate` per
    /// partition).
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] for precision/layout/partition-count
    /// mismatches, [`EngineError::Infeasible`] if the design no longer
    /// places, [`EngineError::InvalidConfig`] for an empty partition set.
    pub(crate) fn restore_matrix(
        &self,
        precision: Precision,
        layout: PacketLayout,
        partitions: Vec<(u64, BsCsr)>,
    ) -> Result<LoadedMatrix, EngineError> {
        if precision != self.config.precision {
            return Err(EngineError::bad_query(format!(
                "snapshot is encoded as {}, backend expects {}",
                precision.label(),
                self.config.precision.label()
            )));
        }
        if partitions.is_empty() {
            return Err(EngineError::empty_matrix());
        }
        let num_cols = partitions[0].1.num_cols();
        let (expected_layout, design) = self.design_for(num_cols)?;
        if expected_layout != layout {
            return Err(EngineError::bad_query(format!(
                "snapshot layout {layout:?} does not match the layout this \
                 design solves for {num_cols} columns ({expected_layout:?})"
            )));
        }
        let mut num_rows = 0usize;
        let mut nnz = 0u64;
        let mut adopted: Vec<(usize, BsCsr)> = Vec::with_capacity(partitions.len());
        for (first_row, part) in partitions {
            if first_row as usize != num_rows || part.num_cols() != num_cols {
                return Err(EngineError::bad_query(
                    "snapshot partitions are not a contiguous single-width row cover".to_string(),
                ));
            }
            // Each partition's own layout must equal the declared one:
            // the snapshot reader enforces this, but `SnapshotPayload`
            // is a public type, and a partition encoded under another
            // layout would decode to silently wrong scores rather than
            // an error.
            if part.layout() != layout {
                return Err(EngineError::bad_query(format!(
                    "partition at row {first_row} is encoded with layout {:?}, \
                     snapshot declares {layout:?}",
                    part.layout()
                )));
            }
            num_rows += part.num_rows();
            nnz += part.logical_nnz();
            adopted.push((first_row as usize, part));
        }
        let expected_parts = (self.config.cores as usize).min(num_rows);
        if adopted.len() != expected_parts {
            return Err(EngineError::bad_query(format!(
                "snapshot holds {} partitions but this {}-core design would \
                 load {expected_parts}; the core partitioning is part of the \
                 approximation and cannot be adopted across designs",
                adopted.len(),
                self.config.cores
            )));
        }
        self.check_feasibility(&design, num_cols)?;
        Ok(LoadedMatrix {
            precision,
            layout,
            design,
            partitions: adopted,
            num_rows,
            num_cols,
            nnz,
        })
    }

    fn encode_partition(&self, part: &Csr, layout: PacketLayout) -> BsCsr {
        match self.config.precision {
            Precision::Fixed20 => BsCsr::encode::<Q1_19>(part, layout),
            Precision::Fixed25 => BsCsr::encode::<Q1_24>(part, layout),
            Precision::Fixed32 => BsCsr::encode::<Q1_31>(part, layout),
            Precision::Float32 => BsCsr::encode::<F32>(part, layout),
            Precision::Half16 => BsCsr::encode::<Half>(part, layout),
        }
    }

    /// Runs a Top-K query against a loaded matrix — the B = 1 case of
    /// [`Accelerator::query_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadQuery`] if the vector length does not
    /// match, `big_k` is zero, or `k·c < big_k` (the per-core depth
    /// cannot cover the requested K).
    pub fn query(
        &self,
        matrix: &LoadedMatrix,
        x: &DenseVector,
        big_k: usize,
    ) -> Result<QueryOutput, EngineError> {
        let mut outs = self.query_batch(matrix, std::slice::from_ref(x), big_k)?;
        // invariant: a validated one-query batch yields exactly one output
        Ok(outs.pop().expect("one output per query"))
    }

    /// Runs a batch of queries against a loaded matrix.
    ///
    /// A deployment answers many queries against the same collection;
    /// the expensive load/encode step is paid once and the batch reuses
    /// it. Beyond that, batching amortises per-call work: the precision
    /// dispatch happens once for the whole batch, and each per-channel
    /// BS-CSR partition is streamed once while *all* queries ride
    /// through it (the hardware picture — the matrix lives in HBM,
    /// queries are swapped through URAM). The configured cores are the
    /// design: they fix the partitioning, the approximation and the
    /// modelled time. The host walks those partitions on
    /// `min(host parallelism, cores)` participants
    /// ([`crate::fanout::fork_join`]), which changes no answer. Results
    /// are in input order and element-wise identical to one-query
    /// batches. (On the real device queries are serialised through the
    /// kernel; the per-query [`PerfReport`]s model that serial latency,
    /// not the host-side parallel walltime.)
    ///
    /// # Errors
    ///
    /// Returns the first failing query's error; the whole batch is
    /// validated before any query runs.
    pub fn query_batch(
        &self,
        matrix: &LoadedMatrix,
        queries: &[DenseVector],
        big_k: usize,
    ) -> Result<Vec<QueryOutput>, EngineError> {
        self.validate_query(matrix, big_k)?;
        for x in queries {
            if x.len() != matrix.num_cols {
                return Err(EngineError::vector_length_mismatch(
                    x.len(),
                    matrix.num_cols,
                ));
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let fidelity = self.fidelity_for(matrix);
        let k = self.config.k;
        let outs = match self.config.precision {
            Precision::Fixed20 => batch_typed::<Q1_19>(matrix, queries, k, big_k, fidelity),
            Precision::Fixed25 => batch_typed::<Q1_24>(matrix, queries, k, big_k, fidelity),
            Precision::Fixed32 => batch_typed::<Q1_31>(matrix, queries, k, big_k, fidelity),
            Precision::Float32 => batch_typed::<F32>(matrix, queries, k, big_k, fidelity),
            Precision::Half16 => batch_typed::<Half>(matrix, queries, k, big_k, fidelity),
        };
        Ok(outs
            .into_iter()
            .map(|out| self.attach_perf(matrix, out))
            .collect())
    }

    /// Shared query-shape validation (`K` positive, coverable by `k·c`).
    fn validate_query(&self, matrix: &LoadedMatrix, big_k: usize) -> Result<(), EngineError> {
        if big_k == 0 {
            return Err(EngineError::zero_big_k());
        }
        let covered = self.config.k * matrix.partitions.len();
        if covered < big_k {
            return Err(EngineError::coverage_too_small(covered, big_k));
        }
        Ok(())
    }

    fn fidelity_for(&self, matrix: &LoadedMatrix) -> Fidelity {
        Fidelity::Faithful {
            rows_per_packet: self.config.rows_per_packet.unwrap_or(matrix.design.r),
        }
    }

    /// Wraps an engine output with the modelled performance report.
    fn attach_perf(&self, matrix: &LoadedMatrix, out: MulticoreOutput) -> QueryOutput {
        let channel = self.channel_model(&matrix.design);
        let total_packets: u64 = matrix
            .partitions
            .iter()
            .map(|(_, p)| p.num_packets() as u64)
            .sum();
        let perf = PerfReport::from_stream(
            &channel,
            matrix.partitions.len() as u32,
            out.max_packets_per_core,
            total_packets,
            matrix.nnz,
        );
        QueryOutput {
            topk: out.topk,
            perf,
            core_stats: out.core_stats,
            stages: out.stages,
        }
    }

    /// The modelled kernel clock for a design point.
    pub fn clock_hz(&self, design: &DesignPoint) -> f64 {
        self.resources.clock_hz(design)
    }

    /// The modelled board power for a design point.
    pub fn power_w(&self, design: &DesignPoint) -> f64 {
        self.resources.power_w(design)
    }

    fn channel_model(&self, design: &DesignPoint) -> ChannelModel {
        self.config
            .hbm
            .channel_model(self.resources.clock_hz(design))
    }
}

/// Monomorphised batch execution: quantise every query once for the
/// batch, then stream all of them through the resident partitions.
fn batch_typed<S: tkspmv_fixed::SpmvScalar>(
    matrix: &LoadedMatrix,
    queries: &[DenseVector],
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
) -> Vec<MulticoreOutput> {
    let xs: Vec<Vec<S>> = queries
        .iter()
        .map(|x| quantize_vector::<S>(x.as_slice()))
        .collect();
    run_multicore::<S, _>(
        &matrix.partitions,
        &xs,
        k,
        big_k,
        fidelity,
        host_parallelism(),
    )
}

/// An embedding collection encoded and partitioned for an accelerator.
#[derive(Debug, Clone)]
pub struct LoadedMatrix {
    /// Precision it was encoded with.
    pub precision: Precision,
    /// Packet layout in use.
    pub layout: PacketLayout,
    /// Resolved design point.
    pub design: DesignPoint,
    /// `(first_row, packets)` per core.
    pub partitions: Vec<(usize, BsCsr)>,
    /// Total rows.
    pub num_rows: usize,
    /// Columns (`M`).
    pub num_cols: usize,
    /// Logical non-zeros.
    pub nnz: u64,
}

impl LoadedMatrix {
    /// Total HBM bytes occupied by the encoded partitions (Table III).
    pub fn size_bytes(&self) -> u64 {
        self.partitions.iter().map(|(_, p)| p.size_bytes()).sum()
    }
}

/// Result of one query: ranked rows, modelled performance, per-core
/// statistics.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The approximate Top-K, best first.
    pub topk: TopKResult,
    /// Modelled execution performance.
    pub perf: PerfReport,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Decode/score time of the batch this query rode in, on its
    /// busiest participant, summed over the partitions it walked.
    pub stages: StageTimes,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

    fn small_matrix() -> Csr {
        SyntheticConfig {
            num_rows: 1000,
            num_cols: 512,
            avg_nnz_per_row: 20,
            distribution: NnzDistribution::Uniform,
            seed: 17,
        }
        .generate()
    }

    #[test]
    fn end_to_end_query_returns_k_results() {
        let acc = Accelerator::builder().build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        let out = acc.query(&m, &query_vector(512, 1), 100).unwrap();
        assert_eq!(out.topk.len(), 100);
        assert_eq!(out.core_stats.len(), 32);
        assert!(out.perf.seconds > 0.0);
        // Scores are descending.
        let scores = out.topk.scores();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn builder_validates() {
        assert!(Accelerator::builder().cores(0).build().is_err());
        assert!(Accelerator::builder().cores(64).build().is_err());
        assert!(Accelerator::builder().k(0).build().is_err());
        assert!(Accelerator::builder().rows_per_packet(0).build().is_err());
        assert!(Accelerator::builder().cores(16).k(4).build().is_ok());
    }

    #[test]
    fn query_validation() {
        let acc = Accelerator::builder().k(2).cores(4).build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        // Wrong vector length.
        assert!(acc.query(&m, &query_vector(100, 1), 4).is_err());
        // K = 0.
        assert!(acc.query(&m, &query_vector(512, 1), 0).is_err());
        // K beyond k*c = 8.
        assert!(acc.query(&m, &query_vector(512, 1), 9).is_err());
        assert!(acc.query(&m, &query_vector(512, 1), 8).is_ok());
    }

    #[test]
    fn all_precisions_run() {
        for p in [
            Precision::Fixed20,
            Precision::Fixed25,
            Precision::Fixed32,
            Precision::Float32,
            Precision::Half16,
        ] {
            let acc = Accelerator::builder().precision(p).build().unwrap();
            let m = acc.load_matrix(&small_matrix()).unwrap();
            let out = acc.query(&m, &query_vector(512, 3), 10).unwrap();
            assert_eq!(out.topk.len(), 10, "{p:?}");
        }
    }

    #[test]
    fn design_point_depends_on_matrix_width() {
        let acc = Accelerator::builder().build().unwrap();
        let (_, d512) = acc.design_for(512).unwrap();
        let (_, d65536) = acc.design_for(65536).unwrap();
        assert!(d512.b > d65536.b, "wider index -> smaller B");
    }

    #[test]
    fn oversized_query_vector_is_infeasible() {
        let acc = Accelerator::builder().build().unwrap();
        // 200k columns do not fit URAM replicated at 32 cores.
        let wide = Csr::from_triplets(2, 200_000, &[(0, 0, 0.5), (1, 7, 0.5)]).unwrap();
        let err = acc.load_matrix(&wide).unwrap_err();
        assert!(matches!(err, EngineError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn fewer_rows_than_cores_clamps_partitions() {
        let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
        let tiny = Csr::from_triplets(3, 16, &[(0, 0, 0.9), (1, 1, 0.5), (2, 2, 0.7)]).unwrap();
        let m = acc.load_matrix(&tiny).unwrap();
        assert_eq!(m.partitions.len(), 3);
        // All-ones query makes scores equal to the stored values.
        let ones = tkspmv_sparse::DenseVector::from_values(vec![1.0; 16]);
        let out = acc.query(&m, &ones, 3).unwrap();
        assert_eq!(out.topk.indices(), vec![0, 2, 1]);
    }

    #[test]
    fn loaded_matrix_reports_size() {
        let acc = Accelerator::builder().build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        assert!(m.size_bytes() > 0);
        assert_eq!(m.size_bytes() % 64, 0);
    }

    #[test]
    fn query_batch_matches_individual_queries() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        let queries: Vec<_> = (0..4u64).map(|q| query_vector(512, 10 + q)).collect();
        let batch = acc.query_batch(&m, &queries, 20).unwrap();
        assert_eq!(batch.len(), 4);
        for (x, out) in queries.iter().zip(&batch) {
            let single = acc.query(&m, x, 20).unwrap();
            assert_eq!(single.topk, out.topk);
        }
    }

    #[test]
    fn query_batch_of_nothing_is_ok() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        assert_eq!(acc.query_batch(&m, &[], 10).unwrap().len(), 0);
    }

    #[test]
    fn query_batch_reports_per_query_perf() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        let queries: Vec<_> = (0..3u64).map(|q| query_vector(512, q)).collect();
        let batch = acc.query_batch(&m, &queries, 10).unwrap();
        for (x, out) in queries.iter().zip(&batch) {
            let single = acc.query(&m, x, 10).unwrap();
            assert_eq!(single.perf, out.perf);
            assert_eq!(single.core_stats, out.core_stats);
        }
    }

    #[test]
    fn query_batch_validates_before_running() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        let queries = vec![query_vector(512, 1), query_vector(99, 2)];
        assert!(acc.query_batch(&m, &queries, 10).is_err());
    }
}
