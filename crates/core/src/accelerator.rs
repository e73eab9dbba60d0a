//! Host-facing accelerator API.
//!
//! [`Accelerator`] plays the role of the paper's host program: it
//! validates a design configuration against the device model, encodes
//! the embedding collection into per-channel BS-CSR partitions
//! ([`Accelerator::load_matrix`]). Queries enter only through the
//! [`TopKBackend`](crate::TopKBackend) trait, whose `answer` runs the
//! multi-core engine and returns ranked results with a performance
//! model report.

use std::sync::Arc;

use tkspmv_fixed::{Half, Precision, F32, Q1_19, Q1_24, Q1_31};
use tkspmv_sparse::{BsCsr, Csr, DenseVector, PacketLayout};

use crate::backend::{BackendPerf, BackendStats, Query, QueryResult};
use crate::engine::{quantize_vector, run_multicore, Fidelity, MulticoreOutput};
use crate::error::EngineError;
use crate::fanout::host_parallelism;
use crate::hw::{DesignPoint, HbmConfig, ResourceModel, UramBudget};
use crate::perf::PerfReport;

/// Validated accelerator configuration (see [`Accelerator::builder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Numeric design (Table II row).
    pub precision: Precision,
    /// Cores = HBM channels used (32 in the paper).
    pub cores: u32,
    /// Per-core Top-k depth (8 in the paper).
    pub k: usize,
    /// `r` row slots per packet, or `None` for the hardware default
    /// `r = B/2`.
    pub rows_per_packet: Option<u32>,
}

/// Builder for [`Accelerator`]. The card is fixed: one Alveo U280
/// ([`HbmConfig::alveo_u280`]), whose 32 HBM channels cap `cores`.
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
}

impl Default for AcceleratorBuilder {
    fn default() -> Self {
        Self {
            precision: Precision::Fixed20,
            cores: 32,
            k: 8,
            rows_per_packet: None,
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

    /// Validates and builds the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if `cores` is zero or
    /// exceeds the U280's 32 HBM channels, or if `k` or `r` is zero.
    pub fn build(self) -> Result<Accelerator, EngineError> {
        let channels = HbmConfig::alveo_u280().num_channels;
        if self.cores == 0 || self.cores > channels {
            return Err(EngineError::cores_out_of_range(self.cores, channels));
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
            },
        })
    }
}

/// The emulated multi-core Top-K SpMV accelerator.
///
/// See the crate-level documentation for the full workflow.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
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

    /// Resolves the design point for a matrix with `num_cols` columns
    /// (B depends on `M` through the §IV-C capacity equation).
    ///
    /// # Errors
    ///
    /// Returns an error if no packet layout fits.
    pub fn design_for(&self, num_cols: usize) -> Result<(PacketLayout, DesignPoint), EngineError> {
        let c = &self.config;
        let layout = PacketLayout::solve(num_cols, c.precision.value_bits())?;
        let design = DesignPoint::new(
            c.precision,
            layout,
            num_cols,
            c.cores,
            c.k as u32,
            c.rows_per_packet,
        );
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
        if !ResourceModel::alveo_u280().is_feasible(design) {
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

    /// Answers `queries` against a loaded matrix — the body of
    /// [`TopKBackend::answer`](crate::backend::TopKBackend::answer) (a
    /// single query is a one-element slice): the whole batch is
    /// validated before any of it runs, the precision dispatch happens
    /// once, and every answer carries the modelled performance report.
    ///
    /// # Errors
    ///
    /// [`EngineError::BadQuery`] if a query fails [`Query::check_exact`]
    /// or `k·c < K` (the per-core depth cannot cover the requested K).
    pub(crate) fn answer_loaded(
        &self,
        matrix: &Arc<LoadedMatrix>,
        queries: &[DenseVector],
        query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let big_k = query.check_exact(self, matrix.num_cols, queries)?;
        let covered = self.config.k * matrix.partitions.len();
        if covered < big_k {
            return Err(EngineError::coverage_too_small(covered, big_k));
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

    fn fidelity_for(&self, matrix: &LoadedMatrix) -> Fidelity {
        Fidelity::Faithful {
            rows_per_packet: matrix.design.r,
        }
    }

    /// Wraps an engine output with the modelled performance report.
    fn attach_perf(&self, matrix: &LoadedMatrix, out: MulticoreOutput) -> QueryResult {
        let clock_hz = ResourceModel::alveo_u280().clock_hz(&matrix.design);
        let channel = HbmConfig::alveo_u280().channel_model(clock_hz);
        let total_packets: u64 = matrix
            .partitions
            .iter()
            .map(|(_, p)| p.num_packets() as u64)
            .sum();
        let report = PerfReport::from_stream(
            &channel,
            matrix.partitions.len() as u32,
            out.max_packets_per_core,
            total_packets,
            matrix.nnz,
        );
        QueryResult {
            topk: out.topk,
            perf: BackendPerf::modelled(report.seconds, report.kernel_seconds, report.nnz),
            stats: BackendStats::Fpga {
                report,
                cores: out.core_stats,
                stages: out.stages,
            },
        }
    }
}

/// Monomorphised batch execution: quantise every query once for the
/// batch, then stream all of them through the resident partitions.
fn batch_typed<S: tkspmv_fixed::SpmvScalar>(
    matrix: &Arc<LoadedMatrix>,
    queries: &[DenseVector],
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
) -> Vec<MulticoreOutput> {
    let xs: Arc<[Vec<S>]> = queries
        .iter()
        .map(|x| quantize_vector::<S>(x.as_slice()))
        .collect();
    run_multicore(
        Arc::clone(matrix),
        xs,
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

/// The `(first_row, packets)` partitions, for the engine, which takes
/// whoever owns them behind an `Arc`.
impl AsRef<[(usize, BsCsr)]> for LoadedMatrix {
    fn as_ref(&self) -> &[(usize, BsCsr)] {
        &self.partitions
    }
}

impl LoadedMatrix {
    /// Bytes a query streams: every partition's packets
    /// ([`BsCsr::size_bytes`], the Table III footprint) plus its recorded
    /// row ends ([`BsCsr::row_ends`]), which replay reads beside the
    /// packets. This is the numerator of the perf ledger's
    /// `core.engine.stream_gbps`, so the row ends are charged to the
    /// engine's bandwidth; Table III and `sparse.bscsr_bytes_per_nnz`
    /// count the packets alone.
    pub fn size_bytes(&self) -> u64 {
        self.partitions
            .iter()
            .map(|(_, p)| {
                let (chunk_rows, ends, by_ordinal) = p.row_ends();
                let side = size_of_val(chunk_rows) + size_of_val(ends) + size_of_val(by_ordinal);
                p.size_bytes() + side as u64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{QueryBatch, TopKBackend};
    use crate::topk::TopKResult;
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
        let m = acc.prepare(&small_matrix()).unwrap();
        let out = acc.query(&m, &query_vector(512, 1), 100).unwrap();
        assert_eq!(out.topk.len(), 100);
        assert_eq!(out.stats.core_stats().map(<[_]>::len), Some(32));
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
        let m = acc.prepare(&small_matrix()).unwrap();
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
            let m = acc.prepare(&small_matrix()).unwrap();
            let out = acc.query(&m, &query_vector(512, 3), 10).unwrap();
            assert_eq!(out.topk.len(), 10, "{p:?}");
        }
    }

    /// `DesignPoint::paper_design` and the default builder derive one
    /// design: `B` from the capacity equation at `M = 1024`, 32 cores,
    /// `k = 8`, `r = B/2`.
    #[test]
    fn paper_design_is_the_default_builders_design_at_1024_columns() {
        let paper_bs = [
            (Precision::Fixed20, 15),
            (Precision::Fixed25, 13),
            (Precision::Fixed32, 11),
            (Precision::Float32, 11),
            (Precision::Half16, 16),
        ];
        for (p, b) in paper_bs {
            let acc = Accelerator::builder().precision(p).build().unwrap();
            let (_, design) = acc.design_for(1024).unwrap();
            assert_eq!(DesignPoint::paper_design(p), design, "{p:?}");
            assert_eq!(design.b, b, "{p:?}");
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
        assert_eq!(acc.load_matrix(&tiny).unwrap().partitions.len(), 3);
        // All-ones query makes scores equal to the stored values.
        let ones = DenseVector::from_values(vec![1.0; 16]);
        let out = acc.query(&acc.prepare(&tiny).unwrap(), &ones, 3).unwrap();
        assert_eq!(out.topk.indices(), vec![0, 2, 1]);
        assert_eq!(out.stats.core_stats().map(<[_]>::len), Some(3));
    }

    /// The streamed footprint is the packets plus the row ends, and the
    /// row ends stay a small fraction of the packets: two bytes per row
    /// and a few per chunk and partition, ≈ 0.1 B/nnz here at 20 nnz
    /// per row (0.17 B/nnz on the ledger's Table-III collection).
    #[test]
    fn loaded_matrix_reports_size() {
        let acc = Accelerator::builder().build().unwrap();
        let m = acc.load_matrix(&small_matrix()).unwrap();
        let packets: u64 = m.partitions.iter().map(|(_, p)| p.size_bytes()).sum();
        assert_eq!(packets % 64, 0);
        let row_ends = m.size_bytes() - packets;
        assert!(
            row_ends >= 2 * m.num_rows as u64,
            "{row_ends} B of row ends"
        );
        let per_nnz = row_ends as f64 / m.nnz as f64;
        assert!(per_nnz <= 0.35, "{per_nnz} B/nnz of row ends");
    }

    #[test]
    fn query_batch_matches_individual_queries() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.prepare(&small_matrix()).unwrap();
        let queries = QueryBatch::random(4, 512, 10);
        let batch = acc.query_batch(&m, &queries, 20).unwrap();
        assert_eq!(batch.len(), 4);
        for (x, out) in queries.queries().iter().zip(&batch) {
            let single = acc.query(&m, x, 20).unwrap();
            assert_eq!(single.topk, out.topk);
        }
    }

    #[test]
    fn query_batch_reports_per_query_perf() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.prepare(&small_matrix()).unwrap();
        let queries = QueryBatch::random(3, 512, 0);
        let batch = acc.query_batch(&m, &queries, 10).unwrap();
        for (x, out) in queries.queries().iter().zip(&batch) {
            let single = acc.query(&m, x, 10).unwrap();
            assert_eq!(single.perf, out.perf);
            assert_eq!(single.stats.perf_report(), out.stats.perf_report());
            assert_eq!(single.stats.core_stats(), out.stats.core_stats());
        }
    }

    /// 64 rows over 16 columns; every third row touches columns 0 and 1,
    /// every row has one finite entry elsewhere.
    fn nan_prone_matrix() -> Csr {
        let mut triplets = Vec::new();
        for r in 0..64u32 {
            if r % 3 == 0 {
                triplets.extend([(r, 0, 0.5), (r, 1, 0.5)]);
            }
            triplets.push((r, 2 + r % 14, 0.01 * (r + 1) as f32));
        }
        Csr::from_triplets(64, 16, &triplets).unwrap()
    }

    /// A query whose accumulators go NaN on some rows answers `Ok` with
    /// `K` comparable entries — each partition's fill phase takes NaN
    /// rows in, and they are the first evicted — bit-equal on one
    /// participant and on one per partition.
    fn nan_accumulators_rank_last<S: tkspmv_fixed::SpmvScalar>(
        precision: Precision,
        x: &DenseVector,
    ) {
        // 4 cores of k = 8 over 16-row partitions; r = 64 drops no row.
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(4)
            .k(8)
            .rows_per_packet(64)
            .build()
            .unwrap();
        let csr = nan_prone_matrix();
        let prepared = acc.prepare(&csr).unwrap();
        let out = acc.query(&prepared, x, 16).unwrap();
        assert_eq!(out.topk.len(), 16, "{precision:?}");
        assert!(
            out.topk.scores().iter().all(|s| !s.is_nan()),
            "{precision:?}: {:?}",
            out.topk
        );

        let bits = |r: &TopKResult| -> Vec<(u32, u64)> {
            r.entries().iter().map(|&(i, s)| (i, s.to_bits())).collect()
        };
        let m = Arc::new(acc.load_matrix(&csr).unwrap());
        let xs: Arc<[Vec<S>]> = Arc::from([quantize_vector::<S>(x.as_slice())]);
        for participants in [1, m.partitions.len()] {
            let run = run_multicore(
                Arc::clone(&m),
                Arc::clone(&xs),
                8,
                16,
                acc.fidelity_for(&m),
                participants,
            );
            assert_eq!(
                bits(&run[0].topk),
                bits(&out.topk),
                "{precision:?}, {participants} participants"
            );
        }
    }

    #[test]
    fn nan_query_entry_ranks_its_rows_last_on_float_designs() {
        let mut x = vec![0.5f32; 16];
        x[0] = f32::NAN;
        let x = DenseVector::from_values(x);
        nan_accumulators_rank_last::<F32>(Precision::Float32, &x);
        nan_accumulators_rank_last::<Half>(Precision::Half16, &x);
    }

    #[test]
    fn half_overflow_to_inf_minus_inf_ranks_last() {
        // ±1.0e5 is beyond binary16's 65 504: the two products are ±inf
        // and rows touching both columns sum to NaN.
        let mut x = vec![0.5f32; 16];
        x[0] = 1.0e5;
        x[1] = -1.0e5;
        let x = DenseVector::from_values(x);
        nan_accumulators_rank_last::<Half>(Precision::Half16, &x);
    }

    #[test]
    fn query_batch_validates_before_running() {
        let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
        let m = acc.prepare(&small_matrix()).unwrap();
        // A batch shares one dimension, so a mismatch refuses all of it;
        // so does a K that is zero or beyond k·c = 64.
        assert!(acc
            .query_batch(&m, &QueryBatch::random(2, 99, 1), 10)
            .is_err());
        for big_k in [0, 65] {
            let batch = QueryBatch::random(2, 512, 1);
            assert!(acc.query_batch(&m, &batch, big_k).is_err(), "K = {big_k}");
        }
    }
}
