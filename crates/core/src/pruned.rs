//! Staged two-phase queries: a low-bit prune pass plus exact rescoring.
//!
//! The paper's accelerator wins by touching fewer bytes per non-zero;
//! [`PrunedBackend`] applies the same lever one level up, as a query
//! pipeline around *any* exact engine:
//!
//! 1. **Prune** — score every row against the query using the compact
//!    4/8-bit companion [`PruneIndex`] built at `prepare` time. Integer
//!    accumulation over a 2.5–3 byte/nnz stream is both cheaper per
//!    element and friendlier to the memory hierarchy than the exact
//!    8 byte/nnz CSR walk.
//! 2. **Shortlist** — keep the `c·k` best rows under the engine-wide
//!    total order (score descending, then row id ascending). The cut is
//!    on deterministic integer scores, so the shortlist is reproducible
//!    bit-for-bit across runs and hosts.
//! 3. **Rescore** — gather only the shortlisted rows into a small CSR
//!    and answer through the wrapped backend at full precision, then
//!    map row ids back to collection coordinates.
//!
//! When the shortlist would cover the whole collection (`c·k ≥ rows`),
//! or no companion index is available (degenerate shapes, pre-companion
//! snapshots), the wrapper falls through to the exact path — so the
//! pruned tier never does *worse* than the engine it wraps, and with
//! `c·k ≥ rows` its answers are element-wise identical to it
//! (property-tested in `tests/prune_correctness.rs`).
//!
//! **Snapshots.** The wrapper writes the source CSR it keeps for
//! gathering plus the companion, under the wrapped backend's family,
//! and adopts a CSR snapshot of either family — so a pruned snapshot
//! loads on the plain inner backend (companion ignored) and a plain CSR
//! snapshot loads here (staged path unavailable, exact fall-through).

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Instant;

use tkspmv_fixed::PruneBits;
use tkspmv_sparse::snapshot::{Snapshot, SnapshotError, SnapshotPayload};
use tkspmv_sparse::{Csr, DenseVector, PruneIndex};

use crate::backend::{
    check_family, rejected, BackendPerf, BackendStats, PreparedMatrix, QueryBatch, QueryResult,
    QueryTier, TopKBackend,
};
use crate::error::EngineError;
use crate::fanout::{fork_join, host_parallelism};
use crate::stages::StageTimes;
use crate::topk::{top_keys, TopKResult};

/// A [`TopKBackend`] that answers queries in two phases — low-bit prune,
/// then exact rescore through the backend it wraps.
///
/// [`TopKBackend::query`] and [`TopKBackend::query_batch`] are the
/// staged path at [`PrunedBackend::shortlist_factor`];
/// [`QueryTier::Exact`] through [`TopKBackend::query_batch_tiered`] is
/// the wrapped backend's own `query_batch`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tkspmv::backend::TopKBackend;
/// use tkspmv::{Accelerator, PrunedBackend};
/// use tkspmv_fixed::PruneBits;
/// use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
///
/// let exact: Arc<dyn TopKBackend> =
///     Arc::new(Accelerator::builder().cores(4).k(8).build()?);
/// let pruned = PrunedBackend::new(exact, PruneBits::Eight, 4)?;
/// let csr = SyntheticConfig {
///     num_rows: 500,
///     num_cols: 64,
///     avg_nnz_per_row: 8,
///     distribution: NnzDistribution::Uniform,
///     seed: 5,
/// }
/// .generate();
/// let matrix = pruned.prepare(&csr)?;
/// let out = pruned.query(&matrix, &query_vector(64, 1), 10)?;
/// assert_eq!(out.topk.len(), 10);
/// # Ok::<(), tkspmv::EngineError>(())
/// ```
pub struct PrunedBackend {
    inner: Arc<dyn TopKBackend>,
    bits: PruneBits,
    shortlist_factor: usize,
    threads: usize,
}

/// Prepared state: the source collection (for gathering), the wrapped
/// backend's own prepared form (for exact fall-through and rescoring
/// context), and the optional companion prune stream.
struct PrunedState {
    csr: Csr,
    inner_prepared: PreparedMatrix,
    prune: Option<PruneIndex>,
}

impl PrunedBackend {
    /// Wraps `inner` with a staged prune + rescore pipeline.
    ///
    /// `shortlist_factor` is the paper-style `c`: the prune pass keeps
    /// `c·k` candidate rows for exact rescoring.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if `shortlist_factor` is zero.
    pub fn new(
        inner: Arc<dyn TopKBackend>,
        bits: PruneBits,
        shortlist_factor: usize,
    ) -> Result<Self, EngineError> {
        if shortlist_factor == 0 {
            return Err(EngineError::invalid_config(
                "shortlist factor must be at least 1",
            ));
        }
        Ok(Self {
            inner,
            bits,
            shortlist_factor,
            threads: host_parallelism(),
        })
    }

    /// Sets the worker-thread count for the prune scoring pass.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Result<Self, EngineError> {
        if threads == 0 {
            return Err(EngineError::invalid_config(
                "prune pass needs at least one thread",
            ));
        }
        self.threads = threads;
        Ok(self)
    }

    /// The prune stream's bit width.
    pub fn bits(&self) -> PruneBits {
        self.bits
    }

    /// The default shortlist factor `c` used by [`TopKBackend::query`].
    pub fn shortlist_factor(&self) -> usize {
        self.shortlist_factor
    }

    /// The exact backend answers are rescored through.
    pub fn inner(&self) -> &Arc<dyn TopKBackend> {
        &self.inner
    }

    fn state<'m>(&self, matrix: &'m PreparedMatrix) -> Result<&'m PrunedState, EngineError> {
        matrix.downcast(&self.family())
    }

    /// Wraps the three pieces of prepared state for the trait.
    fn prepared(
        &self,
        csr: Csr,
        inner_prepared: PreparedMatrix,
        prune: Option<PruneIndex>,
    ) -> PreparedMatrix {
        PreparedMatrix::new(
            self.family(),
            csr.num_rows(),
            csr.num_cols(),
            csr.nnz() as u64,
            PrunedState {
                csr,
                inner_prepared,
                prune,
            },
        )
    }

    /// Scores every row with the low-bit index: one contiguous row
    /// range per thread, returned in row order.
    fn prune_scores(&self, prune: &PruneIndex, q: &[u16]) -> Vec<Vec<u64>> {
        let rows = prune.num_rows();
        let chunk = rows.div_ceil(self.threads).max(1);
        let (ranges, _) = fork_join(
            rows.div_ceil(chunk),
            self.threads,
            || (),
            |(), i| {
                let first = i * chunk;
                let mut scores = vec![0u64; chunk.min(rows - first)];
                prune.score_rows(first, q, &mut scores);
                scores
            },
        );
        ranges
    }

    /// The staged query at an explicit shortlist factor.
    fn staged_query(
        &self,
        st: &PrunedState,
        x: &DenseVector,
        k: usize,
        factor: usize,
    ) -> Result<QueryResult, EngineError> {
        if k == 0 {
            return Err(EngineError::zero_big_k());
        }
        if x.len() != st.csr.num_cols() {
            return Err(EngineError::vector_length_mismatch(
                x.len(),
                st.csr.num_cols(),
            ));
        }
        if factor == 0 {
            return Err(EngineError::invalid_config(
                "shortlist factor must be at least 1",
            ));
        }
        let rows = st.csr.num_rows();
        let shortlist = factor.saturating_mul(k);
        let Some(prune) = st.prune.as_ref().filter(|_| shortlist < rows) else {
            // Exact fall-through: no companion index, or the shortlist
            // would cover every row anyway.
            let mut out = self.inner.query(&st.inner_prepared, x, k)?;
            out.stats = BackendStats::Pruned {
                bits: self.bits.bits(),
                shortlist: rows,
                pruned: false,
                stages: out.stats.stage_times(),
            };
            return Ok(out);
        };

        // One clock read per stage boundary: prune runs `started` →
        // `pruned`, rescore `pruned` → `rescored`. Reported perf and
        // stage attribution are both derived from these three instants.
        let started = Instant::now();
        let q = prune.quantize_query(x.as_slice());
        let scores = self.prune_scores(prune, &q);

        // Cut the shortlist with the exact selector under the
        // engine-wide total order (score descending, row ascending) on
        // the deterministic integer scores, then restore ascending row
        // order so the gathered sub-matrix preserves global tie-breaks.
        let keys = scores
            .iter()
            .flatten()
            .enumerate()
            .map(|(row, &s)| (s, Reverse(row as u32)));
        let mut order: Vec<u32> = top_keys(keys, shortlist)
            .into_iter()
            .map(|Reverse((_, Reverse(row)))| row)
            .collect();
        order.sort_unstable();

        // Gather the shortlisted rows into a compact CSR.
        let src_ptr = st.csr.row_ptr();
        let mut row_ptr = Vec::with_capacity(shortlist + 1);
        row_ptr.push(0u64);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &r in &order {
            let (s, e) = (
                src_ptr[r as usize] as usize,
                src_ptr[r as usize + 1] as usize,
            );
            col_idx.extend_from_slice(&st.csr.col_idx()[s..e]);
            values.extend_from_slice(&st.csr.values()[s..e]);
            row_ptr.push(col_idx.len() as u64);
        }
        let sub = Csr::from_parts(shortlist, st.csr.num_cols(), row_ptr, col_idx, values)
            .map_err(|e| EngineError::bad_query(format!("shortlist gather failed: {e}")))?;
        let pruned = Instant::now();

        // Rescore exactly through the wrapped backend and re-base the
        // shortlist-local row ids into collection coordinates. Ascending
        // gather order makes local row order agree with global row
        // order, so ties break identically.
        let sub_prepared = self.inner.prepare(&sub)?;
        let out = self.inner.query(&sub_prepared, x, k)?;
        let rescored = Instant::now();
        // The inner call's own stages are carved out of `rescore`, so
        // the four stages stay disjoint and sum to prune + rescore.
        let inner = out.stats.stage_times();
        let stages = StageTimes {
            prune: pruned - started,
            rescore: (rescored - pruned).saturating_sub(inner.decode + inner.score),
            ..inner
        };
        let pairs: Vec<(u32, f64)> = out
            .topk
            .entries()
            .iter()
            .map(|&(local, score)| (order[local as usize], score))
            .collect();
        Ok(QueryResult {
            topk: TopKResult::from_pairs(pairs),
            // Wall time of both stages, including the shortlist
            // `prepare` the rescore pays (an encode when the wrapped
            // backend is the accelerator).
            perf: BackendPerf::measured(
                (rescored - started).as_secs_f64(),
                prune.nnz() + out.perf.nnz,
            ),
            stats: BackendStats::Pruned {
                bits: self.bits.bits(),
                shortlist,
                pruned: true,
                stages,
            },
        })
    }
}

impl TopKBackend for PrunedBackend {
    fn name(&self) -> String {
        format!("pruned-{}+{}", self.bits.label(), self.inner.name())
    }

    fn family(&self) -> String {
        format!("pruned+{}", self.inner.family())
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        let inner_prepared = self.inner.prepare(csr)?;
        // Collections outside the companion's addressing range (columns
        // beyond u16, nnz beyond u32) degrade gracefully to the exact
        // path; `BackendStats::Pruned { pruned: false }` makes the
        // fall-through observable.
        let prune = PruneIndex::build(csr, self.bits).ok();
        Ok(self.prepared(csr.clone(), inner_prepared, prune))
    }

    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let st = self.state(matrix)?;
        self.staged_query(st, x, k, self.shortlist_factor)
    }

    fn query_batch_tiered(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
        tier: QueryTier,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let st = self.state(matrix)?;
        match tier {
            QueryTier::Exact => self.inner.query_batch(&st.inner_prepared, batch, k),
            QueryTier::Pruned { shortlist_factor } => batch
                .iter()
                .map(|x| self.staged_query(st, x, k, shortlist_factor))
                .collect(),
        }
    }

    /// Writes the source CSR this wrapper keeps for gathering — never
    /// the inner backend's encoded form — plus the companion prune
    /// stream, under the *inner* family: the snapshot stays loadable by
    /// the plain inner backend, which ignores the companion.
    fn to_snapshot(&self, matrix: &PreparedMatrix) -> Result<Snapshot, EngineError> {
        let st = self.state(matrix)?;
        Ok(matrix.snapshot_of(
            self.inner.family(),
            SnapshotPayload::Csr(st.csr.clone()),
            st.prune.clone(),
        ))
    }

    /// Adopts a CSR snapshot of its own or the inner family, with the
    /// companion if one was persisted. Without one (a plain inner
    /// backend's snapshot) the staged path is unavailable and queries
    /// fall through to the exact backend rather than failing.
    fn from_snapshot(&self, snapshot: Snapshot) -> Result<PreparedMatrix, SnapshotError> {
        check_family(&snapshot.family, &[&self.family(), &self.inner.family()])?;
        let SnapshotPayload::Csr(csr) = snapshot.payload else {
            return Err(rejected(EngineError::bad_query(format!(
                "backend `{}` restores CSR snapshots (its rescore path gathers source rows), \
                 not encoded payload kinds",
                self.name()
            ))));
        };
        let inner_prepared = self.inner.prepare(&csr).map_err(rejected)?;
        Ok(self.prepared(csr, inner_prepared, snapshot.companion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::Accelerator;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

    fn collection() -> Csr {
        SyntheticConfig {
            num_rows: 600,
            num_cols: 128,
            avg_nnz_per_row: 12,
            distribution: NnzDistribution::table3_gamma(),
            seed: 17,
        }
        .generate()
    }

    fn accel() -> Arc<dyn TopKBackend> {
        Arc::new(Accelerator::builder().cores(4).k(8).build().unwrap())
    }

    #[test]
    fn names_and_families_compose() {
        let b = PrunedBackend::new(accel(), PruneBits::Four, 4).unwrap();
        assert_eq!(b.name(), "pruned-4b+fpga-20b");
        assert_eq!(b.family(), "pruned+fpga-20b");
        assert_eq!(b.bits(), PruneBits::Four);
        assert_eq!(b.shortlist_factor(), 4);
        assert_eq!(b.inner().name(), "fpga-20b");
    }

    #[test]
    fn zero_shortlist_factor_is_rejected() {
        assert!(matches!(
            PrunedBackend::new(accel(), PruneBits::Eight, 0),
            Err(EngineError::InvalidConfig { .. })
        ));
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 2).unwrap();
        assert!(b.with_threads(0).is_err());
    }

    #[test]
    fn staged_query_returns_k_rows_with_pruned_stats() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 4)
            .unwrap()
            .with_threads(2)
            .unwrap();
        let m = b.prepare(&collection()).unwrap();
        let out = b.query(&m, &query_vector(128, 3), 10).unwrap();
        assert_eq!(out.topk.len(), 10);
        match out.stats {
            BackendStats::Pruned {
                bits,
                shortlist,
                pruned,
                ..
            } => {
                assert_eq!(bits, 8);
                assert_eq!(shortlist, 40);
                assert!(pruned);
            }
            other => panic!("expected Pruned stats, got {other:?}"),
        }
        assert!(out.perf.seconds > 0.0);
        assert!(out.perf.nnz > 0);
    }

    /// Reported perf and stage attribution come from the same two
    /// measurements: `perf.seconds` is prune + rescore, and the rescore
    /// — shortlist `prepare` included — splits into the wrapped
    /// engine's decode/score plus the remainder.
    #[test]
    fn perf_seconds_equal_the_stage_sum() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let out = b.query(&m, &query_vector(128, 3), 10).unwrap();
        let stages = out.stats.stage_times();
        for stage in [stages.prune, stages.rescore, stages.decode, stages.score] {
            assert!(!stage.is_zero(), "{stages:?}");
        }
        assert_eq!(out.perf.seconds, stages.total().as_secs_f64());
        assert_eq!(out.perf.timing, crate::backend::TimingSource::Measured);

        // A wrapped backend without stages of its own: prune + rescore.
        let b = PrunedBackend::new(Arc::new(RefBackend), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let out = b.query(&m, &query_vector(128, 3), 10).unwrap();
        let stages = out.stats.stage_times();
        assert!(
            stages.decode.is_zero() && stages.score.is_zero(),
            "{stages:?}"
        );
        assert_eq!(
            out.perf.seconds,
            (stages.prune + stages.rescore).as_secs_f64()
        );
    }

    #[test]
    fn covering_shortlist_falls_through_to_exact() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 1000).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let x = query_vector(128, 5);
        let out = b.query(&m, &x, 10).unwrap();
        assert!(matches!(
            out.stats,
            BackendStats::Pruned { pruned: false, .. }
        ));
        // Identical to the wrapped backend's own answer.
        let inner = accel();
        let im = inner.prepare(&collection()).unwrap();
        assert_eq!(out.topk, inner.query(&im, &x, 10).unwrap().topk);
    }

    #[test]
    fn degenerate_queries_fail_typed() {
        let b = PrunedBackend::new(accel(), PruneBits::Four, 2).unwrap();
        let m = b.prepare(&collection()).unwrap();
        assert!(matches!(
            b.query(&m, &query_vector(128, 1), 0),
            Err(EngineError::BadQuery { .. })
        ));
        assert!(matches!(
            b.query(&m, &query_vector(64, 1), 5),
            Err(EngineError::BadQuery { .. })
        ));
    }

    /// The tier rule, both halves: the wrapper's own `query_batch` is
    /// the staged path at the constructor's `c`, and `Exact` is the
    /// wrapped backend's `query_batch` — not the wrapper's.
    #[test]
    fn tiered_batches_match_their_direct_counterparts() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let batch = QueryBatch::random(4, 128, 21);
        let topks = |results: &[QueryResult]| -> Vec<TopKResult> {
            results.iter().map(|r| r.topk.clone()).collect()
        };

        let exact = b
            .query_batch_tiered(&m, &batch, 12, QueryTier::Exact)
            .unwrap();
        let inner = accel();
        let im = inner.prepare(&collection()).unwrap();
        assert_eq!(
            topks(&exact),
            topks(&inner.query_batch(&im, &batch, 12).unwrap())
        );
        assert!(exact
            .iter()
            .all(|r| matches!(r.stats, BackendStats::Fpga { .. })));

        let tier = QueryTier::Pruned {
            shortlist_factor: b.shortlist_factor(),
        };
        let pruned = b.query_batch_tiered(&m, &batch, 12, tier).unwrap();
        let own = b.query_batch(&m, &batch, 12).unwrap();
        assert_eq!(topks(&pruned), topks(&own));
        for (x, got) in batch.iter().zip(&pruned) {
            assert_eq!(got.topk, b.query(&m, x, 12).unwrap().topk);
        }
        assert!(pruned
            .iter()
            .chain(&own)
            .all(|r| matches!(r.stats, BackendStats::Pruned { pruned: true, .. })));
    }

    #[test]
    fn plain_backends_reject_the_pruned_tier() {
        let inner = accel();
        let m = inner.prepare(&collection()).unwrap();
        let batch = QueryBatch::random(2, 128, 9);
        let err = inner
            .query_batch_tiered(
                &m,
                &batch,
                5,
                QueryTier::Pruned {
                    shortlist_factor: 2,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("pruned"), "{err}");
    }

    /// A minimal exact backend whose prepared state is the CSR itself,
    /// exercising the default (CSR-payload) snapshot path the CPU/GPU
    /// baselines use — they live downstream of this crate.
    struct RefBackend;

    impl TopKBackend for RefBackend {
        fn name(&self) -> String {
            "ref-exact".to_string()
        }

        fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
            if csr.num_rows() == 0 {
                return Err(EngineError::empty_matrix());
            }
            Ok(PreparedMatrix::new(
                self.family(),
                csr.num_rows(),
                csr.num_cols(),
                csr.nnz() as u64,
                csr.clone(),
            ))
        }

        fn query(
            &self,
            matrix: &PreparedMatrix,
            x: &DenseVector,
            k: usize,
        ) -> Result<QueryResult, EngineError> {
            if k == 0 {
                return Err(EngineError::zero_big_k());
            }
            let csr: &Csr = matrix.downcast(&self.family())?;
            if x.len() != csr.num_cols() {
                return Err(EngineError::vector_length_mismatch(x.len(), csr.num_cols()));
            }
            let y = csr.spmv_exact(x.as_slice());
            let topk = TopKResult::merge_pairs(
                y.iter().enumerate().map(|(r, &s)| (r as u32, s)),
                k.min(csr.num_rows()),
            );
            Ok(QueryResult {
                topk,
                perf: BackendPerf::measured(1e-9, csr.nnz() as u64),
                stats: BackendStats::Cpu { threads: 1 },
            })
        }
    }

    #[test]
    fn snapshot_round_trip_keeps_the_companion() {
        let b = PrunedBackend::new(Arc::new(RefBackend), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let mut buf = Vec::new();
        m.save(&b, &mut buf).unwrap();
        let loaded = PreparedMatrix::load(&b, buf.as_slice()).unwrap();
        let x = query_vector(128, 11);
        let fresh = b.query(&m, &x, 10).unwrap();
        let restored = b.query(&loaded, &x, 10).unwrap();
        assert_eq!(fresh.topk, restored.topk);
        assert!(matches!(
            restored.stats,
            BackendStats::Pruned { pruned: true, .. }
        ));
    }

    /// The wrapper persists the CSR it keeps, not the inner backend's
    /// encoded partitions, so what it saves it can load — and the plain
    /// inner backend can too, whatever its own payload kind is.
    #[test]
    fn snapshot_round_trips_over_an_accelerator() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let mut buf = Vec::new();
        m.save(&b, &mut buf).unwrap();
        let x = query_vector(128, 11);

        let loaded = PreparedMatrix::load(&b, buf.as_slice()).unwrap();
        assert_eq!(loaded.family(), "pruned+fpga-20b");
        let fresh = b.query(&m, &x, 10).unwrap();
        let restored = b.query(&loaded, &x, 10).unwrap();
        assert_eq!(fresh.topk, restored.topk);
        assert!(matches!(
            restored.stats,
            BackendStats::Pruned { pruned: true, .. }
        ));

        let inner = accel();
        let plain = PreparedMatrix::load(inner.as_ref(), buf.as_slice()).unwrap();
        assert_eq!(plain.family(), "fpga-20b");
        let im = inner.prepare(&collection()).unwrap();
        assert_eq!(
            inner.query(&plain, &x, 10).unwrap().topk,
            inner.query(&im, &x, 10).unwrap().topk
        );

        // Own and inner family are adopted; anything else is foreign.
        let other = PrunedBackend::new(Arc::new(RefBackend), PruneBits::Eight, 4).unwrap();
        assert!(matches!(
            PreparedMatrix::load(&other, buf.as_slice()),
            Err(SnapshotError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn tier_labels_read_well() {
        assert_eq!(QueryTier::Exact.label(), "exact");
        assert_eq!(
            QueryTier::Pruned {
                shortlist_factor: 4
            }
            .to_string(),
            "pruned-c4"
        );
    }
}
