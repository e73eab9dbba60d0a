//! Staged two-phase queries: a low-bit prune pass plus exact rescoring.
//!
//! The paper's accelerator wins by touching fewer bytes per non-zero;
//! [`PrunedBackend`] applies the same lever one level up, as AccelES
//! does: a low-bit pass picks the candidates, exact arithmetic ranks
//! them.
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
//! 3. **Rescore** — score each shortlisted row from the CSR kept at
//!    `prepare` with [`exact_dot`] (`f64`, column order) and keep the
//!    best `k` with [`TopKResult::merge_pairs`]: the exact CPU engine's
//!    scorer and selector, so the pruned answer is the same whatever
//!    backend is wrapped.
//!
//! The wrapped backend answers [`QueryTier::Exact`], and the staged
//! path falls through to it when the shortlist would cover the whole
//! collection (`c·k ≥ rows`) or no companion index is available
//! (degenerate shapes, pre-companion snapshots) — so with `c·k ≥ rows`
//! the pruned tier's answers are element-wise identical to the engine
//! it wraps (property-tested in `tests/prune_correctness.rs`).
//!
//! **Snapshots.** The wrapper writes the source CSR it keeps for
//! rescoring plus the companion, under the wrapped backend's family,
//! and adopts a CSR snapshot of either family — so a pruned snapshot
//! loads on the plain inner backend (companion ignored) and a plain CSR
//! snapshot loads here (staged path unavailable, exact fall-through).

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Instant;

use tkspmv_fixed::PruneBits;
use tkspmv_obs::{Stage, Stages};
use tkspmv_sparse::snapshot::{Snapshot, SnapshotError, SnapshotPayload};
use tkspmv_sparse::{exact_dot, Csr, DenseVector, PruneIndex};

use crate::backend::{
    check_family, rejected, BackendPerf, BackendStats, PreparedMatrix, Query, QueryBatch,
    QueryResult, QueryTier, TopKBackend,
};
use crate::error::EngineError;
use crate::fanout::{fork_join, host_parallelism};
use crate::topk::{top_keys, TopKResult};

/// A [`TopKBackend`] that answers queries in two phases — low-bit prune,
/// then exact `f64` rescore of the shortlist.
///
/// [`TopKBackend::answer`] at [`QueryTier::Pruned`] is the staged path
/// at the query's factor, and at [`QueryTier::Exact`] the wrapped
/// backend's own `answer`. The `(x, k)` shorthands
/// [`TopKBackend::query`] and [`TopKBackend::query_batch`] are the
/// staged path at [`PrunedBackend::shortlist_factor`].
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

/// Prepared state: the source collection (for rescoring), the wrapped
/// backend's own prepared form (for the exact tier and fall-through),
/// and the optional companion prune stream.
struct PrunedState {
    csr: Csr,
    inner_prepared: PreparedMatrix,
    /// Shared with the compute pool's prune-pass jobs.
    prune: Option<Arc<PruneIndex>>,
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
    /// The workers are the caller plus helpers of the resident compute
    /// pool ([`fork_join`]), so a count above [`host_parallelism`] runs
    /// as [`host_parallelism`] workers.
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

    /// The wrapped exact backend: it answers the exact tier and the
    /// staged path's fall-through.
    pub fn inner(&self) -> &Arc<dyn TopKBackend> {
        &self.inner
    }

    /// An untraced Top-`k` query at the constructor's shortlist factor.
    fn own_factor(&self, k: usize) -> Query {
        Query {
            tier: QueryTier::Pruned {
                shortlist_factor: self.shortlist_factor,
            },
            ..Query::new(k)
        }
    }

    fn state(&self, matrix: &PreparedMatrix) -> Result<Arc<PrunedState>, EngineError> {
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
                prune: prune.map(Arc::new),
            },
        )
    }

    /// Scores every row with the low-bit index: one contiguous row
    /// range per thread, returned in row order.
    fn prune_scores(&self, prune: &Arc<PruneIndex>, q: Arc<[u16]>) -> Vec<Vec<u64>> {
        let rows = prune.num_rows();
        let chunk = rows.div_ceil(self.threads).max(1);
        let prune = Arc::clone(prune);
        let (ranges, _) = fork_join(
            rows.div_ceil(chunk),
            self.threads,
            || (),
            move |(), i| {
                let first = i * chunk;
                let mut scores = vec![0u64; chunk.min(rows - first)];
                prune.score_rows(first, &q, &mut scores);
                scores
            },
        );
        ranges
    }

    /// The staged query at an explicit shortlist factor, for a query
    /// that passed [`Query::check`].
    fn staged_query(
        &self,
        st: &PrunedState,
        x: &DenseVector,
        k: usize,
        factor: usize,
    ) -> Result<QueryResult, EngineError> {
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
        let scores = self.prune_scores(prune, q.into());

        // Cut the shortlist with the exact selector under the
        // engine-wide total order (score descending, row ascending) on
        // the deterministic integer scores.
        let keys = scores
            .iter()
            .flatten()
            .enumerate()
            .map(|(row, &s)| (s, Reverse(row as u32)));
        let shortlisted: Vec<usize> = top_keys(keys, shortlist)
            .into_iter()
            .map(|Reverse((_, Reverse(row)))| row as usize)
            .collect();
        let pruned = Instant::now();

        // Rescore the shortlist exactly from the kept rows, with the
        // exact CPU engine's scorer and selector, under the same total
        // order: the answer depends on the shortlist alone, never on
        // the wrapped backend.
        let rescored_pairs = shortlisted
            .iter()
            .map(|&r| (r as u32, exact_dot(st.csr.row(r), x.as_slice())));
        let topk = TopKResult::merge_pairs(rescored_pairs, k);
        let rescored = Instant::now();
        let rescored_nnz: usize = shortlisted.iter().map(|&r| st.csr.row_nnz(r)).sum();
        let mut stages = Stages::default();
        stages.add(Stage::Prune, pruned - started);
        stages.add(Stage::Rescore, rescored - pruned);
        Ok(QueryResult {
            topk,
            perf: BackendPerf::measured(
                (rescored - started).as_secs_f64(),
                prune.nnz() + rescored_nnz as u64,
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

    fn answer(
        &self,
        matrix: &PreparedMatrix,
        queries: &[DenseVector],
        query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let st = self.state(matrix)?;
        let QueryTier::Pruned { shortlist_factor } = query.tier else {
            return self.inner.answer(&st.inner_prepared, queries, query);
        };
        for x in queries {
            query.check(st.csr.num_cols(), x.len())?;
        }
        queries
            .iter()
            .map(|x| self.staged_query(&st, x, query.k, shortlist_factor))
            .collect()
    }

    /// The staged path at the constructor's shortlist factor.
    #[expect(
        clippy::expect_used,
        reason = "contract: `answer` returns one result per query"
    )]
    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let mut results = self.answer(matrix, std::slice::from_ref(x), &self.own_factor(k))?;
        Ok(results.pop().expect("one result per query"))
    }

    /// The staged path at the constructor's shortlist factor.
    fn query_batch(
        &self,
        matrix: &PreparedMatrix,
        batch: &QueryBatch,
        k: usize,
    ) -> Result<Vec<QueryResult>, EngineError> {
        self.answer(matrix, batch.queries(), &self.own_factor(k))
    }

    /// Writes the source CSR this wrapper keeps for rescoring — never
    /// the inner backend's encoded form — plus the companion prune
    /// stream, under the *inner* family: the snapshot stays loadable by
    /// the plain inner backend, which ignores the companion.
    fn to_snapshot(&self, matrix: &PreparedMatrix) -> Result<Snapshot, EngineError> {
        let st = self.state(matrix)?;
        Ok(matrix.snapshot_of(
            self.inner.family(),
            SnapshotPayload::Csr(st.csr.clone()),
            st.prune.as_deref().cloned(),
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
                "backend `{}` restores CSR snapshots (its rescore reads source rows), \
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
    /// measurements: `perf.seconds` is prune + rescore, whatever the
    /// wrapped backend — the staged path never enters it, so it has no
    /// decode or score of its own to report.
    #[test]
    fn perf_seconds_equal_the_stage_sum() {
        let inners: [Arc<dyn TopKBackend>; 2] = [accel(), Arc::new(RefBackend)];
        for inner in inners {
            let b = PrunedBackend::new(inner, PruneBits::Eight, 4).unwrap();
            let m = b.prepare(&collection()).unwrap();
            let out = b.query(&m, &query_vector(128, 3), 10).unwrap();
            let stages = out.stats.stage_times();
            let [decode, score, prune, rescore] =
                [Stage::Decode, Stage::Score, Stage::Prune, Stage::Rescore].map(|s| stages.get(s));
            assert!(!prune.is_zero() && !rescore.is_zero(), "{stages:?}");
            assert!(
                decode.is_zero() && score.is_zero(),
                "{}: {stages:?}",
                b.name()
            );
            assert_eq!(out.perf.seconds, (prune + rescore).as_secs_f64());
            assert_eq!(out.perf.timing, crate::backend::TimingSource::Measured);
        }
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
    /// wrapped backend's `answer` — not the wrapper's.
    #[test]
    fn tiered_batches_match_their_direct_counterparts() {
        let b = PrunedBackend::new(accel(), PruneBits::Eight, 4).unwrap();
        let m = b.prepare(&collection()).unwrap();
        let batch = QueryBatch::random(4, 128, 21);
        let topks = |results: &[QueryResult]| -> Vec<TopKResult> {
            results.iter().map(|r| r.topk.clone()).collect()
        };

        let exact = b.answer(&m, batch.queries(), &Query::new(12)).unwrap();
        let inner = accel();
        let im = inner.prepare(&collection()).unwrap();
        assert_eq!(
            topks(&exact),
            topks(&inner.query_batch(&im, &batch, 12).unwrap())
        );
        assert!(exact
            .iter()
            .all(|r| matches!(r.stats, BackendStats::Fpga { .. })));

        let query = Query {
            tier: QueryTier::Pruned {
                shortlist_factor: b.shortlist_factor(),
            },
            ..Query::new(12)
        };
        let pruned = b.answer(&m, batch.queries(), &query).unwrap();
        let own = b.query_batch(&m, &batch, 12).unwrap();
        assert_eq!(topks(&pruned), topks(&own));
        for (x, got) in batch.queries().iter().zip(&pruned) {
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
        let query = Query {
            tier: QueryTier::Pruned {
                shortlist_factor: 2,
            },
            ..Query::new(5)
        };
        let err = inner.answer(&m, batch.queries(), &query).unwrap_err();
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

        fn answer(
            &self,
            matrix: &PreparedMatrix,
            queries: &[DenseVector],
            query: &Query,
        ) -> Result<Vec<QueryResult>, EngineError> {
            let csr = matrix.downcast::<Csr>(&self.family())?;
            let k = query.check_exact(self, csr.num_cols(), queries)?;
            let answer = |x: &DenseVector| {
                let y = csr.spmv_exact(x.as_slice());
                let topk = TopKResult::merge_pairs(
                    y.iter().enumerate().map(|(r, &s)| (r as u32, s)),
                    k.min(csr.num_rows()),
                );
                QueryResult {
                    topk,
                    perf: BackendPerf::measured(1e-9, csr.nnz() as u64),
                    stats: BackendStats::Cpu { threads: 1 },
                }
            };
            Ok(queries.iter().map(answer).collect())
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
        assert_eq!(QueryTier::Exact.to_string(), "exact");
        assert_eq!(
            QueryTier::Pruned {
                shortlist_factor: 4
            }
            .to_string(),
            "pruned-c4"
        );
    }
}
