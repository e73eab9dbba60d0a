//! Streaming ingest: append-only delta shards over an epoch-swapped base.
//!
//! A [`DeltaCollection`] is what one fabric node serves: a base
//! collection held by a [`TopKService`] (prepared, sharded, epoch
//! hot-swappable) plus a small append-only *delta shard* of rows that
//! arrived since the last compaction. Appended rows are visible to
//! queries immediately — they are scored exactly against the query on
//! the caller's thread (the delta is small and unprepared by design) and
//! merged with the base ranking under the engine total order.
//!
//! A compaction folds the delta prefix into a re-encoded base via
//! [`Csr::append_rows`], prepares the new collection off-lock, and
//! epoch-swaps it in with the PR-5 hot-swap machinery; queries keep
//! flowing throughout. Row ids are assigned at append time as
//! `start_row + base_rows + delta_index` and never change: folding a
//! prefix of the delta renumbers nothing.
//!
//! Compaction is *idempotent from state*: the fold is recomputed from
//! the collection's own base + delta every time, so a compactor that
//! dies mid-fold (before the swap) leaves nothing to repair, and one
//! that dies between the swap and the bookkeeping merely causes the next
//! run to rebuild the same collection. A query racing the swap can see a
//! freshly folded row from both the new base and its delta snapshot;
//! [`TopKResult::merge_pairs_dedup`] keeps one sighting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tkspmv::backend::QueryTier;
use tkspmv::{EngineError, TopKResult};
use tkspmv_serve::{ServeError, StageBreakdown, TopKService};
use tkspmv_sparse::{Csr, DenseVector};

/// One sparse row in caller form: strictly increasing column indices and
/// their values, equal lengths.
pub type SparseRow = (Vec<u32>, Vec<f32>);

struct DeltaState {
    /// The current base collection — the fold source of truth.
    base: Csr,
    /// Rows appended since the last completed compaction, in append
    /// order. Row `j` has global id `start_row + base.num_rows() + j`.
    delta: Vec<SparseRow>,
}

/// A node-local collection: an epoch-swapped base service plus an
/// append-only delta shard.
pub struct DeltaCollection {
    service: TopKService,
    start_row: usize,
    state: Mutex<DeltaState>,
    /// Serialises compactions; queries and appends never take it.
    compact_gate: Mutex<()>,
}

impl DeltaCollection {
    /// Wraps a built service. `base` must be the collection `service`
    /// currently serves and `start_row` the global id of its row 0.
    pub fn new(service: TopKService, base: Csr, start_row: usize) -> Self {
        Self {
            service,
            start_row,
            state: Mutex::new(DeltaState {
                base,
                delta: Vec::new(),
            }),
            compact_gate: Mutex::new(()),
        }
    }

    /// The base service (for policy/epoch/metrics introspection).
    pub fn service(&self) -> &TopKService {
        &self.service
    }

    /// Global id of this node's first row.
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Rows in the base (compacted) collection.
    pub fn base_rows(&self) -> usize {
        lock(&self.state).base.num_rows()
    }

    /// Rows currently waiting in the delta shard.
    pub fn delta_rows(&self) -> usize {
        lock(&self.state).delta.len()
    }

    /// Total rows this collection answers for.
    pub fn total_rows(&self) -> usize {
        let s = lock(&self.state);
        s.base.num_rows() + s.delta.len()
    }

    /// Appends rows to the delta shard; they are queryable on return.
    /// Returns the assigned global row ids, in order.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`]-style validation failures are reported
    /// as strings (length mismatch, unsorted or out-of-range columns) —
    /// nothing is appended unless every row validates.
    pub fn append(&self, rows: &[SparseRow]) -> Result<Vec<u32>, String> {
        let dim = self.service.dim();
        for (i, (cols, vals)) in rows.iter().enumerate() {
            validate_row(dim, cols, vals).map_err(|e| format!("append row {i}: {e}"))?;
        }
        let mut s = lock(&self.state);
        let first = self.start_row + s.base.num_rows() + s.delta.len();
        let last = first + rows.len();
        if last > u32::MAX as usize {
            return Err(format!("global row id {last} exceeds u32 row indexing"));
        }
        s.delta.extend(rows.iter().cloned());
        Ok((first..last).map(|id| id as u32).collect())
    }

    /// Ranks the top `k` rows for `x` at `tier`, over base *and* delta,
    /// with global row ids, under the engine total order — and says
    /// where the time went: the served request's [`StageBreakdown`]
    /// (delta scoring and the final merge folded into its merge stage)
    /// and the collection-level end-to-end latency. A fabric node sends
    /// the ranking and, for a traced query, the other two.
    ///
    /// Delta rows bypass the prune pass regardless of tier: they are
    /// few, unprepared, and scored exactly — a pruned-tier answer can
    /// therefore only improve while the delta is non-empty.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a malformed query, before the delta
    /// is touched (its scoring indexes `x` by column); otherwise whatever
    /// [`TopKService::query_tiered`] reports.
    pub fn query(
        &self,
        x: DenseVector,
        k: usize,
        tier: QueryTier,
    ) -> Result<(TopKResult, StageBreakdown, Duration), ServeError> {
        let started = std::time::Instant::now();
        check_query(self.service.dim(), x.len(), k, tier).map_err(ServeError::BadRequest)?;
        // Score the delta (and note where it starts) before querying the
        // base, so a compaction landing in between can only duplicate
        // rows — never drop them. Duplicates are deduped below.
        let delta_pairs: Vec<(u32, f64)> = {
            let s = lock(&self.state);
            let delta_first = self.start_row + s.base.num_rows();
            s.delta
                .iter()
                .enumerate()
                .map(|(j, (cols, vals))| ((delta_first + j) as u32, score_row(&x, cols, vals)))
                .collect()
        };
        let served = self.service.query_tiered(x, k, tier)?;
        let merge_started = std::time::Instant::now();
        let base_pairs = served
            .topk
            .entries()
            .iter()
            .map(|&(row, score)| (row + self.start_row as u32, score));
        let topk = TopKResult::merge_pairs_dedup(base_pairs.chain(delta_pairs), k);
        let mut stages = served.stages;
        stages.merge += merge_started.elapsed();
        Ok((topk, stages, started.elapsed()))
    }

    /// Folds the current delta prefix into a re-encoded base and
    /// epoch-swaps it in. Queries and appends proceed throughout; only
    /// other compactions are excluded. Returns `(epoch, folded)`.
    ///
    /// # Errors
    ///
    /// Fold or prepare failures are reported as strings; the serving
    /// epoch and the delta are untouched on error.
    pub fn compact_once(&self) -> Result<(u64, u64), String> {
        self.compact_once_hooked(|| {})
    }

    /// [`DeltaCollection::compact_once`] with a test hook invoked after
    /// the fold but before the epoch swap — the window a dying compactor
    /// is most interesting in. The hook may panic to simulate the death;
    /// serving state is unaffected and a later run recovers.
    #[doc(hidden)]
    pub fn compact_once_hooked<F: FnOnce()>(&self, hook: F) -> Result<(u64, u64), String> {
        let _gate = lock(&self.compact_gate);
        // Snapshot under the state lock: the fold source and how many
        // delta rows this run will fold (appends landing later stay).
        let (base, rows) = {
            let s = lock(&self.state);
            if s.delta.is_empty() {
                return Ok((self.service.epoch(), 0));
            }
            (s.base.clone(), s.delta.clone())
        };
        let folded = rows.len();
        // Off-lock: re-encode and prepare. The service keeps answering
        // from the old epoch the whole time.
        let new_base = base
            .append_rows(&rows)
            .map_err(|e| format!("delta fold failed: {e}"))?;
        hook();
        let epoch = self
            .service
            .swap_collection(&new_base)
            .map_err(|e| format!("epoch swap failed: {e}"))?;
        // Short lock: the folded prefix leaves the delta; its rows keep
        // their ids as the first `folded` rows past the old base.
        {
            let mut s = lock(&self.state);
            s.base = new_base;
            s.delta.drain(..folded);
        }
        Ok((epoch, folded as u64))
    }
}

/// Scores one sparse row against a dense query exactly, in column order
/// with `f64` accumulation — the same arithmetic as [`Csr::spmv_exact`]
/// and the exact CPU engine, so a row scores bit-identically before and
/// after compaction folds it into the base.
fn score_row(x: &DenseVector, cols: &[u32], vals: &[f32]) -> f64 {
    let xs = x.as_slice();
    cols.iter()
        .zip(vals)
        .map(|(&c, &v)| xs[c as usize] as f64 * v as f64)
        .sum()
}

/// What a query must satisfy for any node to answer it, refused in the
/// engine's own words: a node checks it before touching its delta, the
/// router before sending a byte (only there can `k` outgrow the wire).
pub(crate) fn check_query(
    dim: usize,
    x_len: usize,
    k: usize,
    tier: QueryTier,
) -> Result<(), EngineError> {
    if x_len != dim {
        return Err(EngineError::vector_length_mismatch(x_len, dim));
    }
    if k == 0 {
        return Err(EngineError::zero_big_k());
    }
    if u32::try_from(k).is_err() {
        return Err(EngineError::bad_query(format!(
            "K = {k} does not fit the wire's 32-bit count"
        )));
    }
    let zero_factor = QueryTier::Pruned {
        shortlist_factor: 0,
    };
    if tier == zero_factor {
        return Err(EngineError::invalid_config(
            "shortlist factor must be at least 1",
        ));
    }
    Ok(())
}

fn validate_row(dim: usize, cols: &[u32], vals: &[f32]) -> Result<(), String> {
    if cols.len() != vals.len() {
        return Err(format!("{} columns but {} values", cols.len(), vals.len()));
    }
    let mut prev: Option<u32> = None;
    for &c in cols {
        if c as usize >= dim {
            return Err(format!("column {c} out of range for dimension {dim}"));
        }
        if let Some(p) = prev {
            if c <= p {
                return Err(format!("columns not strictly increasing at {c}"));
            }
        }
        prev = Some(c);
    }
    Ok(())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A background compactor: folds a [`DeltaCollection`]'s delta shard
/// whenever it reaches a row threshold, on a polling interval.
///
/// Each run is wrapped in `catch_unwind`: a panicking fold (a dying
/// compactor) is counted and retried on the next tick, and serving is
/// never affected — the compactor owns no serving state.
pub struct Compactor {
    stop: Arc<CompactorStop>,
    handle: Option<std::thread::JoinHandle<CompactorStats>>,
}

struct CompactorStop {
    flag: AtomicBool,
    gate: Mutex<()>,
    cv: Condvar,
}

/// What a compactor did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactorStats {
    /// Completed folds (non-empty deltas swapped in).
    pub compactions: u64,
    /// Delta rows folded in total.
    pub rows_folded: u64,
    /// Runs that failed or panicked and were left for the next tick.
    pub failures: u64,
}

impl Compactor {
    /// Spawns the compactor thread over `collection`, checking every
    /// `interval` and folding once the delta holds at least
    /// `min_delta_rows` rows.
    pub fn spawn(
        collection: Arc<DeltaCollection>,
        interval: Duration,
        min_delta_rows: usize,
    ) -> Self {
        let stop = Arc::new(CompactorStop {
            flag: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        });
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tkspmv-fabric-compactor".to_string())
            .spawn(move || {
                let mut stats = CompactorStats::default();
                loop {
                    {
                        let guard = lock(&thread_stop.gate);
                        let (_guard, _timeout) = thread_stop
                            .cv
                            .wait_timeout(guard, interval)
                            .unwrap_or_else(|p| p.into_inner());
                    }
                    if thread_stop.flag.load(Ordering::Acquire) {
                        return stats;
                    }
                    if collection.delta_rows() < min_delta_rows.max(1) {
                        continue;
                    }
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        collection.compact_once()
                    }));
                    match run {
                        Ok(Ok((_, folded))) if folded > 0 => {
                            stats.compactions += 1;
                            stats.rows_folded += folded;
                        }
                        Ok(Ok(_)) => {}
                        Ok(Err(_)) | Err(_) => stats.failures += 1,
                    }
                }
            })
            // invariant: spawn fails only on OS thread exhaustion; the fabric cannot run without its compactor
            .expect("spawn compactor thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the compactor and returns its lifetime stats.
    pub fn shutdown(mut self) -> CompactorStats {
        self.stop.flag.store(true, Ordering::Release);
        self.stop.cv.notify_all();
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => CompactorStats::default(),
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.flag.store(true, Ordering::Release);
        self.stop.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tkspmv_baselines::cpu::CpuTopK;

    fn tiny_csr(rows: usize, dim: usize) -> Csr {
        let mut row_ptr = vec![0u64];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            col_idx.push((r % dim) as u32);
            values.push(1.0 + r as f32);
            row_ptr.push(col_idx.len() as u64);
        }
        Csr::from_parts(rows, dim, row_ptr, col_idx, values).expect("valid csr")
    }

    fn collection(rows: usize, dim: usize, start_row: usize) -> DeltaCollection {
        let csr = tiny_csr(rows, dim);
        let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
            .build(&csr)
            .expect("service");
        DeltaCollection::new(service, csr, start_row)
    }

    #[test]
    fn appended_rows_are_visible_before_compaction() {
        let c = collection(4, 8, 100);
        // Row that dominates on column 7, untouched by the base.
        let ids = c.append(&[(vec![7], vec![5.0])]).expect("append");
        assert_eq!(ids, vec![104]);
        let mut x = DenseVector::zeros(8);
        x.as_mut_slice()[7] = 1.0;
        let (topk, ..) = c.query(x, 2, QueryTier::Exact).expect("query");
        assert_eq!(topk.entries()[0], (104, 5.0));
    }

    #[test]
    fn compaction_folds_and_preserves_ids_and_scores() {
        let c = collection(4, 8, 100);
        c.append(&[(vec![7], vec![5.0]), (vec![6], vec![4.0])])
            .expect("append");
        let mut x = DenseVector::zeros(8);
        x.as_mut_slice()[7] = 1.0;
        let (before, ..) = c.query(x.clone(), 3, QueryTier::Exact).expect("query");
        let epoch0 = c.service().epoch();
        let (epoch, folded) = c.compact_once().expect("compact");
        assert_eq!(folded, 2);
        assert!(epoch > epoch0);
        assert_eq!(c.delta_rows(), 0);
        assert_eq!(c.base_rows(), 6);
        let (after, ..) = c.query(x, 3, QueryTier::Exact).expect("query");
        assert_eq!(before.entries(), after.entries());
    }

    #[test]
    fn appends_during_fold_stay_in_delta() {
        let c = collection(2, 4, 0);
        c.append(&[(vec![0], vec![9.0])]).expect("first");
        // The hook fires mid-compaction; an append landing there must
        // survive the fold untouched.
        let c = Arc::new(c);
        let c2 = Arc::clone(&c);
        let (epoch, folded) = c
            .compact_once_hooked(move || {
                c2.append(&[(vec![1], vec![8.0])]).expect("mid-fold append");
            })
            .expect("compact");
        assert!(epoch > 0);
        assert_eq!(folded, 1);
        assert_eq!(c.delta_rows(), 1);
        assert_eq!(c.base_rows(), 3);
        let mut x = DenseVector::zeros(4);
        x.as_mut_slice()[1] = 1.0;
        let (topk, ..) = c.query(x, 1, QueryTier::Exact).expect("query");
        assert_eq!(topk.entries()[0], (3, 8.0));
    }

    #[test]
    fn dying_compactor_leaves_serving_intact_and_recovers() {
        let c = Arc::new(collection(2, 4, 0));
        c.append(&[(vec![2], vec![7.0])]).expect("append");
        let epoch0 = c.service().epoch();
        let c2 = Arc::clone(&c);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            c2.compact_once_hooked(|| panic!("compactor killed mid-fold"))
        }));
        assert!(died.is_err());
        // Nothing swapped, nothing lost.
        assert_eq!(c.service().epoch(), epoch0);
        assert_eq!(c.delta_rows(), 1);
        let mut x = DenseVector::zeros(4);
        x.as_mut_slice()[2] = 1.0;
        let (topk, ..) = c.query(x.clone(), 1, QueryTier::Exact).expect("query");
        assert_eq!(topk.entries()[0], (2, 7.0));
        // The next run completes the fold.
        let (_, folded) = c.compact_once().expect("recovery compact");
        assert_eq!(folded, 1);
        let (topk, ..) = c.query(x, 1, QueryTier::Exact).expect("query");
        assert_eq!(topk.entries()[0], (2, 7.0));
    }

    #[test]
    fn append_validation_rejects_hostile_rows() {
        let c = collection(2, 4, 0);
        assert!(c.append(&[(vec![0, 1], vec![1.0])]).is_err());
        assert!(c.append(&[(vec![4], vec![1.0])]).is_err());
        assert!(c.append(&[(vec![2, 1], vec![1.0, 1.0])]).is_err());
        // Nothing partial landed.
        assert_eq!(c.delta_rows(), 0);
    }

    #[test]
    fn background_compactor_folds_on_threshold() {
        let c = Arc::new(collection(2, 4, 0));
        let compactor = Compactor::spawn(Arc::clone(&c), Duration::from_millis(5), 1);
        c.append(&[(vec![3], vec![2.5])]).expect("append");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.delta_rows() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "compactor never folded"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = compactor.shutdown();
        assert!(stats.compactions >= 1);
        assert_eq!(stats.rows_folded, 1);
        assert_eq!(c.base_rows(), 3);
    }
}
