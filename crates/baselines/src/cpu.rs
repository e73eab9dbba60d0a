//! Multi-threaded CPU Top-K SpMV (the `sparse_dot_topn` baseline).
//!
//! `sparse_dot_topn` computes exact Top-K sparse-dense products on CPU
//! with CSR traversal and per-thread bounded heaps. This module is the
//! same algorithm with the same sums: every row is scored as
//! [`tkspmv_sparse::exact_dot`] scores it (`f32` products accumulated in
//! `f64` from `0.0`, in column order — matching a careful C++ float
//! implementation), each participant streams its `(row, sum)` pairs
//! through one bounded selection ([`TopKResult::merge_pairs`]), and
//! [`TopKResult::merge`] keeps the best `k` of the participants.
//!
//! Only the order in which rows are visited differs from a CSR walk.
//! [`CpuTopK`]'s `prepare` stores the collection grouped by row length,
//! longest group first: a counting sort over the row lengths, then each
//! group's entries copied out back to back. A query widens `x` to `f64`
//! once and scores each group with a loop whose trip count is the
//! group's length, one sum per row into a block of sums on the stack,
//! and offers each block's `(row id, sum)` pairs to the selection
//! before it scores the next, so a query allocates nothing that grows
//! with the collection. Lengths up to 32 are monomorphised, so each of
//! those rows is straight-line code; longer rows run a runtime-length
//! loop. A per-row loop over CSR pays an unpredictable exit branch on
//! every row of a skewed length distribution such as the Table III
//! gamma lengths. On a 50k-row ledger shard (one thread, 2-vCPU
//! x86-64-v3 host) that walk took 2.4–3.6 ns/nnz and the grouped loops
//! take 0.36–0.45 of its time. Longest first lets the selection's floor
//! rise early. The participants (tasks of
//! [`tkspmv::fanout::fork_join`]'s resident compute pool) take position
//! ranges of about equal entry count.
//!
//! The answer is bit-identical to [`exact_topk`] at every thread count:
//! each row's sum is the same left fold in the same column order, and
//! the selection is keyed on (score bits, row id), a total order, so
//! the order in which rows are offered cannot change it.

use std::sync::Arc;
use std::time::Instant;

use tkspmv_sparse::snapshot::{Snapshot, SnapshotPayload};
use tkspmv_sparse::{Csr, DenseVector};

use tkspmv::backend::{BackendPerf, BackendStats, PreparedMatrix, Query, QueryResult, TopKBackend};
use tkspmv::fanout::{fork_join, host_parallelism};
use tkspmv::{EngineError, TopKResult};

/// Exact multi-threaded CPU Top-K SpMV.
///
/// # Example
///
/// ```
/// use tkspmv::backend::TopKBackend;
/// use tkspmv_baselines::cpu::CpuTopK;
/// use tkspmv_sparse::{Csr, DenseVector};
///
/// let csr = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 0.5)])?;
/// let cpu = CpuTopK::new(2);
/// let x = DenseVector::from_values(vec![1.0, 1.0]);
/// let out = cpu.query(&cpu.prepare(&csr)?, &x, 1)?;
/// assert_eq!(out.topk.indices(), vec![0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CpuTopK {
    threads: usize,
}

impl CpuTopK {
    /// Creates a runner with the given worker-thread count.
    ///
    /// The workers are the caller plus helpers of the resident compute
    /// pool ([`fork_join`]), so a count above [`host_parallelism`] runs
    /// as [`host_parallelism`] workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self { threads }
    }

    /// A runner using all available parallelism.
    pub fn with_all_cores() -> Self {
        Self::new(host_parallelism())
    }
}

impl TopKBackend for CpuTopK {
    fn name(&self) -> String {
        "cpu".to_string()
    }

    fn prepare(&self, csr: &Csr) -> Result<PreparedMatrix, EngineError> {
        if csr.num_rows() == 0 {
            return Err(EngineError::empty_matrix());
        }
        Ok(PreparedMatrix::new(
            self.name(),
            csr.num_rows(),
            csr.num_cols(),
            csr.nnz() as u64,
            ByLength::new(csr),
        ))
    }

    fn answer(
        &self,
        matrix: &PreparedMatrix,
        queries: &[DenseVector],
        query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let rows = matrix.downcast::<ByLength>(&self.family())?;
        let k = query.check_exact(self, matrix.num_cols(), queries)?;
        Ok(queries.iter().map(|x| self.run(&rows, x, k)).collect())
    }

    /// Writes the collection back in row order, so the snapshot is the
    /// source [`Csr`]'s, byte for byte.
    fn to_snapshot(&self, matrix: &PreparedMatrix) -> Result<Snapshot, EngineError> {
        let rows = matrix.downcast::<ByLength>(&self.family())?;
        Ok(Snapshot {
            family: self.family(),
            num_rows: matrix.num_rows() as u64,
            num_cols: matrix.num_cols() as u64,
            nnz: matrix.nnz(),
            payload: SnapshotPayload::Csr(rows.to_csr(matrix.num_cols())?),
            companion: None,
        })
    }
}

impl CpuTopK {
    /// Computes the exact Top-K of the collection times `x`, timing it on
    /// the wall clock (the Figure 5 baseline measurement).
    fn run(&self, rows: &Arc<ByLength>, x: &DenseVector, k: usize) -> QueryResult {
        let started = Instant::now();
        let nnz = rows.cols.len() as u64;
        let tasks = self.threads.min(host_parallelism()).min(rows.rows.len());
        // The tasks run on the resident compute pool, so they own the
        // query they score, widened to `f64` once.
        let x: Arc<[f64]> = x.as_slice().iter().map(|&v| f64::from(v)).collect();
        let shared = Arc::clone(rows);
        let (parts, participants) = fork_join(
            tasks,
            tasks,
            || (),
            move |(), t| {
                let (lo, hi) = shared.task_range(t, tasks);
                shared.top(lo, hi, &x, k)
            },
        );
        QueryResult {
            topk: TopKResult::merge(parts, k),
            perf: BackendPerf::measured(started.elapsed().as_secs_f64(), nnz),
            stats: BackendStats::Cpu {
                threads: participants.len(),
            },
        }
    }
}

/// Positions a task scores before it offers them to the selection: a
/// block's sums are still in the L1 cache when they are read, and a
/// query allocates no buffer that grows with the collection.
const BLOCK: usize = 256;

/// The collection as [`CpuTopK`] scores it: its rows grouped by
/// length, longest group first, rows of one length in row order.
///
/// The entries are copied, not reached through a permutation of the
/// source CSR's rows: in place, every length group sweeps the whole CSR
/// for a scattered few of its cache lines, which measured slower than
/// the plain CSR walk.
#[derive(Debug)]
struct ByLength {
    /// The row id at each position.
    rows: Vec<u32>,
    /// The length groups, longest first, closed by an empty group at
    /// the end of the positions and entries.
    groups: Vec<Group>,
    /// Each position's columns, in column order, positions back to
    /// back.
    cols: Vec<u32>,
    /// The values beside `cols`.
    vals: Vec<f32>,
}

/// The rows of one length: positions `first..` up to the next group's
/// `first`.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The group's first position.
    first: usize,
    /// Entries per row.
    len: usize,
    /// The first entry of the group's first position.
    entry: usize,
}

impl ByLength {
    /// Counting-sorts `csr`'s rows by length, then copies their entries
    /// out in position order. A row holds at most `num_cols` entries,
    /// so the count table is no longer than a query.
    fn new(csr: &Csr) -> Self {
        let ptr = csr.row_ptr();
        let lens = ptr.windows(2).map(|w| (w[1] - w[0]) as usize);
        // Rows of each length, then each length's next position.
        let mut next = vec![0usize; lens.clone().max().unwrap_or(0) + 1];
        for len in lens.clone() {
            next[len] += 1;
        }
        let mut groups = Vec::new();
        let (mut first, mut entry) = (0, 0);
        for (len, next) in next.iter_mut().enumerate().rev() {
            if *next > 0 {
                groups.push(Group { first, len, entry });
                let count = std::mem::replace(next, first);
                first += count;
                entry += count * len;
            }
        }
        groups.push(Group {
            first,
            len: 0,
            entry,
        });
        let mut rows = vec![0u32; csr.num_rows()];
        for (r, len) in lens.enumerate() {
            rows[next[len]] = r as u32;
            next[len] += 1;
        }
        // Writing in position order needs no zeroed buffer, and within
        // a group every copy has the same length.
        let mut cols = Vec::with_capacity(csr.nnz());
        let mut vals = Vec::with_capacity(csr.nnz());
        for (g, end) in pairs(&groups) {
            for &row in &rows[g.first..end.first] {
                let lo = ptr[row as usize] as usize;
                cols.extend_from_slice(&csr.col_idx()[lo..lo + g.len]);
                vals.extend_from_slice(&csr.values()[lo..lo + g.len]);
            }
        }
        Self {
            rows,
            groups,
            cols,
            vals,
        }
    }

    /// The collection back in row order.
    fn to_csr(&self, num_cols: usize) -> Result<Csr, EngineError> {
        // Each row's first entry and length, by row id.
        let mut spans = vec![(0, 0); self.rows.len()];
        for (g, end) in pairs(&self.groups) {
            for (i, &row) in self.rows[g.first..end.first].iter().enumerate() {
                spans[row as usize] = (g.entry + i * g.len, g.len);
            }
        }
        let mut row_ptr = Vec::with_capacity(spans.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(self.cols.len());
        let mut values = Vec::with_capacity(self.vals.len());
        for (at, len) in spans {
            col_idx.extend_from_slice(&self.cols[at..at + len]);
            values.extend_from_slice(&self.vals[at..at + len]);
            row_ptr.push(col_idx.len() as u64);
        }
        Ok(Csr::from_parts(
            self.rows.len(),
            num_cols,
            row_ptr,
            col_idx,
            values,
        )?)
    }

    /// The positions of task `t` of `tasks`: ranges of about equal
    /// entry count, together covering every position once.
    fn task_range(&self, t: usize, tasks: usize) -> (usize, usize) {
        let boundary = |t: usize| match t {
            0 => 0,
            t if t == tasks => self.rows.len(),
            t => self.position_at(self.cols.len() * t / tasks),
        };
        (boundary(t), boundary(t + 1))
    }

    /// The first position whose entries start at or after `entry`, for
    /// `entry` below the entry count (the position count otherwise).
    fn position_at(&self, entry: usize) -> usize {
        // The first group that ends past `entry` holds it, so its
        // length is not zero.
        pairs(&self.groups)
            .find(|(_, end)| entry < end.entry)
            .map_or(self.rows.len(), |(g, _)| {
                g.first + (entry - g.entry).div_ceil(g.len)
            })
    }

    /// The best `k` of positions `lo..hi` against the widened query:
    /// each group's part of the range scored [`BLOCK`] positions at a
    /// time into sums on the stack, each block offered with its row ids
    /// before the next is scored.
    fn top(&self, lo: usize, hi: usize, x: &[f64], k: usize) -> TopKResult {
        let blocks = pairs(&self.groups).flat_map(|(g, end)| {
            let first = lo.clamp(g.first, end.first);
            let last = hi.clamp(first, end.first);
            (first..last)
                .step_by(BLOCK)
                .map(move |at| (g, at, last.min(at + BLOCK)))
        });
        let scored = blocks.flat_map(|(g, first, last)| {
            let mut sums = [0.0; BLOCK];
            let at = g.entry + (first - g.first) * g.len;
            let span = at..at + (last - first) * g.len;
            score_group(
                g.len,
                &self.cols[span.clone()],
                &self.vals[span],
                x,
                &mut sums[..last - first],
            );
            self.rows[first..last].iter().copied().zip(sums)
        });
        TopKResult::merge_pairs(scored, k)
    }
}

/// Each length group with the one after it (the closing group last).
fn pairs(groups: &[Group]) -> impl Iterator<Item = (Group, Group)> + '_ {
    groups.windows(2).map(|w| (w[0], w[1]))
}

/// Writes one sum per entry of `sums`, for rows of `len` entries each
/// laid out back to back in `cols` and `vals`. A length up to 32 gets a
/// loop of its own whose trip count is a constant, so each row is
/// straight-line code; a longer one runs a runtime-length loop.
fn score_group(len: usize, cols: &[u32], vals: &[f32], x: &[f64], sums: &mut [f64]) {
    macro_rules! by_length {
        ($($n:literal)*) => {
            match len {
                0 => sums.fill(0.0),
                $($n => {
                    let rows = cols.chunks_exact($n).zip(vals.chunks_exact($n));
                    for (sum, (c, v)) in sums.iter_mut().zip(rows) {
                        *sum = fold(&c[..$n], &v[..$n], x);
                    }
                })*
                _ => {
                    let rows = cols.chunks_exact(len).zip(vals.chunks_exact(len));
                    for (sum, (c, v)) in sums.iter_mut().zip(rows) {
                        *sum = fold(c, v, x);
                    }
                }
            }
        };
    }
    by_length!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
}

/// [`tkspmv_sparse::exact_dot`]'s sum: the left fold from `0.0` in
/// column order, against the widened query.
#[inline(always)]
fn fold(cols: &[u32], vals: &[f32], x: &[f64]) -> f64 {
    // Every column is below the collection's column count (checked when
    // the `Csr` was built), which `answer` checked `x`'s length against.
    cols.iter()
        .zip(vals)
        .fold(0.0, |acc, (&c, &v)| acc + f64::from(v) * x[c as usize])
}

/// The exact Top-K oracle in `f64` — ground truth for every accuracy
/// metric in the evaluation (single-threaded, unambiguous).
pub fn exact_topk(csr: &Csr, x: &[f32], k: usize) -> TopKResult {
    let y = csr.spmv_exact(x);
    TopKResult::merge_pairs(y.into_iter().enumerate().map(|(i, v)| (i as u32, v)), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

    fn matrix(seed: u64) -> Csr {
        SyntheticConfig {
            num_rows: 3000,
            num_cols: 256,
            avg_nnz_per_row: 16,
            distribution: NnzDistribution::table3_gamma(),
            seed,
        }
        .generate()
    }

    /// One query through the trait on a fresh `threads`-thread backend.
    fn query(threads: usize, csr: &Csr, x: &[f32], k: usize) -> QueryResult {
        let cpu = CpuTopK::new(threads);
        let x = DenseVector::from_values(x.to_vec());
        cpu.query(&cpu.prepare(csr).unwrap(), &x, k).unwrap()
    }

    /// The participants a `threads`-thread query runs on this host.
    fn ran(threads: usize) -> BackendStats {
        BackendStats::Cpu {
            threads: threads.min(host_parallelism()),
        }
    }

    #[test]
    fn multithreaded_matches_oracle() {
        let csr = matrix(1);
        let x = query_vector(256, 2);
        let oracle = exact_topk(&csr, x.as_slice(), 50);
        for threads in [1, 2, 4, 8] {
            let got = query(threads, &csr, x.as_slice(), 50).topk;
            assert_eq!(got.indices(), oracle.indices(), "threads = {threads}");
        }
    }

    #[test]
    fn groups_run_longest_first_and_tasks_split_entries_evenly() {
        let csr = matrix(6);
        let rows = ByLength::new(&csr);
        let lens: Vec<usize> = pairs(&rows.groups).map(|(g, _)| g.len).collect();
        assert!(lens.windows(2).all(|w| w[0] > w[1]), "{lens:?}");
        for tasks in 1..=5 {
            let ranges: Vec<_> = (0..tasks).map(|t| rows.task_range(t, tasks)).collect();
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[tasks - 1].1, csr.num_rows());
            assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0));
            // A boundary is the first position whose entries start at or
            // past its share of the entries.
            let start = |p: usize| {
                let (g, _) = pairs(&rows.groups).find(|(_, n)| p < n.first).unwrap();
                g.entry + (p - g.first) * g.len
            };
            for (t, &(lo, _)) in ranges.iter().enumerate().skip(1) {
                let share = csr.nnz() * t / tasks;
                assert!(start(lo) >= share && start(lo - 1) < share, "{tasks}: {t}");
            }
        }
    }

    #[test]
    fn every_row_is_offered_across_blocks() {
        let csr = SyntheticConfig {
            num_rows: 6000,
            num_cols: 256,
            avg_nnz_per_row: 4,
            distribution: NnzDistribution::table3_gamma(),
            seed: 7,
        }
        .generate();
        let rows = ByLength::new(&csr);
        // Some group spans more than one block and ends inside one.
        assert!(pairs(&rows.groups).any(|(g, end)| {
            let n = end.first - g.first;
            n > 2 * BLOCK && n % BLOCK != 0
        }));
        let x = query_vector(256, 9);
        let all = exact_topk(&csr, x.as_slice(), csr.num_rows());
        for threads in 1..=3 {
            let got = query(threads, &csr, x.as_slice(), csr.num_rows()).topk;
            assert_eq!(got, all, "threads = {threads}");
        }
    }

    #[test]
    fn timed_run_reports_duration() {
        let csr = matrix(2);
        let x = query_vector(256, 3);
        let run = query(2, &csr, x.as_slice(), 10);
        assert!(run.perf.seconds > 0.0);
        assert_eq!(run.stats, ran(2));
        assert_eq!(run.topk.len(), 10);
    }

    #[test]
    fn k_larger_than_rows_returns_all() {
        let csr = Csr::from_triplets(2, 2, &[(0, 0, 0.5), (1, 1, 0.25)]).unwrap();
        assert_eq!(query(4, &csr, &[1.0, 1.0], 10).topk.len(), 2);
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let csr = Csr::from_triplets(3, 2, &[(0, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let run = query(64, &csr, &[1.0, 1.0], 2);
        assert_eq!(run.topk.indices(), vec![0, 2]);
        // The report is the participants that ran, not the request.
        assert_eq!(run.stats, ran(3));
    }

    #[test]
    fn backend_trait_matches_direct_calls() {
        let csr = matrix(4);
        let x = query_vector(256, 8);
        let backend: &dyn TopKBackend = &CpuTopK::new(2);
        assert_eq!(backend.name(), "cpu");
        let prepared = backend.prepare(&csr).unwrap();
        let out = backend.query(&prepared, &x, 25).unwrap();
        assert_eq!(out.topk, exact_topk(&csr, x.as_slice(), 25));
        assert!(out.perf.seconds > 0.0);
        assert_eq!(out.perf.nnz, csr.nnz() as u64);
        assert_eq!(out.stats, ran(2));
    }

    #[test]
    fn backend_trait_validates_fallibly() {
        let csr = matrix(5);
        let backend: &dyn TopKBackend = &CpuTopK::new(2);
        let prepared = backend.prepare(&csr).unwrap();
        // Wrong length and zero K are typed errors, not panics.
        assert!(backend.query(&prepared, &query_vector(99, 1), 5).is_err());
        assert!(backend.query(&prepared, &query_vector(256, 1), 0).is_err());
        let empty = Csr::from_triplets(0, 4, &[]);
        assert!(empty.is_ok_and(|m| backend.prepare(&m).is_err()));
    }
}
