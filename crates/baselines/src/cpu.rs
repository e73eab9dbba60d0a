//! Multi-threaded CPU Top-K SpMV (the `sparse_dot_topn` baseline).
//!
//! `sparse_dot_topn` computes exact Top-K sparse-dense products on CPU
//! with CSR traversal and per-thread bounded heaps. This module is the
//! same algorithm in Rust: rows are split into one contiguous range per
//! worker thread (tasks of [`tkspmv::fanout::fork_join`]'s resident
//! compute pool), each range streams its
//! dot products through one bounded selection
//! ([`TopKResult::merge_pairs`]), and [`TopKResult::merge`] keeps the
//! best `k` of the ranges. Each row is scored by
//! [`tkspmv_sparse::exact_dot`]: `f32` products accumulated in `f64` in
//! column order — matching a careful C++ float implementation.

use std::sync::Arc;
use std::time::Instant;

use tkspmv_sparse::{exact_dot, Csr, DenseVector};

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
    /// pool ([`fork_join`]), so at most [`host_parallelism`] of them run
    /// at once whatever the count.
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
            csr.clone(),
        ))
    }

    fn answer(
        &self,
        matrix: &PreparedMatrix,
        queries: &[DenseVector],
        query: &Query,
    ) -> Result<Vec<QueryResult>, EngineError> {
        let csr = matrix.downcast::<Csr>(&self.name())?;
        let k = query.check_exact(self, csr.num_cols(), queries)?;
        Ok(queries.iter().map(|x| self.run(&csr, x, k)).collect())
    }
}

impl CpuTopK {
    /// Computes the exact Top-K of `csr * x`, timing it on the wall
    /// clock (the Figure 5 baseline measurement).
    fn run(&self, csr: &Arc<Csr>, x: &DenseVector, k: usize) -> QueryResult {
        let started = Instant::now();
        let nnz = csr.nnz() as u64;
        let threads = self.threads.min(csr.num_rows()).max(1);
        let rows_per_thread = csr.num_rows().div_ceil(threads);
        // The range tasks run on the resident compute pool, so they own
        // the query they score.
        let x: Arc<[f32]> = Arc::from(x.as_slice());
        let csr = Arc::clone(csr);

        let (ranges, _) = fork_join(
            threads,
            threads,
            || (),
            move |(), t| {
                let lo = t * rows_per_thread;
                let hi = ((t + 1) * rows_per_thread).min(csr.num_rows());
                let dots = (lo..hi).map(|r| (r as u32, exact_dot(csr.row(r), &x)));
                TopKResult::merge_pairs(dots, k)
            },
        );
        let topk = TopKResult::merge(ranges, k);
        QueryResult {
            topk,
            perf: BackendPerf::measured(started.elapsed().as_secs_f64(), nnz),
            stats: BackendStats::Cpu { threads },
        }
    }
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
    fn timed_run_reports_duration() {
        let csr = matrix(2);
        let x = query_vector(256, 3);
        let run = query(2, &csr, x.as_slice(), 10);
        assert!(run.perf.seconds > 0.0);
        assert!(matches!(run.stats, BackendStats::Cpu { threads: 2 }));
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
        // The report is the participants actually used, not the request.
        assert!(matches!(run.stats, BackendStats::Cpu { threads: 3 }));
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
        assert!(matches!(out.stats, BackendStats::Cpu { threads: 2 }));
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
