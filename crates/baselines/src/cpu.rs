//! Multi-threaded CPU Top-K SpMV (the `sparse_dot_topn` baseline).
//!
//! `sparse_dot_topn` computes exact Top-K sparse-dense products on CPU
//! with CSR traversal and per-row bounded heaps. This module is the same
//! algorithm in Rust: rows are split into one contiguous range per
//! worker thread ([`tkspmv::fanout::fork_join`]), each range keeps a
//! local [`BoundedMinHeap`], and the locals are merged at the end.
//! Arithmetic is `f32` accumulated in `f64` per row — matching a careful
//! C++ float implementation.

use std::time::Instant;

use tkspmv_sparse::{Csr, DenseVector};

use crate::heap::BoundedMinHeap;
use tkspmv::backend::{BackendPerf, BackendStats, PreparedMatrix, QueryResult, TopKBackend};
use tkspmv::fanout::{fork_join, host_parallelism};
use tkspmv::{EngineError, TopKResult};

/// Exact multi-threaded CPU Top-K SpMV.
///
/// # Example
///
/// ```
/// use tkspmv_baselines::cpu::CpuTopK;
/// use tkspmv_sparse::Csr;
///
/// let csr = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 0.5)])?;
/// let out = CpuTopK::new(2).run(&csr, &[1.0, 1.0], 1);
/// assert_eq!(out.indices(), vec![0]);
/// # Ok::<(), tkspmv_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CpuTopK {
    threads: usize,
}

/// A timed CPU run: the exact result plus measured wall-clock seconds.
#[derive(Debug, Clone)]
pub struct CpuRun {
    /// Exact Top-K result.
    pub topk: TopKResult,
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl CpuTopK {
    /// Creates a runner with the given worker-thread count.
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

    /// Computes the exact Top-K of `csr * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != csr.num_cols()` or `k == 0`.
    pub fn run(&self, csr: &Csr, x: &[f32], k: usize) -> TopKResult {
        self.run_timed(csr, x, k).topk
    }

    /// Like [`CpuTopK::run`] but also measures wall-clock time (the
    /// Figure 5 baseline measurement).
    pub fn run_timed(&self, csr: &Csr, x: &[f32], k: usize) -> CpuRun {
        assert_eq!(x.len(), csr.num_cols(), "vector length mismatch");
        assert!(k > 0, "k must be positive");
        let started = Instant::now();
        let threads = self.threads.min(csr.num_rows()).max(1);
        let rows_per_thread = csr.num_rows().div_ceil(threads);

        let (heaps, _) = fork_join(
            threads,
            threads,
            || (),
            |(), t| {
                let lo = t * rows_per_thread;
                let hi = ((t + 1) * rows_per_thread).min(csr.num_rows());
                let mut heap = BoundedMinHeap::new(k);
                for r in lo..hi {
                    let mut acc = 0.0f64;
                    for (c, v) in csr.row(r) {
                        acc += v as f64 * x[c as usize] as f64;
                    }
                    heap.push(r as u32, acc);
                }
                heap
            },
        );

        let mut merged = BoundedMinHeap::new(k);
        for h in heaps {
            merged.merge(h);
        }
        CpuRun {
            topk: TopKResult::from_pairs(merged.into_sorted_desc()),
            seconds: started.elapsed().as_secs_f64(),
            threads,
        }
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

    fn query(
        &self,
        matrix: &PreparedMatrix,
        x: &DenseVector,
        k: usize,
    ) -> Result<QueryResult, EngineError> {
        let csr: &Csr = matrix.downcast(&self.name())?;
        if x.len() != csr.num_cols() {
            return Err(EngineError::vector_length_mismatch(x.len(), csr.num_cols()));
        }
        if k == 0 {
            return Err(EngineError::zero_big_k());
        }
        let run = self.run_timed(csr, x.as_slice(), k);
        Ok(QueryResult {
            topk: run.topk,
            perf: BackendPerf::measured(run.seconds, csr.nnz() as u64),
            stats: BackendStats::Cpu {
                threads: run.threads,
            },
        })
    }
}

/// The exact Top-K oracle in `f64` — ground truth for every accuracy
/// metric in the evaluation (single-threaded, unambiguous).
pub fn exact_topk(csr: &Csr, x: &[f32], k: usize) -> TopKResult {
    let y = csr.spmv_exact(x);
    let pairs: Vec<(u32, f64)> = y
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i as u32, v))
        .collect();
    TopKResult::from_pairs(pairs).truncated(k)
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

    #[test]
    fn multithreaded_matches_oracle() {
        let csr = matrix(1);
        let x = query_vector(256, 2);
        let oracle = exact_topk(&csr, x.as_slice(), 50);
        for threads in [1, 2, 4, 8] {
            let got = CpuTopK::new(threads).run(&csr, x.as_slice(), 50);
            assert_eq!(got.indices(), oracle.indices(), "threads = {threads}");
        }
    }

    #[test]
    fn timed_run_reports_duration() {
        let csr = matrix(2);
        let x = query_vector(256, 3);
        let run = CpuTopK::new(2).run_timed(&csr, x.as_slice(), 10);
        assert!(run.seconds > 0.0);
        assert_eq!(run.threads, 2);
        assert_eq!(run.topk.len(), 10);
    }

    #[test]
    fn k_larger_than_rows_returns_all() {
        let csr = Csr::from_triplets(2, 2, &[(0, 0, 0.5), (1, 1, 0.25)]).unwrap();
        let out = CpuTopK::new(4).run(&csr, &[1.0, 1.0], 10);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let csr = Csr::from_triplets(3, 2, &[(0, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let run = CpuTopK::new(64).run_timed(&csr, &[1.0, 1.0], 2);
        assert_eq!(run.topk.indices(), vec![0, 2]);
        // The report is the participants actually used, not the request.
        assert_eq!(run.threads, 3);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn wrong_vector_length_panics() {
        let csr = Csr::from_triplets(1, 2, &[(0, 0, 0.5)]).unwrap();
        let _ = CpuTopK::new(1).run(&csr, &[1.0], 1);
    }

    #[test]
    fn backend_trait_matches_direct_calls() {
        let csr = matrix(4);
        let x = query_vector(256, 8);
        let backend: &dyn TopKBackend = &CpuTopK::new(2);
        assert_eq!(backend.name(), "cpu");
        let prepared = backend.prepare(&csr).unwrap();
        let out = backend.query(&prepared, &x, 25).unwrap();
        let direct = CpuTopK::new(2).run(&csr, x.as_slice(), 25);
        assert_eq!(out.topk, direct);
        assert!(out.perf.seconds > 0.0);
        assert_eq!(out.perf.nnz, csr.nnz() as u64);
        assert!(matches!(out.stats, BackendStats::Cpu { threads: 2 }));
    }

    #[test]
    fn backend_trait_validates_fallibly() {
        let csr = matrix(5);
        let backend: &dyn TopKBackend = &CpuTopK::new(2);
        let prepared = backend.prepare(&csr).unwrap();
        // Wrong length and zero K are errors through the trait, not
        // panics as in the raw API.
        assert!(backend.query(&prepared, &query_vector(99, 1), 5).is_err());
        assert!(backend.query(&prepared, &query_vector(256, 1), 0).is_err());
        let empty = Csr::from_triplets(0, 4, &[]);
        assert!(empty.is_ok_and(|m| backend.prepare(&m).is_err()));
    }
}
