//! Baseline Top-K SpMV implementations the paper compares against.
//!
//! - [`cpu`]: a multi-threaded exact CSR Top-K SpMV equivalent to
//!   `sparse_dot_topn` (the paper's CPU baseline, its ref. 1): row-parallel
//!   dot products, one bounded selection per row range
//!   ([`tkspmv::TopKResult::merge_pairs`]), the ranges merged at the end.
//! - [`gpu`]: the paper has no GPU Top-K SpMV to compare against, so it
//!   models one as cuSPARSE SpMV followed by a Thrust radix sort (plus an
//!   idealised "zero-cost sorting" variant). [`gpu::GpuTopK`] reproduces
//!   that: functional results computed bit-exactly in `f32`/software
//!   `f16` and cut to the exact `k` best, execution time — sort included
//!   — from an analytic bandwidth model ([`gpu::GpuModel`]) calibrated
//!   to the Tesla P100.
//!
//! Both baselines select through the workspace's one exact selector,
//! and both are queried only through [`tkspmv::TopKBackend`], the
//! workspace-wide execution interface, so experiments can race them
//! against the accelerator through one `Box<dyn TopKBackend>` roster
//! (with batched queries via `query_batch`).
//!
//! # Example
//!
//! ```
//! use tkspmv::backend::TopKBackend;
//! use tkspmv_baselines::cpu::CpuTopK;
//! use tkspmv_sparse::{Csr, DenseVector};
//!
//! let csr = Csr::from_triplets(3, 4, &[(0, 0, 0.9), (1, 1, 0.5), (2, 2, 0.7)])?;
//! let cpu = CpuTopK::new(2);
//! let prepared = cpu.prepare(&csr)?;
//! let ones = DenseVector::from_values(vec![1.0; 4]);
//! let result = cpu.query(&prepared, &ones, 2)?;
//! assert_eq!(result.topk.indices(), vec![0, 2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// A compute crate: no thread starts but the pool's (`tkspmv::fanout`).
#![cfg_attr(not(test), forbid(clippy::disallowed_methods))]

pub mod cpu;
pub mod gpu;
