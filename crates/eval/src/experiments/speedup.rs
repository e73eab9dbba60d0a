//! Figure 5: execution-time speedup of GPU and FPGA designs over the
//! CPU baseline, per dataset group (K = 100).
//!
//! The CPU baseline is *measured* on the host (this reproduction's
//! stand-in for the paper's dual Xeon 6248 + `sparse_dot_topn`); GPU and
//! FPGA times come from their calibrated models, evaluated on the same
//! matrix. All engines run through the [`tkspmv::TopKBackend`] trait —
//! the experiment never names a concrete architecture; it races whatever
//! `backends::figure5_roster` returns against the measured CPU
//! denominator, so the speedup ratios are directly comparable and
//! scale-stable.
//!
//! Trait uniformity has one deliberate cost: every backend *executes*
//! its query functionally (the GPU model really computes and sorts its
//! output vector) even though only the modelled timings feed the table.
//! That is the point — the experiment exercises exactly the code path a
//! deployment would run, rather than a hand-wired analytic shortcut —
//! and at the default `scale_divisor` it is cheap; for full-scale runs
//! the zero-cost-sort columns are already derived from the full GPU runs
//! instead of re-executing them.

use tkspmv_sparse::gen::query_vector;

use crate::backends;
use crate::datasets::{group_representatives, DatasetGroup};
use crate::report::{fnum, fspeedup, Table};
use crate::{EvalError, ExpConfig};

/// The K used by Figure 5.
const FIGURE5_K: usize = 100;

/// One modelled architecture's result on one dataset group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArchSpeedup {
    /// Backend name (see [`crate::backends`] for the roster).
    pub(crate) backend: String,
    /// Kernel seconds billed to this architecture.
    pub(crate) seconds: f64,
    /// Speedup over the measured CPU baseline.
    pub(crate) speedup: f64,
}

/// Speedups of every architecture for one dataset group.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Dataset group (figure panel).
    pub group: DatasetGroup,
    /// Matrix rows actually processed.
    pub(crate) rows: usize,
    /// Non-zeros processed.
    pub(crate) nnz: u64,
    /// Measured CPU baseline seconds (best of `queries` runs).
    pub(crate) cpu_seconds: f64,
    /// One entry per roster backend in roster order, plus a derived
    /// `…-spmv` entry (zero-cost-sort billing) immediately before each
    /// full GPU entry.
    pub(crate) arch: Vec<ArchSpeedup>,
}

impl SpeedupRow {
    /// Speedup of the named backend.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingBackend`] naming the roster this row holds
    /// when `backend` is not in it.
    pub fn speedup_of(&self, backend: &str) -> Result<f64, EvalError> {
        self.arch
            .iter()
            .find(|a| a.backend == backend)
            .map(|a| a.speedup)
            .ok_or_else(|| {
                EvalError::missing_backend(
                    backend,
                    self.arch.iter().map(|a| a.backend.clone()).collect(),
                )
            })
    }

    /// The FPGA 20-bit design's throughput in nnz/second.
    ///
    /// # Errors
    ///
    /// [`EvalError::MissingBackend`] if `fpga-20b` is not in the roster.
    pub fn fpga20_nnz_per_sec(&self) -> Result<f64, EvalError> {
        let speedup = self.speedup_of("fpga-20b")?;
        Ok(self.nnz as f64 / (self.cpu_seconds / speedup))
    }
}

/// Runs the Figure 5 experiment over the four dataset groups, racing
/// the roster of modelled backends against the measured CPU baseline.
///
/// # Errors
///
/// [`EvalError::Engine`] if any backend fails to prepare a matrix or
/// answer a query.
pub fn run(config: &ExpConfig) -> Result<Vec<SpeedupRow>, EvalError> {
    let cpu = backends::cpu();
    let roster = backends::figure5_roster();
    let mut rows = Vec::new();
    for spec in group_representatives() {
        let csr = spec.generate(config.scale_divisor);

        // CPU: wall-clock, best of `queries` runs (steady-state timing).
        let prepared = cpu.prepare(&csr)?;
        let mut cpu_seconds = f64::INFINITY;
        for q in 0..config.queries.max(1) {
            let x = query_vector(csr.num_cols(), config.seed + q as u64);
            let out = cpu.query(&prepared, &x, FIGURE5_K)?;
            cpu_seconds = cpu_seconds.min(out.perf.seconds);
        }

        // Every modelled backend: same matrix, same query, one code
        // path. The roster lists same-family backends adjacently, so one
        // prepared matrix is held at a time and reused while the family
        // matches (both GPU precisions share one prepared CSR instead of
        // cloning the collection per variant) — peak memory stays at a
        // single prepared encoding, as with hand-wired per-engine code.
        let x = query_vector(csr.num_cols(), config.seed);
        let mut arch = Vec::new();
        let mut current: Option<(String, tkspmv::PreparedMatrix)> = None;
        for backend in &roster {
            let family = backend.family();
            if current.as_ref().is_none_or(|(f, _)| *f != family) {
                current = Some((family.clone(), backend.prepare(&csr)?));
            }
            #[expect(
                clippy::expect_used,
                reason = "invariant: filled by the branch directly above"
            )]
            let prepared = &current.as_ref().expect("just prepared").1;
            let out = backend.query(prepared, &x, FIGURE5_K)?;
            // GPU runs also yield the paper's idealised zero-cost-sort
            // column for free: same functional result, SpMV-only billing
            // (re-running a zero-cost-sort backend would recompute the
            // identical ranking just to report a different time).
            if let Some((spmv_seconds, _, false)) = out.stats.gpu_timings() {
                arch.push(ArchSpeedup {
                    backend: format!("{}-spmv", backend.name()),
                    seconds: spmv_seconds,
                    speedup: cpu_seconds / spmv_seconds,
                });
            }
            arch.push(ArchSpeedup {
                backend: backend.name(),
                seconds: out.perf.kernel_seconds,
                speedup: cpu_seconds / out.perf.kernel_seconds,
            });
        }

        rows.push(SpeedupRow {
            group: spec.group,
            rows: csr.num_rows(),
            nnz: csr.nnz() as u64,
            cpu_seconds,
            arch,
        });
    }
    Ok(rows)
}

/// Renders the Figure 5 panels as a table (one column per backend).
pub fn to_table(rows: &[SpeedupRow]) -> Table {
    let mut header = vec!["Dataset".to_string(), "CPU baseline (ms)".to_string()];
    if let Some(first) = rows.first() {
        header.extend(first.arch.iter().map(|a| a.backend.clone()));
    }
    let mut t = Table::new(header);
    for r in rows {
        let mut cells = vec![r.group.label().to_string(), fnum(r.cpu_seconds * 1e3, 2)];
        cells.extend(r.arch.iter().map(|a| fspeedup(a.speedup)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Result<Vec<SpeedupRow>, EvalError> {
        run(&ExpConfig::smoke_test())
    }

    #[test]
    fn figure5_shape_fpga_beats_idealised_gpu() -> Result<(), EvalError> {
        // The paper's headline: FPGA 20b is ~2x the GPU F32 SpMV-only
        // performance. Assert who-wins, not the exact factor.
        for r in rows()? {
            assert!(
                r.speedup_of("fpga-20b")? > r.speedup_of("gpu-f32-spmv")?,
                "{:?}: FPGA 20b {:.1}x vs GPU {:.1}x",
                r.group,
                r.speedup_of("fpga-20b")?,
                r.speedup_of("gpu-f32-spmv")?
            );
        }
        Ok(())
    }

    #[test]
    fn figure5_shape_precision_ordering() -> Result<(), EvalError> {
        // Reduced precision packs more nnz per packet -> faster.
        for r in rows()? {
            assert!(
                r.speedup_of("fpga-20b")? >= r.speedup_of("fpga-25b")?,
                "{:?}: 20b >= 25b",
                r.group
            );
            assert!(
                r.speedup_of("fpga-25b")? >= r.speedup_of("fpga-32b")?,
                "{:?}: 25b >= 32b",
                r.group
            );
            // Fixed 32b beats float (higher clock).
            assert!(
                r.speedup_of("fpga-32b")? >= r.speedup_of("fpga-f32")?,
                "{:?}: 32b >= F32",
                r.group
            );
        }
        Ok(())
    }

    #[test]
    fn figure5_shape_sorting_hurts_gpu() -> Result<(), EvalError> {
        for r in rows()? {
            assert!(r.speedup_of("gpu-f32")? < r.speedup_of("gpu-f32-spmv")?);
            assert!(r.speedup_of("gpu-f16")? < r.speedup_of("gpu-f16-spmv")?);
        }
        Ok(())
    }

    #[test]
    fn missing_backend_is_a_typed_error() -> Result<(), EvalError> {
        let rows = rows()?;
        let err = rows[0].speedup_of("tpu-v9").unwrap_err();
        match &err {
            EvalError::MissingBackend { backend, roster } => {
                assert_eq!(backend, "tpu-v9");
                assert!(roster.iter().any(|b| b == "fpga-20b"), "{roster:?}");
            }
            other => panic!("expected MissingBackend, got {other:?}"),
        }
        assert!(err.to_string().contains("tpu-v9"));
        Ok(())
    }

    #[test]
    fn table_renders_four_panels_with_roster_columns() -> Result<(), EvalError> {
        let rows = rows()?;
        let t = to_table(&rows);
        assert_eq!(t.len(), 4);
        assert!(t.to_markdown().contains("fpga-20b"));
        // Throughput helper stays usable for the binary's summary line.
        assert!(rows[0].fpga20_nnz_per_sec()? > 0.0);
        Ok(())
    }
}
