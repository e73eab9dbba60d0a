//! Standard [`TopKBackend`] rosters the experiments enumerate.
//!
//! Every figure of the paper compares some subset of the same engines.
//! This module is the single place those engines are constructed, so an
//! experiment never hand-wires a per-engine code path: it iterates a
//! `Vec<Box<dyn TopKBackend>>` and treats every architecture uniformly.
//! Adding a new engine to the evaluation (a sharded accelerator, a
//! different card) means one `impl TopKBackend` plus one constructor
//! here.

use tkspmv::backend::TopKBackend;
use tkspmv::Accelerator;
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::Precision;

/// The paper's FPGA design (32 cores, k = 8) at a given precision.
///
/// # Panics
///
/// Panics only if the paper design itself stopped building — a bug.
pub fn fpga(precision: Precision) -> Box<dyn TopKBackend> {
    fpga_with_rows_per_packet(precision, None)
}

/// The paper's FPGA design with an explicit `r` row-completion limit
/// (the §IV-B ablation knob); `None` keeps the hardware default.
///
/// # Panics
///
/// Panics if the design does not build (zero `r`, for example).
#[expect(
    clippy::expect_used,
    reason = "invariant: the fixed paper-point configuration always validates"
)]
pub(crate) fn fpga_with_rows_per_packet(
    precision: Precision,
    rows_per_packet: Option<u32>,
) -> Box<dyn TopKBackend> {
    let mut builder = Accelerator::builder().precision(precision).cores(32).k(8);
    if let Some(r) = rows_per_packet {
        builder = builder.rows_per_packet(r);
    }
    Box::new(builder.build().expect("paper design builds"))
}

/// The measured CPU baseline using all host cores.
pub fn cpu() -> Box<dyn TopKBackend> {
    Box::new(CpuTopK::with_all_cores())
}

/// The modelled Tesla P100 baseline (SpMV + full Thrust sort).
pub fn gpu(precision: GpuPrecision) -> Box<dyn TopKBackend> {
    Box::new(GpuTopK::new(GpuModel::tesla_p100(), precision))
}

/// The modelled architectures of Figure 5 (the measured CPU baseline is
/// the denominator, not a member).
///
/// The GPU *zero-cost sort* columns are not separate roster entries:
/// they would recompute the identical functional result just to bill it
/// differently, and `BackendStats::Gpu` already reports both component
/// times, so the speedup experiment derives the idealised `-spmv`
/// columns from the full runs.
pub(crate) fn figure5_roster() -> Vec<Box<dyn TopKBackend>> {
    vec![
        gpu(GpuPrecision::F32),
        gpu(GpuPrecision::F16),
        fpga(Precision::Fixed20),
        fpga(Precision::Fixed25),
        fpga(Precision::Fixed32),
        fpga(Precision::Float32),
    ]
}

/// The four architectures whose ranking quality Figure 7 scores.
pub(crate) fn figure7_roster() -> Vec<Box<dyn TopKBackend>> {
    vec![
        fpga(Precision::Fixed20),
        fpga(Precision::Fixed32),
        fpga(Precision::Float32),
        gpu(GpuPrecision::F16),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};

    #[test]
    fn roster_names_are_stable_and_unique() {
        let names: Vec<String> = figure5_roster().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            ["gpu-f32", "gpu-f16", "fpga-20b", "fpga-25b", "fpga-32b", "fpga-f32",]
        );
        // The speedup experiment names its zero-cost-sort columns
        // `<gpu name>-spmv`, as the idealised backend names itself.
        for (precision, name) in [
            (GpuPrecision::F32, "gpu-f32"),
            (GpuPrecision::F16, "gpu-f16"),
        ] {
            let ideal = GpuTopK::new(GpuModel::tesla_p100(), precision).with_zero_cost_sort();
            assert_eq!(ideal.name(), format!("{name}-spmv"));
        }
    }

    #[test]
    fn every_roster_backend_answers_queries() {
        let csr = SyntheticConfig {
            num_rows: 500,
            num_cols: 128,
            avg_nnz_per_row: 10,
            distribution: NnzDistribution::Uniform,
            seed: 3,
        }
        .generate();
        let x = query_vector(128, 1);
        let mut roster = figure5_roster();
        roster.push(cpu());
        for backend in &roster {
            let prepared = backend.prepare(&csr).expect("prepare");
            let out = backend.query(&prepared, &x, 10).expect("query");
            assert_eq!(out.topk.len(), 10, "{}", backend.name());
            assert!(out.perf.kernel_seconds > 0.0, "{}", backend.name());
        }
    }
}
