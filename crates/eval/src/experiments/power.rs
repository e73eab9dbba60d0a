//! §V-B: power efficiency — performance per watt of CPU, GPU and the
//! FPGA designs.
//!
//! The paper measures 35 W for the FPGA board (+40 W host), ~300 W for
//! the dual-Xeon CPU, 250 W (+40 W host) for the GPU, and reports a
//! 400× performance/W advantage over the CPU and 14.2× over the
//! idealised GPU (7.7× when both sides carry an equal host). We use the
//! paper's device power figures (a wall-meter cannot be reproduced in
//! software) combined with the measured/modelled throughputs of the
//! Figure 5 experiment.

use tkspmv::hw::{DesignPoint, ResourceModel};
use tkspmv_fixed::Precision;

use crate::experiments::speedup::{self, SpeedupRow};
use crate::report::{fnum, Table};
use crate::{EvalError, ExpConfig};

/// CPU package power under load, W (paper §V-B).
const CPU_W: f64 = 300.0;
/// GPU board power under load, W (paper §V-B).
const GPU_W: f64 = 250.0;

/// Performance/W of one architecture on one dataset group.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Architecture label.
    arch: String,
    /// Throughput in GNNZ/s.
    gnnz_per_sec: f64,
    /// Device power, W.
    device_w: f64,
    /// Device-level performance per watt, MNNZ/s/W.
    mnnz_per_watt: f64,
    /// Ratio vs the idealised GPU (device-level).
    vs_gpu: f64,
}

/// Derives the §V-B comparison from a Figure 5 speedup row.
///
/// # Errors
///
/// [`EvalError::MissingBackend`] if the row's roster lacks a backend
/// this table derives from (the GPU F32 variants and every FPGA
/// design).
fn run_from_speedup(row: &SpeedupRow) -> Result<Vec<PowerRow>, EvalError> {
    let model = ResourceModel::alveo_u280();
    let nnz = row.nnz as f64;
    // Throughputs implied by the shared CPU baseline time.
    let thr = |speedup: f64| nnz / (row.cpu_seconds / speedup) / 1e9;
    let mut rows = vec![
        ("CPU (2x Xeon 6248)".to_string(), thr(1.0), CPU_W),
        (
            "GPU F32, zero-cost sort".to_string(),
            thr(row.speedup_of("gpu-f32-spmv")?),
            GPU_W,
        ),
        (
            "GPU F32, with sort".to_string(),
            thr(row.speedup_of("gpu-f32")?),
            GPU_W,
        ),
    ];
    for precision in Precision::FPGA_DESIGNS {
        let d = DesignPoint::paper_design(precision);
        let backend = format!("fpga-{}", precision.label().to_ascii_lowercase());
        rows.push((
            format!("FPGA {}", precision.label()),
            thr(row.speedup_of(&backend)?),
            model.power_w(&d),
        ));
    }
    let gpu_ppw = rows[1].1 * 1e3 / rows[1].2; // MNNZ/s per W
    Ok(rows
        .into_iter()
        .map(|(arch, gnnz, device_w)| {
            let ppw = gnnz * 1e3 / device_w;
            PowerRow {
                arch,
                gnnz_per_sec: gnnz,
                device_w,
                mnnz_per_watt: ppw,
                vs_gpu: ppw / gpu_ppw,
            }
        })
        .collect())
}

/// Runs the full §V-B experiment on the `N = 10^7` panel.
///
/// # Errors
///
/// [`EvalError::MissingBackend`] if the Figure 5 roster lacks a backend
/// this table derives from (the GPU F32 variants and every FPGA
/// design), [`EvalError::Engine`] if the Figure 5 experiment fails.
pub fn run(config: &ExpConfig) -> Result<Vec<PowerRow>, EvalError> {
    let speedups = speedup::run(config)?;
    run_from_speedup(&speedups[1])
}

/// Renders the power-efficiency table.
pub fn to_table(rows: &[PowerRow]) -> Table {
    let mut t = Table::new(vec![
        "Architecture",
        "Throughput (GNNZ/s)",
        "Device power (W)",
        "MNNZ/s per W",
        "vs idealised GPU",
    ]);
    for r in rows {
        t.row(vec![
            r.arch.clone(),
            fnum(r.gnnz_per_sec, 2),
            fnum(r.device_w, 0),
            fnum(r.mnnz_per_watt, 1),
            format!("{:.1}x", r.vs_gpu),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetGroup;

    fn synthetic_row() -> SpeedupRow {
        // A hand-built row with the paper's N = 10^7 panel speedups so
        // the power math is tested independently of host CPU speed.
        let cpu_seconds = 0.509;
        let arch = [
            ("gpu-f32-spmv", 51.0),
            ("gpu-f32", 15.0),
            ("gpu-f16-spmv", 58.0),
            ("gpu-f16", 16.0),
            ("fpga-20b", 106.0),
            ("fpga-25b", 88.0),
            ("fpga-32b", 89.0),
            ("fpga-f32", 43.0),
        ]
        .into_iter()
        .map(
            |(backend, speedup)| crate::experiments::speedup::ArchSpeedup {
                backend: backend.to_string(),
                seconds: cpu_seconds / speedup,
                speedup,
            },
        )
        .collect();
        SpeedupRow {
            group: DatasetGroup::Synthetic1e7,
            rows: 10_000_000,
            nnz: 300_000_000,
            cpu_seconds,
            arch,
        }
    }

    #[test]
    fn fpga_beats_gpu_by_order_of_magnitude_per_watt() -> Result<(), crate::EvalError> {
        // Paper: 14.2x higher performance/W than the idealised GPU.
        let rows = run_from_speedup(&synthetic_row())?;
        let fpga20 = rows.iter().find(|r| r.arch == "FPGA 20b").unwrap();
        assert!(
            (10.0..20.0).contains(&fpga20.vs_gpu),
            "FPGA/GPU perf/W = {:.1} (paper: 14.2x)",
            fpga20.vs_gpu
        );
        Ok(())
    }

    #[test]
    fn fpga_beats_cpu_by_hundreds_per_watt() -> Result<(), crate::EvalError> {
        // Paper: 400x higher performance/W than the CPU.
        let rows = run_from_speedup(&synthetic_row())?;
        let cpu = rows.iter().find(|r| r.arch.starts_with("CPU")).unwrap();
        let fpga20 = rows.iter().find(|r| r.arch == "FPGA 20b").unwrap();
        let ratio = fpga20.mnnz_per_watt / cpu.mnnz_per_watt;
        assert!(
            (300.0..1200.0).contains(&ratio),
            "FPGA/CPU perf/W = {ratio:.0}"
        );
        Ok(())
    }

    #[test]
    fn fixed_point_designs_are_most_efficient() -> Result<(), crate::EvalError> {
        let rows = run_from_speedup(&synthetic_row())?;
        let get = |name: &str| rows.iter().find(|r| r.arch == name).unwrap().mnnz_per_watt;
        assert!(get("FPGA 20b") > get("FPGA F32"));
        assert!(get("FPGA 20b") > get("GPU F32, zero-cost sort"));
        Ok(())
    }

    #[test]
    fn incomplete_roster_is_a_typed_error_not_a_panic() {
        let mut row = synthetic_row();
        row.arch.retain(|a| a.backend != "fpga-25b");
        let err = run_from_speedup(&row).unwrap_err();
        assert!(
            matches!(&err, crate::EvalError::MissingBackend { backend, .. } if backend == "fpga-25b"),
            "{err:?}"
        );
    }

    #[test]
    fn end_to_end_run_produces_all_rows() -> Result<(), crate::EvalError> {
        let rows = run(&ExpConfig::smoke_test())?;
        assert_eq!(rows.len(), 7);
        assert!(!to_table(&rows).is_empty());
        // Device powers come from the model, in Table II's range.
        for r in rows.iter().filter(|r| r.arch.starts_with("FPGA")) {
            assert!(
                (30.0..50.0).contains(&r.device_w),
                "{}: {}",
                r.arch,
                r.device_w
            );
        }
        Ok(())
    }
}
