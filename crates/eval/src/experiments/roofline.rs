//! Figure 6: roofline analysis of the FPGA design vs CPU and GPU.

use tkspmv::hw::{HbmConfig, Roofline, RooflinePoint};
use tkspmv::{Accelerator, TopKBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision};
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::{PacketLayout, PACKET_BYTES};

use crate::datasets::group_representatives;
use crate::report::{fnum, Table};
use crate::ExpConfig;

/// Figure 6a: attainable performance for each core count at each packet
/// capacity `B` (B = 5 is naive COO, B = 15 is BS-CSR at 20 bits).
pub fn bandwidth_series() -> Vec<(u32, Vec<(u32, f64)>)> {
    let hbm = HbmConfig::alveo_u280();
    [1u32, 8, 16, 32]
        .iter()
        .map(|&cores| {
            let series = (5u32..=15)
                .map(|b| {
                    let oi = b as f64 / PACKET_BYTES as f64;
                    let roof = Roofline::new(hbm.effective_bandwidth(cores), oi);
                    (b, roof.attainable_nnz_per_sec())
                })
                .collect();
            (cores, series)
        })
        .collect()
}

/// Figure 6b: architecture points (measured/modelled performance at
/// their operational intensity).
pub fn architecture_points(config: &ExpConfig) -> Vec<RooflinePoint> {
    let spec = group_representatives()[1]; // N = 10^7 panel
    let csr = spec.generate(config.scale_divisor);
    let nnz = csr.nnz() as u64;
    let rows = csr.num_rows() as u64;
    let x = query_vector(csr.num_cols(), config.seed);
    let hbm = HbmConfig::alveo_u280();
    let mut points = Vec::new();

    // CPU: measured nnz/s; CSR traffic = 8 bytes per nnz + row
    // pointers, OI ~ 1/8.5 nnz/byte; bandwidth roof from a typical
    // 2-socket server (~200 GB/s).
    let cpu = CpuTopK::with_all_cores();
    // invariant: experiment driver; a failed query invalidates the run, so fail loudly
    let cpu_run = cpu
        .prepare(&csr)
        .and_then(|m| cpu.query(&m, &x, 100))
        .expect("CPU query runs");
    let cpu_oi = nnz as f64 / (nnz * 8 + rows * 8) as f64;
    points.push(
        Roofline::new(200.0e9, cpu_oi).point("CPU Top-K SpMV", nnz as f64 / cpu_run.perf.seconds),
    );

    // GPU F32 / F16: modelled.
    let gpu = GpuModel::tesla_p100();
    for precision in [GpuPrecision::F32, GpuPrecision::F16] {
        let t = gpu.spmv_seconds(nnz, rows, precision);
        let oi = nnz as f64 / gpu.spmv_traffic_bytes(nnz, rows, precision) as f64;
        let roof = Roofline::new(gpu.peak_bandwidth, oi);
        points.push(roof.point(format!("GPU SpMV, {}", precision.label()), nnz as f64 / t));
    }

    // FPGA 32 cores at 32b and 20b: modelled kernel time on the real
    // packet stream.
    for precision in [Precision::Fixed32, Precision::Fixed20] {
        let acc = Accelerator::builder()
            .precision(precision)
            .cores(32)
            .k(8)
            .build()
            // invariant: the fixed paper configuration always builds
            .expect("paper design builds");
        // invariant: experiment driver; a failed load invalidates the run, so fail loudly
        let m = acc.prepare(&csr).expect("matrix loads");
        // invariant: experiment driver; a failed query invalidates the run, so fail loudly
        let out = acc.query(&m, &x, 100).expect("query runs");
        // invariant: an accelerator result always carries its perf model
        let report = out.stats.perf_report().expect("FPGA perf report");
        let layout =
            // invariant: the paper grid stays within the layout solver's field widths
            PacketLayout::solve(csr.num_cols(), precision.value_bits()).expect("layout fits");
        let roof = Roofline::new(hbm.effective_bandwidth(32), layout.operational_intensity());
        points.push(RooflinePoint {
            label: format!("FPGA, 32C {}", precision.label()),
            operational_intensity: report.operational_intensity(),
            performance_nnz_per_sec: nnz as f64 / out.perf.kernel_seconds,
            attainable_nnz_per_sec: roof.attainable_nnz_per_sec(),
        });
    }
    points
}

/// Renders Figure 6a as a table (rows = B, columns = core counts).
pub fn series_table(series: &[(u32, Vec<(u32, f64)>)]) -> Table {
    let mut header = vec!["B (nnz/packet)".to_string()];
    header.extend(series.iter().map(|(c, _)| format!("{c} cores (GNNZ/s)")));
    let mut t = Table::new(header);
    let bs: Vec<u32> = series[0].1.iter().map(|&(b, _)| b).collect();
    for (i, b) in bs.iter().enumerate() {
        let mut row = vec![b.to_string()];
        for (_, points) in series {
            row.push(fnum(points[i].1 / 1e9, 1));
        }
        t.row(row);
    }
    t
}

/// Renders Figure 6b's points as a table.
pub fn points_table(points: &[RooflinePoint]) -> Table {
    let mut t = Table::new(vec![
        "Architecture",
        "OI (nnz/byte)",
        "Performance (GNNZ/s)",
        "Roofline bound (GNNZ/s)",
        "Efficiency",
    ]);
    for p in points {
        t.row(vec![
            p.label.clone(),
            fnum(p.operational_intensity, 3),
            fnum(p.performance_nnz_per_sec / 1e9, 2),
            fnum(p.attainable_nnz_per_sec / 1e9, 2),
            format!("{:.0}%", p.efficiency() * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6a_linear_scaling() {
        let series = bandwidth_series();
        assert_eq!(series.len(), 4);
        // At any B, 32 cores = 32x the 1-core bound.
        let one_core = &series[0].1;
        let all_cores = &series[3].1;
        for (a, b) in one_core.iter().zip(all_cores) {
            assert!((b.1 / a.1 - 32.0).abs() < 1e-9);
        }
        // B = 15 vs B = 5 is the 3x BS-CSR gain.
        let b5 = all_cores.iter().find(|&&(b, _)| b == 5).unwrap().1;
        let b15 = all_cores.iter().find(|&&(b, _)| b == 15).unwrap().1;
        assert!((b15 / b5 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn figure6b_fpga_has_best_intensity_and_performance() {
        let points = architecture_points(&ExpConfig::smoke_test());
        let fpga20 = points
            .iter()
            .find(|p| p.label.contains("20b"))
            .expect("FPGA 20b point");
        for p in &points {
            if !p.label.contains("FPGA") {
                assert!(
                    fpga20.operational_intensity > p.operational_intensity,
                    "FPGA OI {:.3} must beat {} ({:.3})",
                    fpga20.operational_intensity,
                    p.label,
                    p.operational_intensity
                );
                assert!(
                    fpga20.performance_nnz_per_sec > p.performance_nnz_per_sec,
                    "FPGA perf must beat {}",
                    p.label
                );
            }
        }
    }

    #[test]
    fn fpga_runs_near_its_roofline() {
        let points = architecture_points(&ExpConfig::smoke_test());
        for p in points.iter().filter(|p| p.label.contains("FPGA")) {
            assert!(p.efficiency() > 0.5, "{}: {:.2}", p.label, p.efficiency());
            assert!(p.efficiency() <= 1.0 + 1e-9, "{}", p.label);
        }
    }

    #[test]
    fn tables_render() {
        let s = bandwidth_series();
        assert_eq!(series_table(&s).len(), 11); // B = 5..=15
        let pts = architecture_points(&ExpConfig::smoke_test());
        assert_eq!(points_table(&pts).len(), pts.len());
    }
}
