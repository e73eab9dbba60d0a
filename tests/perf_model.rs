//! Invariants of the performance model: linearity, channel scaling, and
//! the paper's headline claims.

use tkspmv::hw::{DesignPoint, HbmConfig, ResourceModel, Roofline};
use tkspmv::{Accelerator, TopKBackend};
use tkspmv_fixed::Precision;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{Csr, PacketLayout};

fn matrix(rows: usize) -> Csr {
    SyntheticConfig {
        num_rows: rows,
        num_cols: 1024,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::Uniform,
        seed: 9,
    }
    .generate()
}

fn kernel_seconds(csr: &Csr, precision: Precision, cores: u32) -> f64 {
    let acc = Accelerator::builder()
        .precision(precision)
        .cores(cores)
        .k(8)
        .build()
        .unwrap();
    let m = acc.prepare(csr).unwrap();
    let x = query_vector(csr.num_cols(), 1);
    acc.query(&m, &x, 8).unwrap().perf.kernel_seconds
}

#[test]
fn kernel_time_linear_in_matrix_size() {
    let t1 = kernel_seconds(&matrix(2_000), Precision::Fixed20, 32);
    let t4 = kernel_seconds(&matrix(8_000), Precision::Fixed20, 32);
    let ratio = t4 / t1;
    assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn kernel_time_scales_inverse_with_cores() {
    // Figure 6a: performance scales linearly with channels.
    let csr = matrix(16_000);
    let t8 = kernel_seconds(&csr, Precision::Fixed20, 8);
    let t32 = kernel_seconds(&csr, Precision::Fixed20, 32);
    let speedup = t8 / t32;
    assert!(
        (3.0..5.0).contains(&speedup),
        "8 -> 32 cores speedup {speedup}"
    );
}

#[test]
fn reduced_precision_is_faster_by_packing_ratio() {
    // 20-bit packs B = 15 vs 32-bit's B = 11: kernel time ratio ~15/11.
    let csr = matrix(16_000);
    let t20 = kernel_seconds(&csr, Precision::Fixed20, 32);
    let t32 = kernel_seconds(&csr, Precision::Fixed32, 32);
    let ratio = t32 / t20;
    assert!((1.2..1.55).contains(&ratio), "packing speedup {ratio}");
}

#[test]
fn paper_headline_4ms_for_200m_nnz() {
    // §V-A: 10^7 rows, 2*10^8 nnz in < 4 ms. Model it directly from the
    // channel model (generating 2*10^8 nnz in a unit test is excessive).
    let hbm = HbmConfig::alveo_u280();
    let model = ResourceModel::alveo_u280();
    let design = DesignPoint::paper_design(Precision::Fixed20);
    let channel = hbm.channel_model(model.clock_hz(&design));
    let layout = PacketLayout::solve(1024, 20).unwrap();
    let packets_per_core = layout.packets_for(200_000_000).div_ceil(32);
    let seconds = channel.stream_seconds(packets_per_core);
    assert!(seconds < 0.004, "modelled {seconds} s");
    // And the throughput crosses the paper's 57 GNNZ/s within 2x.
    let gnnz = 200.0e6 / seconds / 1e9;
    assert!(gnnz > 50.0, "throughput {gnnz} GNNZ/s");
}

#[test]
fn fpga_beats_idealised_gpu_by_about_2x() {
    // The headline Figure 5 claim in model form: FPGA 20b attainable
    // (99 GNNZ/s) vs GPU F32 SpMV-only on the same matrix.
    let layout = PacketLayout::solve(1024, 20).unwrap();
    let fpga = Roofline::new(
        HbmConfig::alveo_u280().effective_bandwidth(32),
        layout.operational_intensity(),
    )
    .attainable_nnz_per_sec();
    // GPU: 549 GB/s peak, 8 bytes per nnz traffic, 45% efficiency.
    let gpu = 549.0e9 * 0.45 / 8.0;
    let ratio = fpga / gpu;
    assert!(
        (1.5..4.0).contains(&ratio),
        "FPGA/GPU ratio {ratio:.2} (paper: ~2x)"
    );
}

#[test]
fn achieved_bandwidth_tops_out_at_hbm_effective() {
    let csr = matrix(32_000);
    let acc = Accelerator::builder().cores(32).k(8).build().unwrap();
    let m = acc.prepare(&csr).unwrap();
    let x = query_vector(1024, 3);
    let out = acc.query(&m, &x, 8).unwrap();
    let bw = out.stats.perf_report().unwrap().achieved_bandwidth();
    let cap = HbmConfig::alveo_u280().effective_bandwidth(32);
    assert!(bw <= cap * 1.01, "achieved {bw} vs cap {cap}");
    assert!(bw > cap * 0.5, "achieved {bw} should be near cap {cap}");
}

#[test]
fn power_efficiency_vs_gpu_matches_paper_order() {
    // §V-B: 14.2x higher performance/watt than the idealised GPU.
    let model = ResourceModel::alveo_u280();
    let design = DesignPoint::paper_design(Precision::Fixed20);
    let layout = PacketLayout::solve(1024, 20).unwrap();
    let fpga_perf = Roofline::new(
        HbmConfig::alveo_u280().effective_bandwidth(32),
        layout.operational_intensity(),
    )
    .attainable_nnz_per_sec();
    let fpga_ppw = fpga_perf / model.power_w(&design);
    let gpu_perf = 549.0e9 * 0.45 / 8.0;
    let gpu_ppw = gpu_perf / 250.0; // paper: GPU draws 250 W
    let ratio = fpga_ppw / gpu_ppw;
    assert!(
        (8.0..25.0).contains(&ratio),
        "perf/W ratio {ratio:.1} (paper: 14.2x)"
    );
}
