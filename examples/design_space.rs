//! Design-space exploration: what fits on the device, how fast it runs,
//! and what it costs in power.
//!
//! Uses the calibrated resource/clock/power models to answer the
//! §IV-C question — "maximise c·B subject to placement" — across value
//! widths, core counts and embedding sizes, including cards smaller
//! than the U280 (the paper's future-work direction).
//!
//! Run with: `cargo run --release -p tkspmv_eval --example design_space`

use tkspmv::hw::{DesignPoint, HbmConfig, ResourceModel, Roofline, UramBudget};
use tkspmv_fixed::Precision;
use tkspmv_sparse::PacketLayout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ResourceModel::alveo_u280();
    let hbm = HbmConfig::alveo_u280();
    let uram = UramBudget::alveo_u280();

    println!("1) the paper's four designs on the U280 (M = 1024):\n");
    println!(
        "   design | B  | cores | clock MHz | power W | attainable GNNZ/s | max cores (fabric)"
    );
    for precision in Precision::FPGA_DESIGNS {
        let d = DesignPoint::paper_design(precision);
        let clock = model.clock_hz(&d);
        let layout = PacketLayout::solve(d.m, precision.value_bits())?;
        let roof = Roofline::new(
            hbm.effective_bandwidth(d.cores),
            layout.operational_intensity(),
        )
        .with_compute_ceiling(d.cores as f64 * d.b as f64 * clock);
        println!(
            "   {:>6} | {:>2} | {:>5} | {:>9.0} | {:>7.1} | {:>17.1} | {}",
            precision.label(),
            d.b,
            d.cores,
            clock / 1e6,
            model.power_w(&d),
            roof.attainable_nnz_per_sec() / 1e9,
            model.max_cores(&d),
        );
    }

    println!("\n2) scaling down: the same 20-bit design on smaller HBM cards:\n");
    println!("   channels | bandwidth GB/s | attainable GNNZ/s | power W");
    for channels in [4u32, 8, 16, 32] {
        let card = HbmConfig {
            num_channels: channels,
            ..hbm
        };
        let d = DesignPoint {
            cores: channels,
            ..DesignPoint::paper_design(Precision::Fixed20)
        };
        let layout = PacketLayout::solve(1024, 20)?;
        let roof = Roofline::new(
            card.effective_bandwidth(channels),
            layout.operational_intensity(),
        );
        println!(
            "   {channels:>8} | {:>14.1} | {:>17.1} | {:>7.1}",
            card.effective_bandwidth(channels) / 1e9,
            roof.attainable_nnz_per_sec() / 1e9,
            model.power_w(&d),
        );
    }
    println!("\n   (performance scales linearly with channels — Figure 6a's");
    println!("    'predictable performance on boards with fewer channels')");

    println!("\n3) URAM limits on the query-vector length (20-bit, B = 15):\n");
    println!("   cores | max M (entries)");
    for cores in [1u32, 8, 16, 32] {
        println!("   {cores:>5} | {}", uram.max_vector_len(cores, 15, 32));
    }

    println!("\n4) what k costs: clock vs per-core Top-K depth (§IV-B):\n");
    println!("   k  | clock MHz (20-bit design)");
    for k in [4u32, 8, 16, 32, 64] {
        let d = DesignPoint {
            k,
            ..DesignPoint::paper_design(Precision::Fixed20)
        };
        println!("   {k:>2} | {:.0}", model.clock_hz(&d) / 1e6);
    }
    println!("\n   k = 8 is the sweet spot: deeper scratchpads lengthen the");
    println!("   argmin RAW chain and cost clock; shallower ones cost accuracy.");
    Ok(())
}
