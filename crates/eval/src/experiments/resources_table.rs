//! Table II: resource usage, clock and power of the four designs.

use tkspmv::hw::{DesignPoint, ResourceModel, U280_RESOURCES};
use tkspmv_fixed::Precision;

use crate::report::{fnum, Table};

/// One modelled Table II row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRow {
    /// The design's precision.
    precision: Precision,
    /// Cores placed.
    cores: u32,
    /// Utilisation fractions: LUT, FF, BRAM, URAM, DSP.
    utilization: [f64; 5],
    /// Modelled clock, MHz.
    clock_mhz: f64,
    /// Modelled power, W.
    power_w: f64,
}

/// Regenerates Table II from the calibrated resource model.
pub fn run() -> Vec<ResourceRow> {
    let model = ResourceModel::alveo_u280();
    Precision::FPGA_DESIGNS
        .iter()
        .map(|&p| {
            let d = DesignPoint::paper_design(p);
            ResourceRow {
                precision: p,
                cores: d.cores,
                utilization: model.utilization(&d),
                clock_mhz: model.clock_hz(&d) / 1e6,
                power_w: model.power_w(&d),
            }
        })
        .collect()
}

/// Renders rows in Table II's layout (percent utilisation).
pub fn to_table(rows: &[ResourceRow]) -> Table {
    let mut t = Table::new(vec![
        "Bit-width",
        "Cores",
        "LUT",
        "FF",
        "BRAM",
        "URAM",
        "DSP",
        "Clock (MHz)",
        "Power (W)",
    ]);
    for r in rows {
        t.row(vec![
            r.precision.label().to_string(),
            r.cores.to_string(),
            pct(r.utilization[0]),
            pct(r.utilization[1]),
            pct(r.utilization[2]),
            pct(r.utilization[3]),
            pct(r.utilization[4]),
            fnum(r.clock_mhz, 0),
            fnum(r.power_w, 0),
        ]);
    }
    t.row(vec![
        "Available".to_string(),
        String::new(),
        U280_RESOURCES.lut.to_string(),
        U280_RESOURCES.ff.to_string(),
        U280_RESOURCES.bram.to_string(),
        U280_RESOURCES.uram.to_string(),
        U280_RESOURCES.dsp.to_string(),
        String::new(),
        String::new(),
    ]);
    t
}

fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Table II's published rows: (label, [LUT, FF, BRAM, URAM, DSP] %,
/// clock MHz, power W).
pub fn paper_reference() -> [(&'static str, [f64; 5], f64, f64); 4] {
    [
        ("20b", [0.38, 0.35, 0.20, 0.33, 0.07], 253.0, 34.0),
        ("25b", [0.38, 0.36, 0.20, 0.30, 0.11], 240.0, 35.0),
        ("32b", [0.35, 0.33, 0.20, 0.27, 0.17], 249.0, 35.0),
        ("F32", [0.44, 0.37, 0.20, 0.26, 0.19], 204.0, 45.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_designs_at_32_cores() {
        let rows = run();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.cores == 32));
    }

    #[test]
    fn tracks_paper_reference() {
        for (row, (label, util, clock, power)) in run().iter().zip(paper_reference()) {
            assert_eq!(row.precision.label(), label);
            for (got, want) in row.utilization.iter().zip(&util) {
                assert!((got - want).abs() < 0.09, "{label}: {got:.2} vs {want}");
            }
            assert!((row.clock_mhz - clock).abs() < 15.0, "{label} clock");
            assert!((row.power_w - power).abs() < 3.0, "{label} power");
        }
    }

    #[test]
    fn renders_with_available_row() {
        let t = to_table(&run());
        assert_eq!(t.len(), 5);
        let md = t.to_markdown();
        assert!(md.contains("Available"));
        assert!(md.contains("1097419"));
    }
}
