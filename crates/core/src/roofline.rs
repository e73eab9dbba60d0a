//! Roofline model (§V-C, Figure 6).
//!
//! The paper follows the CAD-assisted roofline methodology of its [4]:
//! performance in non-zeros/second is bounded by
//! `bandwidth × operational_intensity`, where operational intensity is
//! non-zeros per byte of HBM traffic — exactly `B / PACKET_BYTES` for
//! a format that packs `B` non-zeros in one 512-bit packet. BS-CSR's
//! only job is to raise that intensity (B = 15 vs naive COO's B = 5),
//! which under a fixed bandwidth roof translates 1:1 into performance.

/// A bandwidth roofline for streaming Top-K SpMV.
///
/// # Example
///
/// ```
/// use tkspmv::hw::Roofline;
/// use tkspmv_sparse::PACKET_BYTES;
///
/// // 32 channels x 13.2 GB/s, BS-CSR B = 15.
/// let r = Roofline::new(422.4e9, 15.0 / PACKET_BYTES as f64);
/// // Attainable: 99 GNNZ/s (the paper measures 57 GNNZ/s end to end).
/// assert!(r.attainable_nnz_per_sec() > 9.0e10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Memory bandwidth roof in bytes/second.
    bandwidth: f64,
    /// Operational intensity in non-zeros per byte.
    operational_intensity: f64,
    /// Optional compute ceiling in non-zeros/second (`cores × B × clock`
    /// for the FPGA; effectively never binding for this workload).
    compute_ceiling: Option<f64>,
}

impl Roofline {
    /// Creates a bandwidth-only roofline.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn new(bandwidth: f64, operational_intensity: f64) -> Self {
        assert!(bandwidth > 0.0 && operational_intensity > 0.0);
        Self {
            bandwidth,
            operational_intensity,
            compute_ceiling: None,
        }
    }

    /// Adds a compute ceiling (`cores × B × clock_hz` non-zeros/second).
    #[must_use]
    pub fn with_compute_ceiling(mut self, ceiling: f64) -> Self {
        assert!(ceiling > 0.0);
        self.compute_ceiling = Some(ceiling);
        self
    }

    /// Attainable performance in non-zeros/second:
    /// `min(bandwidth × OI, ceiling)`.
    pub fn attainable_nnz_per_sec(&self) -> f64 {
        let bw_bound = self.bandwidth * self.operational_intensity;
        match self.compute_ceiling {
            Some(c) => bw_bound.min(c),
            None => bw_bound,
        }
    }

    /// Whether the design is memory-bound (bandwidth roof below compute
    /// ceiling). Streaming SpMV always is.
    #[cfg(test)]
    fn is_memory_bound(&self) -> bool {
        match self.compute_ceiling {
            Some(c) => self.bandwidth * self.operational_intensity <= c,
            None => true,
        }
    }

    /// A labelled point for plotting Figure 6.
    pub fn point(&self, label: impl Into<String>, achieved_nnz_per_sec: f64) -> RooflinePoint {
        RooflinePoint {
            label: label.into(),
            operational_intensity: self.operational_intensity,
            performance_nnz_per_sec: achieved_nnz_per_sec,
            attainable_nnz_per_sec: self.attainable_nnz_per_sec(),
        }
    }
}

/// One architecture point in the Figure 6 scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Series label (e.g. `"FPGA, 32C 20b"`).
    pub label: String,
    /// Operational intensity in non-zeros/byte.
    pub operational_intensity: f64,
    /// Measured performance in non-zeros/second.
    pub performance_nnz_per_sec: f64,
    /// The roofline bound at this intensity.
    pub attainable_nnz_per_sec: f64,
}

impl RooflinePoint {
    /// Fraction of the roofline bound actually achieved (bandwidth
    /// efficiency).
    pub fn efficiency(&self) -> f64 {
        self.performance_nnz_per_sec / self.attainable_nnz_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_sparse::PACKET_BYTES;

    const PACKET: f64 = PACKET_BYTES as f64;

    #[test]
    fn figure6a_scaling_is_linear_in_channels() {
        // 1 / 8 / 16 / 32 cores at 13.2 GB/s each, B = 15.
        let oi = 15.0 / PACKET;
        let perf: Vec<f64> = [1u32, 8, 16, 32]
            .iter()
            .map(|&c| Roofline::new(13.2e9 * c as f64, oi).attainable_nnz_per_sec())
            .collect();
        assert!((perf[1] / perf[0] - 8.0).abs() < 1e-9);
        assert!((perf[3] / perf[0] - 32.0).abs() < 1e-9);
        // 32 cores: 422.4e9 * 15/64 = 99 GNNZ/s bound.
        assert!((perf[3] - 99.0e9).abs() < 0.1e9);
    }

    #[test]
    fn bscsr_intensity_gain_translates_to_performance() {
        // B = 15 vs B = 5: 3x intensity -> 3x attainable (Figure 6a).
        let bw = 422.4e9;
        let bscsr = Roofline::new(bw, 15.0 / PACKET).attainable_nnz_per_sec();
        let coo = Roofline::new(bw, 5.0 / PACKET).attainable_nnz_per_sec();
        assert!((bscsr / coo - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compute_ceiling_binds_when_low() {
        let r = Roofline::new(422.4e9, 15.0 / PACKET).with_compute_ceiling(1.0e9);
        assert_eq!(r.attainable_nnz_per_sec(), 1.0e9);
        assert!(!r.is_memory_bound());
    }

    #[test]
    fn fpga_design_is_memory_bound() {
        // Compute ceiling: 32 cores x 15 nnz x 253 MHz = 121 GNNZ/s,
        // above the 99 GNNZ/s bandwidth bound.
        let r = Roofline::new(422.4e9, 15.0 / PACKET).with_compute_ceiling(32.0 * 15.0 * 253.0e6);
        assert!(r.is_memory_bound());
    }

    #[test]
    fn point_efficiency() {
        let r = Roofline::new(100.0, 1.0);
        let p = r.point("test", 80.0);
        assert!((p.efficiency() - 0.8).abs() < 1e-12);
        assert_eq!(p.label, "test");
    }
}
