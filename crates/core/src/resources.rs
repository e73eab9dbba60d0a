//! Resource, clock and power estimation calibrated to Table II.
//!
//! The paper reports post-implementation utilisation of four 32-core
//! designs on the `xcu280-fsvh2892-2L-e` device. Without a Vivado flow we
//! model each resource class analytically — per-core costs as functions
//! of the design parameters (`B`, `V`, `k`, `r`, float vs fixed) plus a
//! platform-shell base — with coefficients calibrated so the four
//! published design points are reproduced within a few percentage points.
//! The model's purpose is (a) regenerating Table II and (b) supporting
//! design-space ablations (feasibility of more cores, wider values,
//! larger `r`) with the right monotonic trends.

use tkspmv_fixed::Precision;
use tkspmv_sparse::PacketLayout;

use crate::uram::UramBudget;

/// Resource totals of the `xcu280-fsvh2892-2L-e` device (last row of
/// Table II).
pub const U280_RESOURCES: ResourceUsage = ResourceUsage {
    lut: 1_097_419,
    ff: 2_180_971,
    bram: 1812,
    uram: 960,
    dsp: 9020,
};

/// Absolute resource counts (LUTs, flip-flops, BRAM tiles, URAM blocks,
/// DSP slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// BRAM tiles (36 Kb).
    pub bram: u64,
    /// URAM blocks (288 Kb).
    pub uram: u64,
    /// DSP48E2 slices.
    pub dsp: u64,
}

impl ResourceUsage {
    /// Element-wise sum.
    #[must_use]
    pub(crate) fn add(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut + other.lut,
            ff: self.ff + other.ff,
            bram: self.bram + other.bram,
            uram: self.uram + other.uram,
            dsp: self.dsp + other.dsp,
        }
    }

    /// Element-wise scaling.
    #[must_use]
    pub(crate) fn scale(self, factor: u64) -> ResourceUsage {
        ResourceUsage {
            lut: self.lut * factor,
            ff: self.ff * factor,
            bram: self.bram * factor,
            uram: self.uram * factor,
            dsp: self.dsp * factor,
        }
    }

    /// Utilisation fractions against a device budget, as
    /// `(lut, ff, bram, uram, dsp)` in `[0, ..)`.
    pub(crate) fn utilization(self, device: ResourceUsage) -> [f64; 5] {
        [
            self.lut as f64 / device.lut as f64,
            self.ff as f64 / device.ff as f64,
            self.bram as f64 / device.bram as f64,
            self.uram as f64 / device.uram as f64,
            self.dsp as f64 / device.dsp as f64,
        ]
    }

    /// Whether this usage fits within `device`.
    pub(crate) fn fits(self, device: ResourceUsage) -> bool {
        self.lut <= device.lut
            && self.ff <= device.ff
            && self.bram <= device.bram
            && self.uram <= device.uram
            && self.dsp <= device.dsp
    }
}

/// One accelerator design point (a Table II row, generalised).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Number of cores (= HBM channels used).
    pub cores: u32,
    /// Non-zeros per packet (`B`).
    pub b: u32,
    /// Value width in bits (`V`).
    pub value_bits: u32,
    /// Whether the datapath is floating point.
    pub is_float: bool,
    /// Per-core Top-K depth (`k`, 8 in the paper).
    pub k: u32,
    /// Rows tracked per packet (`r`, between `B/4` and `B/2`).
    pub r: u32,
    /// Query-vector length (`M`).
    pub m: usize,
}

impl DesignPoint {
    /// The paper's design for a given precision: 32 cores, `k = 8`,
    /// `r = B/2`, `M = 1024`, `B` from the §IV-C capacity equation
    /// ([`PacketLayout::paper`]).
    pub fn paper_design(precision: Precision) -> Self {
        let layout = PacketLayout::paper(precision.value_bits());
        Self::new(precision, layout, 1024, 32, 8, None)
    }

    /// The design `cores` cores with `k`-deep trackers run for an
    /// `m`-column collection packed as `layout`; `r` defaults to the
    /// hardware's `B/2` (at least 1).
    pub(crate) fn new(
        precision: Precision,
        layout: PacketLayout,
        m: usize,
        cores: u32,
        k: u32,
        r: Option<u32>,
    ) -> Self {
        let b = layout.entries_per_packet();
        Self {
            cores,
            b,
            value_bits: precision.value_bits(),
            is_float: !precision.is_fixed_point(),
            k,
            r: r.unwrap_or((b / 2).max(1)),
            m,
        }
    }
}

/// Analytic resource/clock/power estimator (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceModel {
    /// Device budget.
    device: ResourceUsage,
    /// Static platform shell + HBM controller cost.
    shell: ResourceUsage,
}

impl ResourceModel {
    /// Model for the Alveo U280 with the Vitis platform shell.
    pub fn alveo_u280() -> Self {
        Self {
            device: U280_RESOURCES,
            shell: ResourceUsage {
                lut: 150_000,
                ff: 300_000,
                bram: 200,
                uram: 0,
                dsp: 4,
            },
        }
    }

    /// Per-core resource cost of a design point.
    pub fn core_usage(&self, d: &DesignPoint) -> ResourceUsage {
        let b = d.b as u64;
        let v = d.value_bits as u64;
        let idx_bits = (usize::BITS - (d.m.max(2) - 1).leading_zeros()) as u64;
        let field_bits = v + idx_bits + bits_for(b);
        let log_b = (64 - b.leading_zeros() as u64).max(1);

        // LUT: packet decode shuffle (~B * field width), segmented
        // aggregation network (~B log B * V), Top-K argmin scratchpad
        // (~k * compare width), float cores add LUT-mapped FP logic.
        let mut lut = 2_000
            + 6 * b * field_bits
            + 2 * b * log_b * v
            + 4 * d.k as u64 * (v + idx_bits)
            + 180 * d.r as u64;
        if d.is_float {
            lut += 250 * b;
        }
        // FF: pipeline registers track LUT fabric closely in this design.
        let ff = if d.is_float {
            lut * 8 / 5
        } else {
            lut * 17 / 10
        };
        // BRAM: stream FIFOs between the four dataflow stages.
        let bram = 5;
        // URAM: ceil(B/2) replicas of x (2 read ports per URAM).
        let uram_budget = UramBudget::alveo_u280();
        let uram = uram_budget.blocks_per_core(d.b, d.value_bits.max(16), d.m);
        // DSP per multiplier, calibrated to Table II (the RTL maps narrow
        // multiplies partially to fabric, so these are fractional).
        let dsp_per_mul_x100: u64 = if d.is_float {
            487
        } else if v <= 20 {
            131
        } else if v <= 25 {
            238
        } else {
            436
        };
        let dsp = b * dsp_per_mul_x100 / 100;
        ResourceUsage {
            lut,
            ff,
            bram,
            uram,
            dsp,
        }
    }

    /// Total usage: shell + `cores` replicas of the core.
    pub(crate) fn total_usage(&self, d: &DesignPoint) -> ResourceUsage {
        self.shell.add(self.core_usage(d).scale(d.cores as u64))
    }

    /// Utilisation fractions (Table II columns LUT..DSP).
    pub fn utilization(&self, d: &DesignPoint) -> [f64; 5] {
        self.total_usage(d).utilization(self.device)
    }

    /// Whether the design places on the device.
    pub(crate) fn is_feasible(&self, d: &DesignPoint) -> bool {
        self.total_usage(d).fits(self.device)
    }

    /// Largest core count that places (ignoring the 32-channel cap, which
    /// the caller applies).
    pub fn max_cores(&self, d: &DesignPoint) -> u32 {
        let mut probe = *d;
        let mut cores = 0;
        while cores < 1024 {
            probe.cores = cores + 1;
            if !self.is_feasible(&probe) {
                break;
            }
            cores += 1;
        }
        cores
    }

    /// Estimated kernel clock in Hz.
    ///
    /// Fixed-point designs close ~250 MHz; the argmin RAW dependency adds
    /// `k`-proportional depth, wide values add routing pressure, and the
    /// floating-point design pays a global slowdown (Table II: 204 MHz vs
    /// 240–253 MHz).
    pub fn clock_hz(&self, d: &DesignPoint) -> f64 {
        let mhz = 270.0
            - 2.0 * d.k as f64
            - 0.25 * d.b as f64
            - 0.3 * (d.value_bits as f64 - 20.0).max(0.0);
        let mhz = if d.is_float { mhz * 0.82 } else { mhz };
        mhz * 1e6
    }

    /// Estimated board power in watts (Table II: 34–45 W).
    pub fn power_w(&self, d: &DesignPoint) -> f64 {
        let per_core = 0.30 + 0.006 * d.value_bits as f64 + if d.is_float { 0.28 } else { 0.0 };
        20.0 + d.cores as f64 * per_core
    }
}

fn bits_for(max_value: u64) -> u64 {
    (64 - max_value.leading_zeros() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II utilisation percentages: (LUT, FF, BRAM, URAM, DSP).
    const TABLE2: [(Precision, [f64; 5], f64, f64); 4] = [
        (
            Precision::Fixed20,
            [0.38, 0.35, 0.20, 0.33, 0.07],
            253.0,
            34.0,
        ),
        (
            Precision::Fixed25,
            [0.38, 0.36, 0.20, 0.30, 0.11],
            240.0,
            35.0,
        ),
        (
            Precision::Fixed32,
            [0.35, 0.33, 0.20, 0.27, 0.17],
            249.0,
            35.0,
        ),
        (
            Precision::Float32,
            [0.44, 0.37, 0.20, 0.26, 0.19],
            204.0,
            45.0,
        ),
    ];

    #[test]
    fn utilization_tracks_table2_within_tolerance() {
        let model = ResourceModel::alveo_u280();
        for (precision, expected, _, _) in TABLE2 {
            let d = DesignPoint::paper_design(precision);
            let got = model.utilization(&d);
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!(
                    (g - e).abs() < 0.09,
                    "{precision:?} resource {i}: model {g:.3} vs paper {e:.3}"
                );
            }
        }
    }

    #[test]
    fn clock_tracks_table2() {
        let model = ResourceModel::alveo_u280();
        for (precision, _, mhz, _) in TABLE2 {
            let d = DesignPoint::paper_design(precision);
            let got = model.clock_hz(&d) / 1e6;
            assert!(
                (got - mhz).abs() < 15.0,
                "{precision:?}: model {got:.0} MHz vs paper {mhz} MHz"
            );
        }
    }

    #[test]
    fn float_design_is_slowest() {
        let model = ResourceModel::alveo_u280();
        let float = model.clock_hz(&DesignPoint::paper_design(Precision::Float32));
        for p in [Precision::Fixed20, Precision::Fixed25, Precision::Fixed32] {
            assert!(model.clock_hz(&DesignPoint::paper_design(p)) > float);
        }
    }

    #[test]
    fn power_tracks_table2() {
        let model = ResourceModel::alveo_u280();
        for (precision, _, _, watts) in TABLE2 {
            let d = DesignPoint::paper_design(precision);
            let got = model.power_w(&d);
            assert!(
                (got - watts).abs() < 3.0,
                "{precision:?}: model {got:.1} W vs paper {watts} W"
            );
        }
    }

    #[test]
    fn all_paper_designs_are_feasible() {
        // §V: "the number of HBM channels limits the maximum number of
        // cores to 32, although we could easily place more cores".
        let model = ResourceModel::alveo_u280();
        for (precision, _, _, _) in TABLE2 {
            let d = DesignPoint::paper_design(precision);
            assert!(model.is_feasible(&d), "{precision:?} must place");
            assert!(
                model.max_cores(&d) > 32,
                "{precision:?} should have headroom beyond 32 cores"
            );
        }
    }

    #[test]
    fn higher_k_lowers_clock() {
        // §IV-B: higher k -> RAW dependencies in the argmin -> lower
        // clock.
        let model = ResourceModel::alveo_u280();
        let mut d = DesignPoint::paper_design(Precision::Fixed20);
        let base = model.clock_hz(&d);
        d.k = 32;
        assert!(model.clock_hz(&d) < base);
    }

    #[test]
    fn larger_r_costs_lut() {
        // §IV-B: r between B/4 and B/2 saved up to 50% of (row-tracking)
        // resources.
        let model = ResourceModel::alveo_u280();
        let mut d = DesignPoint::paper_design(Precision::Fixed20);
        d.r = d.b / 4;
        let small = model.core_usage(&d).lut;
        d.r = d.b;
        let large = model.core_usage(&d).lut;
        assert!(large > small);
    }

    #[test]
    fn usage_arithmetic() {
        let a = ResourceUsage {
            lut: 1,
            ff: 2,
            bram: 3,
            uram: 4,
            dsp: 5,
        };
        let b = a.scale(2);
        assert_eq!(b.lut, 2);
        assert_eq!(a.add(b).dsp, 15);
        assert!(a.fits(U280_RESOURCES));
        assert!(!U280_RESOURCES.scale(2).fits(U280_RESOURCES));
    }
}
