//! AXI4 burst timing model.
//!
//! The paper's cores issue continuous maximum-length AXI4 read bursts
//! (256 beats of 512 bits) against their HBM pseudo-channel, which is
//! what lets them approach channel peak bandwidth without a distributed
//! memory controller. This module models the cycle cost of a packet
//! stream as bursts plus fixed per-burst overhead.

/// Timing parameters of an AXI4 read master against an HBM channel.
///
/// Defaults follow Shuhai's measurements of the U280 HBM subsystem
/// (Wang et al., FCCM'20, the paper's ref. 24): ~55 memory-clock cycles of
/// read latency per burst, amortised over 256-beat bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AxiBurstModel {
    /// Beats (data transfers) per burst; AXI4 caps this at 256.
    beats_per_burst: u32,
    /// Pipeline/protocol overhead cycles charged per burst (address
    /// handshake + first-word latency not hidden by outstanding bursts).
    overhead_cycles_per_burst: u32,
}

impl AxiBurstModel {
    /// Maximum-length bursts with overhead mostly hidden by outstanding
    /// transactions — the configuration the paper's design uses.
    pub(crate) fn max_length() -> Self {
        Self {
            beats_per_burst: 256,
            overhead_cycles_per_burst: 8,
        }
    }

    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `beats_per_burst` is 0 or exceeds 256.
    #[cfg(test)]
    fn new(beats_per_burst: u32, overhead_cycles_per_burst: u32) -> Self {
        assert!(
            (1..=256).contains(&beats_per_burst),
            "AXI4 bursts are 1..=256 beats"
        );
        Self {
            beats_per_burst,
            overhead_cycles_per_burst,
        }
    }

    /// Cycle cost of streaming `packets` 512-bit beats.
    pub(crate) fn timing(&self, packets: u64) -> BurstTiming {
        let bursts = packets.div_ceil(self.beats_per_burst as u64);
        BurstTiming {
            #[cfg(test)]
            bursts,
            data_cycles: packets,
            overhead_cycles: bursts * self.overhead_cycles_per_burst as u64,
        }
    }

    /// Fraction of cycles spent moving data (bus efficiency) for a
    /// stream of `packets` beats.
    #[cfg(test)]
    fn efficiency(&self, packets: u64) -> f64 {
        let t = self.timing(packets);
        if t.total_cycles() == 0 {
            return 1.0;
        }
        t.data_cycles as f64 / t.total_cycles() as f64
    }
}

/// Cycle breakdown of a burst stream, produced by [`AxiBurstModel::timing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BurstTiming {
    /// Number of bursts issued (only the tests read it back).
    #[cfg(test)]
    bursts: u64,
    /// Cycles carrying data (one per packet).
    data_cycles: u64,
    /// Protocol overhead cycles.
    overhead_cycles: u64,
}

impl BurstTiming {
    /// Total cycles for the stream.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.data_cycles + self.overhead_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_burst_timing() {
        let m = AxiBurstModel::max_length();
        let t = m.timing(100);
        assert_eq!(t.bursts, 1);
        assert_eq!(t.data_cycles, 100);
        assert_eq!(t.overhead_cycles, 8);
        assert_eq!(t.total_cycles(), 108);
    }

    #[test]
    fn long_stream_is_efficient() {
        // 1M packets: overhead amortised to ~3%.
        let m = AxiBurstModel::max_length();
        assert!(m.efficiency(1_000_000) > 0.96);
    }

    #[test]
    fn short_bursts_lose_efficiency() {
        // The motivation for max-length bursts: 16-beat bursts with the
        // same per-burst overhead waste ~1/3 of cycles.
        let short = AxiBurstModel::new(16, 8);
        let long = AxiBurstModel::new(256, 8);
        assert!(short.efficiency(1_000_000) < 0.7);
        assert!(long.efficiency(1_000_000) > short.efficiency(1_000_000));
    }

    #[test]
    fn zero_packets_is_free() {
        let t = AxiBurstModel::max_length().timing(0);
        assert_eq!(t.total_cycles(), 0);
        assert_eq!(AxiBurstModel::max_length().efficiency(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "1..=256")]
    fn oversized_burst_rejected() {
        let _ = AxiBurstModel::new(512, 0);
    }
}
