//! HBM2 stack and per-channel bandwidth model.

use tkspmv_sparse::PACKET_BYTES;

use crate::axi::AxiBurstModel;

/// The HBM stack of the one card this reproduction models.
///
/// The card is the Xilinx Alveo U280: 8 GB of HBM2 behind 32
/// pseudo-channels, 460 GB/s aggregate peak. The paper's roofline uses
/// 13.2 GB/s of *effective* per-channel bandwidth (32 × 13.2 =
/// 422.4 GB/s), the figure a 512-bit @ 225 MHz AXI master sustains after
/// controller overheads; [`HbmConfig::effective_bandwidth`] reproduces
/// that derating.
///
/// # Example
///
/// ```
/// use tkspmv::hw::HbmConfig;
///
/// let hbm = HbmConfig::alveo_u280();
/// let bw = hbm.effective_bandwidth(32);
/// assert!((bw / 1e9 - 422.4).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of pseudo-channels exposed to the fabric.
    pub num_channels: u32,
    /// Peak bandwidth per pseudo-channel, bytes/second.
    pub peak_channel_bandwidth: f64,
    /// Fraction of peak a streaming AXI master sustains (controller +
    /// refresh overheads).
    pub channel_efficiency: f64,
}

impl HbmConfig {
    /// The Alveo U280 HBM2 stack used in the paper.
    pub fn alveo_u280() -> Self {
        Self {
            num_channels: 32,
            peak_channel_bandwidth: 460.0e9 / 32.0,
            // 13.2 GB/s effective / 14.375 GB/s peak ≈ 0.918.
            channel_efficiency: 13.2e9 / (460.0e9 / 32.0),
        }
    }

    /// Peak aggregate bandwidth in bytes/second.
    #[cfg(test)]
    fn peak_bandwidth(&self) -> f64 {
        self.num_channels as f64 * self.peak_channel_bandwidth
    }

    /// Effective aggregate bandwidth for `channels` active channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` exceeds the configured channel count.
    pub fn effective_bandwidth(&self, channels: u32) -> f64 {
        assert!(
            channels <= self.num_channels,
            "card exposes only {} channels",
            self.num_channels
        );
        channels as f64 * self.peak_channel_bandwidth * self.channel_efficiency
    }

    /// Builds the per-channel model used for cycle accounting.
    pub fn channel_model(&self, clock_hz: f64) -> ChannelModel {
        ChannelModel {
            clock_hz,
            burst: AxiBurstModel::max_length(),
            channel_bandwidth: self.peak_channel_bandwidth * self.channel_efficiency,
        }
    }
}

/// Cycle-level model of one pseudo-channel driven by one core.
///
/// A core consumes one 512-bit packet per clock at `clock_hz`; the
/// channel sustains that as long as the AXI stream uses max-length
/// bursts. Time for a packet stream is therefore
/// `burst_cycles / clock_hz`, floored by the channel's effective
/// bandwidth (whichever is slower binds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Core/kernel clock in Hz.
    pub(crate) clock_hz: f64,
    /// Burst timing model.
    burst: AxiBurstModel,
    /// Effective channel bandwidth in bytes/second (peak x efficiency).
    channel_bandwidth: f64,
}

impl ChannelModel {
    /// Seconds to stream `packets` 512-bit packets through the channel:
    /// whichever is slower of the kernel (one packet per cycle behind
    /// bursts) and the channel's effective bandwidth binds.
    pub fn stream_seconds(&self, packets: u64) -> f64 {
        let cycles = self.burst.timing(packets).total_cycles();
        let kernel_time = cycles as f64 / self.clock_hz;
        let bytes = packets as f64 * PACKET_BYTES as f64;
        let channel_time = bytes / self.channel_bandwidth;
        kernel_time.max(channel_time)
    }

    /// Achieved bandwidth in bytes/second for a stream of `packets`.
    #[cfg(test)]
    fn achieved_bandwidth(&self, packets: u64) -> f64 {
        if packets == 0 {
            return 0.0;
        }
        packets as f64 * PACKET_BYTES as f64 / self.stream_seconds(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u280_aggregate_numbers_match_paper() {
        let hbm = HbmConfig::alveo_u280();
        assert!((hbm.peak_bandwidth() - 460.0e9).abs() < 1e6);
        // Roofline figures: 13.2 GB/s x {1, 8, 16, 32}.
        assert!((hbm.effective_bandwidth(1) - 13.2e9).abs() < 1e7);
        assert!((hbm.effective_bandwidth(8) - 105.6e9).abs() < 1e8);
        assert!((hbm.effective_bandwidth(16) - 211.2e9).abs() < 1e8);
        assert!((hbm.effective_bandwidth(32) - 422.4e9).abs() < 1e8);
    }

    #[test]
    fn bandwidth_scales_linearly_with_channels() {
        let hbm = HbmConfig::alveo_u280();
        let b1 = hbm.effective_bandwidth(1);
        for c in [2, 4, 8, 16, 32] {
            let b = hbm.effective_bandwidth(c);
            assert!((b - c as f64 * b1).abs() < 1.0, "channel count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "exposes only")]
    fn too_many_channels_rejected() {
        HbmConfig::alveo_u280().effective_bandwidth(64);
    }

    #[test]
    fn channel_streaming_time_is_bandwidth_bound() {
        let hbm = HbmConfig::alveo_u280();
        let ch = hbm.channel_model(225.0e6);
        // 1M packets = 64 MB at ~13.2 GB/s -> ~4.85 ms.
        let t = ch.stream_seconds(1_000_000);
        assert!((0.004..0.006).contains(&t), "t = {t}");
        let bw = ch.achieved_bandwidth(1_000_000);
        assert!(bw <= 13.3e9, "achieved {bw}");
        assert!(bw > 12.0e9, "achieved {bw}");
    }

    #[test]
    fn empty_stream_is_instant() {
        let ch = HbmConfig::alveo_u280().channel_model(225.0e6);
        assert_eq!(ch.stream_seconds(0), 0.0);
        assert_eq!(ch.achieved_bandwidth(0), 0.0);
    }
}
