//! Performance accounting for emulated accelerator runs.

use tkspmv_sparse::PACKET_BYTES;

use crate::hbm::ChannelModel;

/// Modelled execution report of one accelerator query.
///
/// Times are *model* times — what the FPGA would take given the paper's
/// HBM/clock parameters — not host wall-clock. The model is simple
/// because the design is simple: every core streams its packets at one
/// per cycle behind max-length bursts, so the busiest core's channel
/// time bounds the kernel, plus a fixed host launch overhead.
///
/// # Example
///
/// ```
/// use tkspmv::backend::TopKBackend;
/// use tkspmv::hw::HbmConfig;
/// use tkspmv::{Accelerator, HOST_OVERHEAD_SECONDS};
/// use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
///
/// let collection = SyntheticConfig {
///     num_rows: 2_000,
///     num_cols: 512,
///     avg_nnz_per_row: 20,
///     distribution: NnzDistribution::Uniform,
///     seed: 42,
/// }
/// .generate();
/// let backend = Accelerator::builder().cores(32).build()?;
/// let matrix = backend.prepare(&collection)?;
/// let result = backend.query(&matrix, &query_vector(512, 7), 100)?;
///
/// // The accelerator's full report rides on every query result.
/// let perf = result.stats.perf_report().expect("accelerator report");
/// assert_eq!(perf.cores, 32);
/// assert_eq!(perf.nnz, collection.nnz() as u64);
/// assert!((perf.seconds - perf.kernel_seconds - HOST_OVERHEAD_SECONDS).abs() < 1e-12);
/// assert!(perf.achieved_bandwidth() <= HbmConfig::alveo_u280().effective_bandwidth(32));
/// # Ok::<(), tkspmv::EngineError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Modelled end-to-end seconds (kernel + host overhead).
    pub seconds: f64,
    /// Modelled kernel-only seconds.
    pub kernel_seconds: f64,
    /// Packets streamed by the busiest core.
    pub max_packets_per_core: u64,
    /// Total packets across all cores.
    pub total_packets: u64,
    /// Logical non-zeros processed.
    pub nnz: u64,
    /// Active cores.
    pub cores: u32,
    /// Kernel clock in Hz.
    pub clock_hz: f64,
}

/// Fixed host-side launch overhead (kernel enqueue + completion), in
/// seconds. OpenCL/XRT kernel launches cost tens of microseconds.
pub const HOST_OVERHEAD_SECONDS: f64 = 60.0e-6;

impl PerfReport {
    /// Builds a report from stream statistics and a channel model.
    pub(crate) fn from_stream(
        channel: &ChannelModel,
        cores: u32,
        max_packets_per_core: u64,
        total_packets: u64,
        nnz: u64,
    ) -> Self {
        let kernel_seconds = channel.stream_seconds(max_packets_per_core);
        Self {
            seconds: kernel_seconds + HOST_OVERHEAD_SECONDS,
            kernel_seconds,
            max_packets_per_core,
            total_packets,
            nnz,
            cores,
            clock_hz: channel.clock_hz,
        }
    }

    /// Throughput in non-zeros per second (the paper's headline metric).
    pub fn nnz_per_sec(&self) -> f64 {
        self.nnz as f64 / self.seconds
    }

    /// Throughput in giga-non-zeros per second.
    pub fn gnnz_per_sec(&self) -> f64 {
        self.nnz_per_sec() / 1e9
    }

    /// Bytes streamed from HBM across all channels.
    pub fn bytes_streamed(&self) -> u64 {
        self.total_packets * PACKET_BYTES as u64
    }

    /// Aggregate achieved bandwidth in bytes/second (kernel time).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.kernel_seconds == 0.0 {
            return 0.0;
        }
        self.bytes_streamed() as f64 / self.kernel_seconds
    }

    /// Operational intensity actually realised, in nnz/byte.
    pub fn operational_intensity(&self) -> f64 {
        self.nnz as f64 / self.bytes_streamed().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::HbmConfig;

    fn channel() -> ChannelModel {
        HbmConfig::alveo_u280().channel_model(253.0e6)
    }

    #[test]
    fn paper_scale_matrix_under_4ms() {
        // §V-A: "a matrix with 10^7 rows and 200 million non-zero
        // entries in less than 4 ms".
        let ch = channel();
        let nnz: u64 = 200_000_000;
        let packets_total = nnz.div_ceil(15);
        let per_core = packets_total.div_ceil(32);
        let perf = PerfReport::from_stream(&ch, 32, per_core, packets_total, nnz);
        assert!(perf.seconds < 0.004, "modelled {} s", perf.seconds);
        assert!(perf.gnnz_per_sec() > 50.0, "{} GNNZ/s", perf.gnnz_per_sec());
    }

    #[test]
    fn bandwidth_bounded_by_hbm() {
        let ch = channel();
        let perf = PerfReport::from_stream(&ch, 32, 1_000_000, 32_000_000, 480_000_000);
        let bw = perf.achieved_bandwidth();
        assert!(bw <= 32.0 * 13.3e9, "achieved {bw}");
        assert!(bw >= 32.0 * 12.0e9, "achieved {bw}");
    }

    #[test]
    fn operational_intensity_matches_packing() {
        let ch = channel();
        // Exactly 15 nnz per packet.
        let perf = PerfReport::from_stream(&ch, 1, 1000, 1000, 15_000);
        assert!((perf.operational_intensity() - 15.0 / PACKET_BYTES as f64).abs() < 1e-9);
    }

    #[test]
    fn host_overhead_dominates_tiny_queries() {
        let ch = channel();
        let perf = PerfReport::from_stream(&ch, 32, 10, 320, 4800);
        assert!(perf.seconds >= HOST_OVERHEAD_SECONDS);
        assert!(perf.kernel_seconds < perf.seconds);
    }
}
