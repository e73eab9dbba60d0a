//! FPGA platform models for the Top-K SpMV accelerator.
//!
//! There is no FPGA in the loop of this reproduction, so everything the
//! paper obtains from the physical Alveo U280 — HBM bandwidth, AXI burst
//! behaviour, URAM capacity rules, Vivado resource/timing/power reports —
//! is modelled analytically here, calibrated against the numbers the
//! paper publishes:
//!
//! - [`HbmConfig`] / [`ChannelModel`]: the 32-pseudo-channel HBM2 stack
//!   (460 GB/s peak, 13.2 GB/s effective per channel in the paper's
//!   roofline) with 256-beat AXI4 burst timing;
//! - [`UramBudget`]: the query-vector replication rule of §IV-A (each
//!   URAM has 2 read ports, so `x` is replicated `⌈B/2⌉` times per core);
//! - [`ResourceModel`]: per-core LUT/FF/BRAM/URAM/DSP usage, clock
//!   frequency and power, calibrated to Table II;
//! - [`Roofline`]: the §V-C roofline (Figure 6) built from peak
//!   bandwidth, packet capacity `B` and core count.
//!
//! # Example
//!
//! ```
//! use tkspmv_hw::{HbmConfig, Roofline};
//!
//! let hbm = HbmConfig::alveo_u280();
//! assert_eq!(hbm.num_channels, 32);
//! let roofline = Roofline::new(hbm.effective_bandwidth(32), 15.0 / 64.0);
//! assert!(roofline.attainable_nnz_per_sec() > 5e10); // paper: 57 GNNZ/s
//! ```

mod axi;
mod hbm;
mod resources;
mod roofline;
mod uram;

pub use axi::{AxiBurstModel, BurstTiming};
pub use hbm::{ChannelModel, HbmConfig};
pub use resources::{DesignPoint, ResourceModel, ResourceUsage, U280_RESOURCES};
pub use roofline::{Roofline, RooflinePoint};
pub use uram::UramBudget;
