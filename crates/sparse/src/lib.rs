//! Sparse matrix formats and synthetic embedding generators for Top-K
//! SpMV.
//!
//! This crate implements the storage side of the DAC'21 paper:
//!
//! - the classic [`Csr`] format (the CPU baseline operates on CSR, the
//!   GPU model on CSR as cuSPARSE does);
//! - **Block-Streaming CSR** ([`BsCsr`]), the paper's novel format: every
//!   512-bit HBM packet is a self-contained CSR micro-partition holding
//!   `B` non-zeros with reduced-precision `idx`/`val` fields and
//!   packet-local cumulative `ptr` entries (§III-B, Figure 3);
//! - deterministic synthetic generators matching Table III: uniform and
//!   left-skewed `Γ(3, 4/3)` non-zero distributions and a sparsified
//!   GloVe-like embedding corpus (module [`gen`]);
//! - persisted index snapshots (module [`snapshot`]): a versioned,
//!   CRC-checked binary container for encoded collections, so the
//!   one-time BS-CSR encode is paid once per collection instead of once
//!   per process start — a schema over the byte-level [`codec`] it
//!   shares with the fabric wire protocol;
//! - a companion [`PruneIndex`]: a 4/8-bit row-major stream built
//!   alongside the exact form for the candidate-generation pass of a
//!   staged prune + exact-rescore query pipeline, persisted as an
//!   optional snapshot section.
//!
//! # Example: encode a matrix as BS-CSR and walk its packets
//!
//! ```
//! use tkspmv_sparse::{BsCsr, Csr, PacketLayout};
//!
//! let csr = Csr::from_triplets(
//!     3,
//!     4,
//!     &[(0, 1, 0.5), (0, 3, 0.25), (1, 0, 1.0), (2, 2, 0.75)],
//! )?;
//! let layout = PacketLayout::solve(4, 20)?;
//! let bs = BsCsr::encode::<tkspmv_fixed::Q1_19>(&csr, layout);
//! assert_eq!(bs.num_rows(), 3);
//! let decoded = bs.decode::<tkspmv_fixed::Q1_19>();
//! assert_eq!(decoded.num_rows(), 3);
//! # Ok::<(), tkspmv_sparse::SparseError>(())
//! ```

// A compute crate: no thread starts but the pool's (`tkspmv::fanout`).
#![cfg_attr(not(test), forbid(clippy::disallowed_methods))]

mod bscsr;
pub mod codec;
mod csr;
mod dense;
mod error;
pub mod gen;
pub mod io;
mod layout;
mod packet;
mod prune;
pub mod snapshot;

pub use bscsr::BsCsr;
pub use csr::{Csr, RowStats};
pub use dense::DenseVector;
pub use error::SparseError;
pub use layout::PacketLayout;
pub use packet::{Packet512, PACKET_BITS, PACKET_BYTES};
pub use prune::{PruneIndex, PruneQuery};

/// The exact score of one sparse row against a dense query: the
/// workspace's one exact row dot.
///
/// `entries` are the row's `(col, value)` pairs in column order (as
/// [`Csr::row`] yields them). Products are accumulated in `f64`, in that
/// order, from `+0.0` — so an empty row, or one whose products are all
/// `-0.0`, scores `+0.0` — and every exact path (the CPU engine,
/// [`Csr::spmv_exact`], the pruned rescore, delta rows) calls this, so a
/// row scores bit-identically wherever it is scored.
///
/// # Panics
///
/// Panics if a column is out of bounds for `x`.
#[inline]
pub fn exact_dot(entries: impl IntoIterator<Item = (u32, f32)>, x: &[f32]) -> f64 {
    entries.into_iter().fold(0.0, |acc, (c, v)| {
        // Callers pass rows validated against `x.len()` columns.
        acc + v as f64 * x[c as usize] as f64
    })
}
