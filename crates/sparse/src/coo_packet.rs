//! Packed COO packet formats, the strawmen of Figure 3.
//!
//! The paper motivates BS-CSR by comparing against two COO packings of a
//! 512-bit packet:
//!
//! - **naive COO**: 32-bit row + 32-bit column + 32-bit value per entry
//!   → 5 entries per packet (480 bits);
//! - **optimised COO**: 32-bit row + reduced column (`ceil(log2 M)`
//!   bits) + reduced value (`V` bits) → 8 entries for `M < 1024`,
//!   `V = 20` (496 bits).
//!
//! The row coordinate cannot be reduced because the number of matrix
//! rows is unbounded (millions); this is exactly the redundancy BS-CSR
//! removes. Figure 3 compares the packings arithmetically (entries per
//! packet, operational intensity), so only the arithmetic lives here.

use crate::packet::{PACKET_BITS, PACKET_BYTES};

/// Which COO packing to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CooPacketKind {
    /// 32-bit row, 32-bit column, 32-bit value.
    Naive,
    /// 32-bit row, `ceil(log2 M)`-bit column, `V`-bit value.
    Optimized {
        /// Bits per column index.
        idx_bits: u32,
        /// Bits per value.
        value_bits: u32,
    },
}

impl CooPacketKind {
    /// Bits per packed entry.
    pub fn entry_bits(self) -> u32 {
        match self {
            CooPacketKind::Naive => 96,
            CooPacketKind::Optimized {
                idx_bits,
                value_bits,
            } => 32 + idx_bits + value_bits,
        }
    }

    /// Entries per 512-bit packet.
    pub fn entries_per_packet(self) -> u32 {
        PACKET_BITS as u32 / self.entry_bits()
    }

    /// Operational intensity in non-zeros per byte.
    pub fn operational_intensity(self) -> f64 {
        self.entries_per_packet() as f64 / PACKET_BYTES as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_packing_counts() {
        // Naive COO: 5 entries. Optimised (10-bit idx, 20-bit val): 8.
        assert_eq!(CooPacketKind::Naive.entries_per_packet(), 5);
        let opt = CooPacketKind::Optimized {
            idx_bits: 10,
            value_bits: 20,
        };
        assert_eq!(opt.entries_per_packet(), 8);
        // BS-CSR fits 15 (see layout tests) -> the 3x claim.
        assert!((opt.operational_intensity() - 8.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn bscsr_beats_coo_packing_density() {
        // The central Figure 3 claim: for M < 1024 and V = 20, BS-CSR
        // packs 3x the entries of naive COO.
        let bscsr = crate::PacketLayout::solve(1024, 20).unwrap();
        assert_eq!(
            bscsr.entries_per_packet(),
            3 * CooPacketKind::Naive.entries_per_packet()
        );
    }
}
