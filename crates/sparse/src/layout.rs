//! Solving the BS-CSR packet capacity equation of §IV-C.

use crate::error::SparseError;
use crate::packet::PACKET_BITS;

/// Bit-level layout of one BS-CSR packet.
///
/// §IV-C of the paper gives the capacity constraint
///
/// ```text
/// B * (ptr_bits + idx_bits + value_bits) + 1 <= 512
/// ```
///
/// where `B` is the number of non-zeros per packet, `ptr_bits =
/// ceil(log2(B + 1))` (a packet-local cumulative count in `0..=B`),
/// `idx_bits = ceil(log2(M))` indexes the dense vector, `value_bits = V`
/// is the numeric precision, and the `+ 1` is the `new_row` carry bit.
/// [`PacketLayout::solve`] finds the largest feasible `B`.
///
/// With `M = 1024`, `V = 20` this yields the paper's headline `B = 15`
/// (`1 + 15 * (4 + 10 + 20) = 511` bits).
///
/// # Example
///
/// ```
/// use tkspmv_sparse::PacketLayout;
///
/// let layout = PacketLayout::solve(1024, 20)?;
/// assert_eq!(layout.entries_per_packet(), 15);
/// assert_eq!(layout.bits_used(), 511);
/// # Ok::<(), tkspmv_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketLayout {
    entries_per_packet: u32,
    ptr_bits: u32,
    idx_bits: u32,
    value_bits: u32,
}

impl PacketLayout {
    /// Finds the layout with the largest `B` for a matrix with `num_cols`
    /// columns and `value_bits`-wide values.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LayoutUnsatisfiable`] if even `B = 1` does
    /// not fit, and [`SparseError::DimensionTooLarge`] if `num_cols`
    /// cannot be indexed within the packet at all.
    pub fn solve(num_cols: usize, value_bits: u32) -> Result<Self, SparseError> {
        assert!(
            (1..=64).contains(&value_bits),
            "value_bits must be in 1..=64, got {value_bits}"
        );
        if num_cols == 0 {
            return Err(SparseError::DimensionTooLarge {
                detail: "matrix must have at least one column".to_string(),
            });
        }
        let idx_bits = bits_for(num_cols.saturating_sub(1).max(1) as u64);
        Self::largest(idx_bits, value_bits).ok_or(SparseError::LayoutUnsatisfiable {
            idx_bits,
            value_bits,
        })
    }

    /// The paper's design layout for `value_bits`-wide values: the
    /// solution of the capacity equation at `M = 1024` (§IV-C; `B = 15`
    /// at `V = 20`), as a compile-time constant. The engine compares a
    /// stream's layout with `const { PacketLayout::paper(S::VALUE_BITS) }`
    /// and, on a match, decodes with every field offset an immediate —
    /// the software form of "the layout is fixed in the bitstream".
    /// Equal to `PacketLayout::solve(1024, value_bits)`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in a `const` context) if `value_bits` is
    /// outside `1..=64`.
    pub const fn paper(value_bits: u32) -> Self {
        assert!(value_bits >= 1 && value_bits <= 64, "value_bits in 1..=64");
        match Self::largest(10, value_bits) {
            Some(layout) => layout,
            #[expect(
                clippy::panic,
                reason = "invariant: B = 1 needs 1 + (1 + 10 + 64) = 76 <= 512 bits"
            )]
            None => panic!("a 10-bit index always leaves room for one entry"),
        }
    }

    /// The capacity loop of §IV-C: the largest `B` whose fields fit one
    /// packet beside the `new_row` bit, or `None` if not even `B = 1`
    /// does. (`while`, not `for`: it runs in `const` contexts.)
    const fn largest(idx_bits: u32, value_bits: u32) -> Option<Self> {
        let mut best = None;
        let mut b = 1u32;
        while b <= PACKET_BITS as u32 {
            let ptr_bits = bits_for(b as u64);
            let total = b as usize * (ptr_bits + idx_bits + value_bits) as usize + 1;
            if total <= PACKET_BITS {
                best = Some(Self {
                    entries_per_packet: b,
                    ptr_bits,
                    idx_bits,
                    value_bits,
                });
            } else if best.is_some() {
                break;
            }
            b += 1;
        }
        best
    }

    /// Builds a layout with an explicit `B` (for studying sub-maximal
    /// packings like the naive COO `B = 5` point in Figure 6a).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LayoutUnsatisfiable`] if the requested `B`
    /// does not fit in a packet.
    pub fn with_entries(
        num_cols: usize,
        value_bits: u32,
        entries_per_packet: u32,
    ) -> Result<Self, SparseError> {
        let max = Self::solve(num_cols, value_bits)?;
        if entries_per_packet == 0 || entries_per_packet > max.entries_per_packet {
            return Err(SparseError::LayoutUnsatisfiable {
                idx_bits: max.idx_bits,
                value_bits,
            });
        }
        Ok(Self {
            entries_per_packet,
            ptr_bits: bits_for(entries_per_packet as u64),
            idx_bits: max.idx_bits,
            value_bits,
        })
    }

    /// Reconstructs a layout from its raw field widths (e.g. read back
    /// from a persisted snapshot), revalidating every invariant the
    /// solver guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LayoutUnsatisfiable`] if the fields do not
    /// describe a legal packet: `B = 0`, widths outside `1..=64`,
    /// `ptr_bits != ceil(log2(B + 1))`, or fields overflowing 512 bits.
    pub fn from_parts(
        entries_per_packet: u32,
        ptr_bits: u32,
        idx_bits: u32,
        value_bits: u32,
    ) -> Result<Self, SparseError> {
        let well_formed = entries_per_packet >= 1
            && (1..=64).contains(&ptr_bits)
            && (1..=64).contains(&idx_bits)
            && (1..=64).contains(&value_bits)
            && ptr_bits == bits_for(entries_per_packet as u64);
        let layout = Self {
            entries_per_packet,
            ptr_bits,
            idx_bits,
            value_bits,
        };
        if !well_formed || layout.bits_used() as usize > PACKET_BITS {
            return Err(SparseError::LayoutUnsatisfiable {
                idx_bits,
                value_bits,
            });
        }
        Ok(layout)
    }

    /// `B`: non-zero entries per 512-bit packet.
    #[inline]
    pub fn entries_per_packet(self) -> u32 {
        self.entries_per_packet
    }

    /// Width of one packet-local cumulative `ptr` entry.
    #[inline]
    pub fn ptr_bits(self) -> u32 {
        self.ptr_bits
    }

    /// Width of one column index.
    #[inline]
    pub fn idx_bits(self) -> u32 {
        self.idx_bits
    }

    /// Width of one value (`V`).
    #[inline]
    pub fn value_bits(self) -> u32 {
        self.value_bits
    }

    /// Bit offset of the first column index (the `ptr` slots start at
    /// bit 1, just past `new_row`).
    #[inline]
    pub(crate) fn idx_base(self) -> usize {
        1 + (self.entries_per_packet * self.ptr_bits) as usize
    }

    /// Bit offset of the first value.
    #[inline]
    pub(crate) fn val_base(self) -> usize {
        1 + (self.entries_per_packet * (self.ptr_bits + self.idx_bits)) as usize
    }

    /// Total bits used by the fields (`<= 512`); the remainder is padding.
    pub fn bits_used(self) -> u32 {
        self.entries_per_packet * (self.ptr_bits + self.idx_bits + self.value_bits) + 1
    }

    /// Number of packets required to store `nnz` entries.
    pub fn packets_for(self, nnz: u64) -> u64 {
        nnz.div_ceil(self.entries_per_packet as u64)
    }

    /// Operational intensity in non-zeros per byte: the figure of merit
    /// the roofline analysis (Figure 6) is built on.
    pub fn operational_intensity(self) -> f64 {
        self.entries_per_packet as f64 / crate::packet::PACKET_BYTES as f64
    }
}

/// Minimum number of bits needed to represent `max_value`.
const fn bits_for(max_value: u64) -> u32 {
    if max_value == 0 {
        1
    } else {
        64 - max_value.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_layout() {
        // M = 1024, V = 20 -> B = 15, 4-bit ptr, 10-bit idx (Figure 3).
        let l = PacketLayout::solve(1024, 20).unwrap();
        assert_eq!(l.entries_per_packet(), 15);
        assert_eq!(l.ptr_bits(), 4);
        assert_eq!(l.idx_bits(), 10);
        assert_eq!(l.bits_used(), 511);
    }

    #[test]
    fn paper_layouts_are_the_m1024_solutions() {
        // The engine's constant-layout dispatch compares against these.
        const Q1_19: PacketLayout = PacketLayout::paper(20);
        assert_eq!(Q1_19.entries_per_packet(), 15);
        for v in 1..=64 {
            assert_eq!(
                PacketLayout::paper(v),
                PacketLayout::solve(1024, v).unwrap()
            );
        }
    }

    #[test]
    fn layout_for_25_and_32_bit_designs() {
        // V = 25 -> B = 13; V = 32 -> B = 11 (M = 1024).
        assert_eq!(
            PacketLayout::solve(1024, 25).unwrap().entries_per_packet(),
            13
        );
        assert_eq!(
            PacketLayout::solve(1024, 32).unwrap().entries_per_packet(),
            11
        );
    }

    #[test]
    fn wider_index_reduces_capacity() {
        let narrow = PacketLayout::solve(512, 20).unwrap();
        let wide = PacketLayout::solve(65536, 20).unwrap();
        assert!(wide.entries_per_packet() < narrow.entries_per_packet());
        assert_eq!(wide.idx_bits(), 16);
    }

    #[test]
    fn capacity_equation_is_respected_across_design_space() {
        for v in 8..=40 {
            for m in [2usize, 100, 512, 1024, 4096, 65536, 1 << 20] {
                let l = PacketLayout::solve(m, v).unwrap();
                assert!(l.bits_used() <= 512, "layout {l:?} overflows");
                // Adding one more entry must not fit.
                let b = l.entries_per_packet() + 1;
                let over = b * (bits_for(b as u64) + l.idx_bits() + v) + 1;
                assert!(over > 512, "layout {l:?} is not maximal");
            }
        }
    }

    #[test]
    fn with_entries_constrains_b() {
        let l = PacketLayout::with_entries(1024, 20, 5).unwrap();
        assert_eq!(l.entries_per_packet(), 5);
        assert!(PacketLayout::with_entries(1024, 20, 16).is_err());
        assert!(PacketLayout::with_entries(1024, 20, 0).is_err());
    }

    #[test]
    fn unsatisfiable_layout_is_an_error() {
        // 64-bit values + 2^60 columns cannot fit a single entry
        // alongside the new_row bit... actually 1*(1+60+64)+1 = 126 fits;
        // use explicit check with value_bits=64 and full u64 index space.
        let r = PacketLayout::solve(usize::MAX, 64);
        // 1 * (1 + 64 + 64) + 1 = 130 <= 512, so even this fits; verify
        // the solver still returns a valid B >= 1.
        assert!(r.unwrap().entries_per_packet() >= 1);
        assert!(PacketLayout::solve(0, 20).is_err());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let solved = PacketLayout::solve(1024, 20).unwrap();
        let rebuilt = PacketLayout::from_parts(
            solved.entries_per_packet(),
            solved.ptr_bits(),
            solved.idx_bits(),
            solved.value_bits(),
        )
        .unwrap();
        assert_eq!(rebuilt, solved);
        // Zero B, wrong ptr width, overflowing fields: all rejected.
        assert!(PacketLayout::from_parts(0, 1, 10, 20).is_err());
        assert!(PacketLayout::from_parts(15, 5, 10, 20).is_err());
        assert!(PacketLayout::from_parts(15, 4, 64, 64).is_err());
        assert!(PacketLayout::from_parts(15, 4, 10, 0).is_err());
    }

    #[test]
    fn packets_and_bytes_accounting() {
        let l = PacketLayout::solve(1024, 20).unwrap();
        assert_eq!(l.packets_for(0), 0);
        assert_eq!(l.packets_for(1), 1);
        assert_eq!(l.packets_for(15), 1);
        assert_eq!(l.packets_for(16), 2);
        assert!((l.operational_intensity() - 15.0 / 64.0).abs() < 1e-12);
    }
}
