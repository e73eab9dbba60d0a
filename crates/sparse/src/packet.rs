//! The 512-bit HBM data packet.

use core::fmt;

use crate::layout::PacketLayout;

/// Width of an HBM packet in bits.
///
/// The Alveo U280 HBM memory controllers are most efficient with 256—512
/// bit transactions; the paper's cores read one 512-bit packet per clock
/// cycle from their pseudo-channel.
pub const PACKET_BITS: usize = 512;

/// Width of an HBM packet in bytes.
pub const PACKET_BYTES: usize = PACKET_BITS / 8;

/// A raw 512-bit packet, stored as eight little-endian 64-bit words.
///
/// Bit `i` of the packet is bit `i % 64` of word `i / 64`; field codecs
/// ([`crate::BitWriter`] / [`crate::BitReader`]) lay fields out LSB-first
/// in increasing bit order, mirroring an HLS `ap_uint<512>` slice
/// assignment.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::Packet512;
///
/// let mut p = Packet512::ZERO;
/// p.words_mut()[0] = 0xFF;
/// assert_eq!(p.words()[0], 0xFF);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Packet512 {
    words: [u64; 8],
}

impl Packet512 {
    /// The all-zero packet.
    pub const ZERO: Self = Self { words: [0; 8] };

    /// Creates a packet from eight 64-bit words.
    pub fn from_words(words: [u64; 8]) -> Self {
        Self { words }
    }

    /// Borrows the backing words.
    pub fn words(&self) -> &[u64; 8] {
        &self.words
    }

    /// Mutably borrows the backing words.
    pub fn words_mut(&mut self) -> &mut [u64; 8] {
        &mut self.words
    }

    /// Number of bits set across the packet (useful for tests).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Extracts the `bits`-wide field starting at bit `pos` — the
    /// random-access counterpart of the sequential [`crate::BitReader`].
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64, or if the field would
    /// run past bit 512.
    #[inline]
    pub fn bits(&self, pos: usize, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "field width must be in 1..=64");
        assert!(
            pos + bits as usize <= PACKET_BITS,
            "field of {bits} bits at position {pos} overflows the packet"
        );
        self.field(pos, bits)
    }

    /// The one field-extraction primitive: a branch-free two-word
    /// extract. Everything that reads a packet — [`Packet512::bits`],
    /// [`Packet512::decode_fields`] and through it the engine's chunk
    /// decode and [`crate::PacketScratch`], [`crate::BsCsr::validate`]
    /// — goes through here.
    ///
    /// A field spans at most two backing words. The high word is always
    /// read and shifted in two steps (`<< 1 << (63 - off)`), so an
    /// aligned field (`off = 0`) shifts it out entirely without a
    /// branch or an out-of-range shift; whatever it contributes above
    /// the field is masked off. When `pos` and `bits` are compile-time
    /// constants (the engine's design-layout instantiation) this is a
    /// load, a shift by an immediate and a mask, and the high-word half
    /// disappears for fields that do not straddle.
    ///
    /// Callers guarantee `1 <= bits <= 64` and `pos + bits <= 512` (the
    /// layout's `bits_used() <= 512` invariant); the `& 7` keeps the
    /// word accesses in bounds without a panic path.
    #[inline(always)]
    pub(crate) fn field(&self, pos: usize, bits: u32) -> u64 {
        debug_assert!(
            (1..=64).contains(&bits) && pos + bits as usize <= PACKET_BITS,
            "a {bits}-bit field at position {pos} would overflow the packet"
        );
        let word = pos >> 6;
        let off = (pos & 63) as u32;
        let lo = self.words[word & 7] >> off;
        let hi = (self.words[(word + 1) & 7] << 1) << (63 - off);
        (lo | hi) & (u64::MAX >> (64 - bits))
    }

    /// Slices the packet into its three field arrays, as the hardware's
    /// wiring does (§IV-B): all `B` `ptr` slots into `ptr` (unused slots
    /// read 0), all `B` column indices into `idx`, and all `B` values,
    /// passed through `decode`, into `val`. Returns the `new_row` bit.
    ///
    /// Every slot is sliced, padding included: the loops have the fixed
    /// trip count `B` and nothing else, so with a constant `layout` they
    /// unroll into straight-line extracts with immediate offsets. A
    /// ragged last packet therefore leaves `B - real` padding entries at
    /// the end of `idx`/`val`; the caller cuts them off
    /// ([`crate::BsCsr::entries_in_packet`]).
    ///
    /// This is the engine's chunk-decode step and is generic over
    /// `decode` so that it is compiled — and inlined — in the calling
    /// crate, next to the layout constant it is specialised on.
    ///
    /// # Panics
    ///
    /// Panics if any output slice is shorter than
    /// `layout.entries_per_packet()`.
    #[inline(always)]
    pub fn decode_fields<T>(
        &self,
        layout: PacketLayout,
        ptr: &mut [u32],
        idx: &mut [u32],
        val: &mut [T],
        decode: impl Fn(u64) -> T,
    ) -> bool {
        let b = layout.entries_per_packet() as usize;
        self.fields_into(1, layout.ptr_bits(), &mut ptr[..b], |v| v as u32);
        self.fields_into(layout.idx_base(), layout.idx_bits(), &mut idx[..b], |v| {
            v as u32
        });
        self.fields_into(
            layout.val_base(),
            layout.value_bits(),
            &mut val[..b],
            decode,
        );
        self.words[0] & 1 == 1
    }

    /// `out.len()` consecutive `bits`-wide fields from bit `base` on.
    #[inline(always)]
    fn fields_into<T>(&self, base: usize, bits: u32, out: &mut [T], convert: impl Fn(u64) -> T) {
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = convert(self.field(base + j * bits as usize, bits));
        }
    }
}

impl fmt::Debug for Packet512 {
    /// Renders the packet as 8 hex words, most-significant first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet512[")?;
        for (i, w) in self.words.iter().enumerate().rev() {
            write!(f, "{w:016x}")?;
            if i != 0 {
                write!(f, "_")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet with varied bit patterns in every word.
    const PATTERN: [u64; 8] = [
        0x0123_4567_89AB_CDEF,
        0xFEDC_BA98_7654_3210,
        0xA5A5_A5A5_A5A5_A5A5,
        0x5A5A_5A5A_5A5A_5A5A,
        0xFFFF_0000_FFFF_0000,
        0x0000_FFFF_0000_FFFF,
        0xDEAD_BEEF_CAFE_F00D,
        0x1357_9BDF_0246_8ACE,
    ];

    #[test]
    fn zero_packet_has_no_bits() {
        assert_eq!(Packet512::ZERO.count_ones(), 0);
        assert_eq!(PACKET_BITS, 512);
        assert_eq!(PACKET_BYTES, 64);
    }

    #[test]
    fn words_round_trip() {
        let w = [1, 2, 3, 4, 5, 6, 7, 8];
        let p = Packet512::from_words(w);
        assert_eq!(*p.words(), w);
    }

    #[test]
    fn debug_renders_hex() {
        let p = Packet512::from_words([0xAB, 0, 0, 0, 0, 0, 0, 0]);
        let s = format!("{p:?}");
        assert!(s.contains("00000000000000ab"), "{s}");
    }

    #[test]
    fn bits_matches_sequential_reader_on_every_alignment() {
        let p = Packet512::from_words(PATTERN);
        for bits in [1u32, 4, 10, 20, 33, 64] {
            for pos in 0..(PACKET_BITS - bits as usize + 1) {
                let mut r = crate::BitReader::new(&p);
                r.skip(pos as u32);
                assert_eq!(p.bits(pos, bits), r.read(bits), "pos={pos} bits={bits}");
            }
        }
    }

    #[test]
    fn bits_reads_last_field_of_packet() {
        let mut p = Packet512::ZERO;
        p.words_mut()[7] = 0xF000_0000_0000_0000;
        assert_eq!(p.bits(508, 4), 0xF);
        assert_eq!(p.bits(448, 64), 0xF000_0000_0000_0000);
    }

    #[test]
    #[should_panic(expected = "overflows the packet")]
    fn bits_rejects_out_of_range_field() {
        let _ = Packet512::ZERO.bits(509, 4);
    }

    /// `count` consecutive fields, sliced as the decode loops slice them.
    fn fields(p: &Packet512, base: usize, width: u32, count: usize) -> Vec<u64> {
        let mut out = vec![0; count];
        p.fields_into(base, width, &mut out, |v| v);
        out
    }

    #[test]
    fn extract_fields_matches_scalar_bits_on_every_alignment() {
        let p = Packet512::from_words(PATTERN);
        for width in [1u32, 3, 4, 7, 10, 13, 20, 25, 31, 32, 33, 47, 64] {
            for base in 0..64.min(PACKET_BITS - width as usize) {
                let count = (PACKET_BITS - base) / width as usize;
                let out = fields(&p, base, width, count);
                // The sequential reader shares no code with `field`.
                let mut oracle = crate::BitReader::new(&p);
                oracle.skip(base as u32);
                for (i, &got) in out.iter().enumerate() {
                    assert_eq!(
                        got,
                        oracle.read(width),
                        "base={base} width={width} field={i}"
                    );
                    assert_eq!(got, p.bits(base + i * width as usize, width));
                }
            }
        }
    }

    #[test]
    fn extract_fields_zero_count_is_empty() {
        assert!(fields(&Packet512::ZERO, 5, 10, 0).is_empty());
    }

    // `field` is crate-private and its callers uphold the bounds by
    // construction (`bits_used() <= 512`), so it is a debug assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow the packet")]
    fn extract_fields_rejects_overflowing_run() {
        fields(&Packet512::ZERO, 500, 10, 2);
    }

    #[test]
    fn decode_fields_slices_every_slot_of_design_submaximal_and_wide_ptr_layouts() {
        let p = Packet512::from_words(PATTERN);
        for layout in [
            PacketLayout::paper(20),
            PacketLayout::paper(32),
            PacketLayout::with_entries(1024, 20, 5).unwrap(),
            // B = 56, 6-bit ptr: a ptr region far wider than one word.
            PacketLayout::solve(2, 2).unwrap(),
            PacketLayout::solve(1 << 40, 64).unwrap(),
        ] {
            let b = layout.entries_per_packet() as usize;
            let (mut ptr, mut idx, mut val) = (vec![9; b + 1], vec![9; b + 1], vec![9u64; b + 1]);
            let new_row = p.decode_fields(layout, &mut ptr, &mut idx, &mut val, |raw| !raw);
            assert!(new_row, "bit 0 of the pattern is set");
            let mut oracle = crate::BitReader::new(&p);
            oracle.skip(1);
            for (what, got) in [("ptr", &ptr), ("idx", &idx)] {
                let bits = if what == "ptr" {
                    layout.ptr_bits()
                } else {
                    layout.idx_bits()
                };
                for (j, &g) in got[..b].iter().enumerate() {
                    assert_eq!(g, oracle.read(bits) as u32, "{layout:?} {what}[{j}]");
                }
                assert_eq!(got[b], 9, "nothing written past B");
            }
            for (j, &g) in val[..b].iter().enumerate() {
                assert_eq!(g, !oracle.read(layout.value_bits()), "{layout:?} val[{j}]");
            }
            assert_eq!(val[b], 9);
        }
    }
}
