//! The 512-bit HBM data packet.

use core::fmt;

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
    /// A field spans at most two of the backing words (`bits <= 64`), so
    /// this compiles to two shifts, an or, and a mask: the packet-decode
    /// hot path calls it three times per entry at wire speed.
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
        extract_field(&self.words, pos, bits, field_mask(bits))
    }
}

/// Streams `count` consecutive `width`-bit fields starting at bit `base`
/// through `f`, reading each backing word at most once (SWAR multi-field
/// extraction).
///
/// The register window `(buf, avail)` maintains the invariant that bits
/// `>= avail` of `buf` are zero, so the fast path is a single
/// mask-shift-subtract per field; a refill (one word load, one
/// merge) runs only when a field straddles a word boundary. Callers
/// guarantee `1 <= width <= 32` and `base + width*count <= 512`; the
/// `& 7` index masking keeps the word accesses provably in-bounds
/// (no panic path in the generated code).
#[inline(always)]
pub(crate) fn for_each_field(
    words: &[u64; 8],
    base: usize,
    width: u32,
    count: usize,
    mut f: impl FnMut(u64),
) {
    debug_assert!(
        (1..=32).contains(&width),
        "SWAR field width must be in 1..=32"
    );
    debug_assert!(
        base + width as usize * count <= PACKET_BITS,
        "{count} fields of {width} bits at position {base} overflow the packet"
    );
    let mask = field_mask(width);
    let mut word_i = base >> 6;
    let offset = (base & 63) as u32;
    let mut buf = words[word_i & 7] >> offset;
    let mut avail = 64 - offset;
    for _ in 0..count {
        if avail >= width {
            f(buf & mask);
            buf >>= width;
            avail -= width;
        } else {
            // Straddle: `buf` holds the field's low `avail` bits (its
            // high bits are zero by the window invariant); the next word
            // supplies the rest. `avail < width <= 32` keeps every shift
            // below in range.
            word_i += 1;
            let next = words[word_i & 7];
            f((buf | (next << avail)) & mask);
            buf = next >> (width - avail);
            avail = 64 - (width - avail);
        }
    }
}

/// Low `bits` set, for masking an extracted field (`bits <= 64`).
#[inline(always)]
pub(crate) fn field_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Branch-light two-word bitfield extract — the single shared core
/// behind both the checked [`Packet512::bits`] and the decode hot loop
/// in the BS-CSR codec.
///
/// The `& 7` index masking makes the word accesses provably in-bounds
/// (no panic path in the generated code); callers guarantee
/// `pos + bits <= 512` — the BS-CSR decoder gets that from the layout
/// solver's `bits_used() <= 512` invariant — so the masking never
/// actually wraps.
#[inline(always)]
pub(crate) fn extract_field(words: &[u64; 8], pos: usize, bits: u32, mask: u64) -> u64 {
    debug_assert!(pos + bits as usize <= PACKET_BITS);
    let word = (pos >> 6) & 7;
    let offset = (pos & 63) as u32;
    let lo = words[word] >> offset;
    // Only fields that actually straddle a word boundary touch the next
    // word (offset > 0 there, so the shift below is in range).
    let hi = if offset + bits > 64 {
        words[(word + 1) & 7] << (64 - offset)
    } else {
        0
    };
    (lo | hi) & mask
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
        // A packet with varied bit patterns in every word.
        let p = Packet512::from_words([
            0x0123_4567_89AB_CDEF,
            0xFEDC_BA98_7654_3210,
            0xA5A5_A5A5_A5A5_A5A5,
            0x5A5A_5A5A_5A5A_5A5A,
            0xFFFF_0000_FFFF_0000,
            0x0000_FFFF_0000_FFFF,
            0xDEAD_BEEF_CAFE_F00D,
            0x1357_9BDF_0246_8ACE,
        ]);
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

    /// The fields `for_each_field` streams, collected.
    fn fields(p: &Packet512, base: usize, width: u32, count: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for_each_field(p.words(), base, width, count, |v| out.push(v));
        out
    }

    #[test]
    fn extract_fields_matches_scalar_bits_on_every_alignment() {
        let p = Packet512::from_words([
            0x0123_4567_89AB_CDEF,
            0xFEDC_BA98_7654_3210,
            0xA5A5_A5A5_A5A5_A5A5,
            0x5A5A_5A5A_5A5A_5A5A,
            0xFFFF_0000_FFFF_0000,
            0x0000_FFFF_0000_FFFF,
            0xDEAD_BEEF_CAFE_F00D,
            0x1357_9BDF_0246_8ACE,
        ]);
        for width in [1u32, 3, 4, 7, 10, 13, 20, 25, 31, 32] {
            for base in 0..64.min(PACKET_BITS - width as usize) {
                let count = (PACKET_BITS - base) / width as usize;
                let out = fields(&p, base, width, count);
                assert_eq!(out.len(), count);
                for (i, &got) in out.iter().enumerate() {
                    let want = p.bits(base + i * width as usize, width);
                    assert_eq!(got, want, "base={base} width={width} field={i}");
                }
            }
        }
    }

    #[test]
    fn extract_fields_zero_count_is_empty() {
        assert!(fields(&Packet512::ZERO, 5, 10, 0).is_empty());
    }

    // `for_each_field` is crate-private and its callers uphold the
    // bounds by construction, so they are debug assertions.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SWAR field width")]
    fn extract_fields_rejects_wide_fields() {
        fields(&Packet512::ZERO, 0, 33, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow the packet")]
    fn extract_fields_rejects_overflowing_run() {
        fields(&Packet512::ZERO, 500, 10, 2);
    }
}
