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
/// Bit `i` of the packet is bit `i % 64` of word `i / 64`; a field is
/// laid out LSB-first in increasing bit order, mirroring an HLS
/// `ap_uint<512>` slice assignment. The BS-CSR fields are written by
/// `Packet512::encode_fields` (the encoder's one packet writer) at the
/// positions [`Packet512::decode_fields`] reads the entries from and
/// [`crate::BsCsr::validate`] walks the `new_row` bit and `ptr` slots at.
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

    /// The one field-extraction primitive: a branch-free two-word
    /// extract. Its users are [`Packet512::decode_fields`] (and through
    /// it the engine's chunk decode and [`crate::BsCsr::decode`]) and
    /// the `ptr`/`idx` scans of [`crate::BsCsr::validate`] — the only
    /// reader of `ptr`;
    /// [`Packet512::set_field`] is its write twin, used only by
    /// `Packet512::encode_fields`.
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

    /// The write twin of [`Packet512::field`]: ORs `value` into the
    /// (still zero) `bits`-wide field at bit `pos`, with the same word /
    /// offset arithmetic. The bits above the low word's `64 - off` go to
    /// the next word through the same two-step shift, so an aligned field
    /// writes nothing there; a field ending in word 7 ORs zero into
    /// word 0 through the `& 7`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in 1..=64, if the field would run past
    /// bit 512, or if `value` does not fit in `bits` bits.
    #[inline(always)]
    fn set_field(&mut self, pos: usize, bits: u32, value: u64) {
        assert!((1..=64).contains(&bits), "field width must be in 1..=64");
        assert!(
            pos + bits as usize <= PACKET_BITS,
            "field of {bits} bits at position {pos} overflows the packet"
        );
        assert!(
            bits == 64 || value >> bits == 0,
            "value {value:#x} does not fit in {bits} bits"
        );
        let word = pos >> 6;
        let off = (pos & 63) as u32;
        self.words[word] |= value << off;
        self.words[(word + 1) & 7] |= (value >> 1) >> (63 - off);
    }

    /// Builds one BS-CSR packet, with `idx`/`val` where
    /// [`Packet512::decode_fields`] reads them: `new_row` at
    /// bit 0, then the `B` slots of `ptr`, `idx` and `val` from bit 1,
    /// `idx_base()` and `val_base()`. Every slot is written, padding
    /// included, so unused slots must hold 0.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than `layout.entries_per_packet()`
    /// or a value does not fit its field.
    pub(crate) fn encode_fields(
        layout: PacketLayout,
        new_row: bool,
        ptr: &[u32],
        idx: &[u32],
        val: &[u64],
    ) -> Self {
        let b = layout.entries_per_packet() as usize;
        let mut packet = Self::ZERO;
        packet.set_field(0, 1, u64::from(new_row));
        packet.fields_from(1, layout.ptr_bits(), ptr[..b].iter().map(|&v| v.into()));
        packet.fields_from(
            layout.idx_base(),
            layout.idx_bits(),
            idx[..b].iter().map(|&v| v.into()),
        );
        packet.fields_from(
            layout.val_base(),
            layout.value_bits(),
            val[..b].iter().copied(),
        );
        packet
    }

    /// Writes consecutive `bits`-wide fields from bit `base` on.
    #[inline(always)]
    fn fields_from(&mut self, base: usize, bits: u32, values: impl Iterator<Item = u64>) {
        for (j, value) in values.enumerate() {
            self.set_field(base + j * bits as usize, bits, value);
        }
    }

    /// Slices the packet's entries, as the hardware's wiring does
    /// (§IV-B): all `B` column indices into `idx`, and all `B` values,
    /// passed through `decode`, into `val`. The `new_row` bit and the
    /// `ptr` slots are not read: a [`crate::BsCsr`] records its row ends
    /// once ([`crate::BsCsr::row_ends`]), so replay needs only the
    /// entries.
    ///
    /// Every slot is sliced, padding included: the loops have the fixed
    /// trip count `B` and nothing else, so with a constant `layout` they
    /// unroll into straight-line extracts with immediate offsets. A
    /// ragged last packet therefore leaves `B - real` padding entries at
    /// the end of `idx`/`val`; the caller cuts them off at the stream's
    /// entry count ([`crate::BsCsr::stored_entries`]).
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
        idx: &mut [u32],
        val: &mut [T],
        decode: impl Fn(u64) -> T,
    ) {
        let b = layout.entries_per_packet() as usize;
        self.fields_into(layout.idx_base(), layout.idx_bits(), &mut idx[..b], |v| {
            v as u32
        });
        self.fields_into(
            layout.val_base(),
            layout.value_bits(),
            &mut val[..b],
            decode,
        );
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

    /// Bit-by-bit reference read of the `bits`-wide field at `pos`; it
    /// shares no code with `field` / `set_field`.
    fn oracle(p: &Packet512, pos: usize, bits: u32) -> u64 {
        (0..bits as usize).fold(0, |acc, i| {
            acc | ((p.words[(pos + i) / 64] >> ((pos + i) % 64)) & 1) << i
        })
    }

    /// The layouts the slot tests walk: the design layouts, a
    /// submaximal `B`, and `ptr` regions far wider than one word.
    fn layouts() -> [PacketLayout; 5] {
        [
            PacketLayout::paper(20),
            PacketLayout::paper(32),
            PacketLayout::with_entries(1024, 20, 5).unwrap(),
            // B = 56, 6-bit ptr.
            PacketLayout::solve(2, 2).unwrap(),
            PacketLayout::solve(1 << 40, 64).unwrap(),
        ]
    }

    #[test]
    fn zero_packet_has_no_bits() {
        assert_eq!(*Packet512::ZERO.words(), [0; 8]);
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
                assert_eq!(
                    p.field(pos, bits),
                    oracle(&p, pos, bits),
                    "pos={pos} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn bits_reads_last_field_of_packet() {
        let mut p = Packet512::ZERO;
        p.words_mut()[7] = 0xF000_0000_0000_0000;
        assert_eq!(p.field(508, 4), 0xF);
        assert_eq!(p.field(448, 64), 0xF000_0000_0000_0000);
    }

    #[test]
    fn set_field_writes_exactly_its_bits_on_every_alignment() {
        for bits in [1u32, 4, 10, 20, 33, 63, 64] {
            let value = PATTERN[bits as usize % 8] & (u64::MAX >> (64 - bits));
            for pos in 0..(PACKET_BITS - bits as usize + 1) {
                let mut p = Packet512::ZERO;
                p.set_field(pos, bits, value);
                assert_eq!(oracle(&p, pos, bits), value, "pos={pos} bits={bits}");
                assert_eq!(p.field(pos, bits), value, "pos={pos} bits={bits}");
                // Nothing outside the field is touched.
                let ones: u32 = p.words.iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones, value.count_ones(), "pos={pos} bits={bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the packet")]
    fn set_field_rejects_out_of_range_field() {
        let mut p = Packet512::ZERO;
        p.set_field(509, 4, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_field_rejects_oversized_value() {
        let mut p = Packet512::ZERO;
        p.set_field(0, 4, 0x10);
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
                for (i, &got) in out.iter().enumerate() {
                    let pos = base + i * width as usize;
                    assert_eq!(
                        got,
                        oracle(&p, pos, width),
                        "base={base} width={width} field={i}"
                    );
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

    /// Field `j` of a region of `width`-bit fields that starts at `base`,
    /// read by the oracle.
    fn slot(p: &Packet512, base: usize, width: u32, j: usize) -> u64 {
        oracle(p, base + j * width as usize, width)
    }

    #[test]
    fn decode_fields_slices_every_slot_of_design_submaximal_and_wide_ptr_layouts() {
        let p = Packet512::from_words(PATTERN);
        for layout in layouts() {
            let b = layout.entries_per_packet() as usize;
            let (pb, ib, vb) = (layout.ptr_bits(), layout.idx_bits(), layout.value_bits());
            let (idx_base, val_base) = (1 + b * pb as usize, 1 + b * (pb + ib) as usize);
            let (mut idx, mut val) = (vec![9; b + 1], vec![9u64; b + 1]);
            p.decode_fields(layout, &mut idx, &mut val, |raw| !raw);
            for j in 0..b {
                // Slots are narrowed to u32 as the decode narrows them.
                assert_eq!(
                    idx[j],
                    slot(&p, idx_base, ib, j) as u32,
                    "{layout:?} idx[{j}]"
                );
                assert_eq!(val[j], !slot(&p, val_base, vb, j), "{layout:?} val[{j}]");
            }
            assert_eq!((idx[b], val[b]), (9, 9), "nothing written past B");
        }
    }

    #[test]
    fn encode_fields_writes_every_slot_where_decode_fields_reads_it() {
        for layout in layouts() {
            let b = layout.entries_per_packet() as usize;
            let (pb, ib, vb) = (layout.ptr_bits(), layout.idx_bits(), layout.value_bits());
            let mask = |bits: u32, word: u64| word & (u64::MAX >> (64 - bits));
            let ptr: Vec<u32> = (0..b).map(|j| mask(pb, PATTERN[j % 8]) as u32).collect();
            let idx: Vec<u32> = (0..b)
                .map(|j| mask(ib, PATTERN[(j + 3) % 8]) as u32)
                .collect();
            let val: Vec<u64> = (0..b).map(|j| mask(vb, PATTERN[(j + 5) % 8])).collect();
            for new_row in [false, true] {
                let p = Packet512::encode_fields(layout, new_row, &ptr, &idx, &val);
                let (idx_base, val_base) = (1 + b * pb as usize, 1 + b * (pb + ib) as usize);
                assert_eq!(oracle(&p, 0, 1), u64::from(new_row));
                for j in 0..b {
                    assert_eq!(slot(&p, 1, pb, j), ptr[j] as u64, "{layout:?} ptr[{j}]");
                    assert_eq!(
                        slot(&p, idx_base, ib, j),
                        idx[j] as u64,
                        "{layout:?} idx[{j}]"
                    );
                    assert_eq!(slot(&p, val_base, vb, j), val[j], "{layout:?} val[{j}]");
                }
                // The padding past `bits_used()` stays zero.
                let used = layout.bits_used() as usize;
                assert!((used..PACKET_BITS).all(|pos| oracle(&p, pos, 1) == 0));
                let (mut di, mut dv) = (vec![0; b], vec![0u64; b]);
                p.decode_fields(layout, &mut di, &mut dv, |raw| raw);
                assert_eq!((di, dv), (idx.clone(), val.clone()));
            }
        }
    }
}
