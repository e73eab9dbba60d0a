//! Block-Streaming CSR (BS-CSR), the paper's novel sparse format.
//!
//! Every 512-bit packet is an independent CSR micro-partition: it stores
//! `B` non-zero entries (`idx`, `val` pairs) plus packet-local metadata
//! that makes streaming row reconstruction possible without any
//! data-dependent memory access:
//!
//! - `new_row` (1 bit): whether the packet's first entry starts a new
//!   row, or continues the row left unfinished by the previous packet;
//! - `ptr[B]` (each `ceil(log2(B + 1))` bits): for each row that
//!   *terminates inside this packet*, in order, the cumulative entry
//!   count at which it ends (1-based); unused slots hold 0, which is
//!   unambiguous because no row can end after zero entries.
//!
//! Empty rows are materialised as placeholder `(idx = 0, val = 0)`
//! entries so that positional row counting stays correct (the paper does
//! the same; its application domain never produces empty rows).
//!
//! # Row ends
//!
//! The hardware slices a packet's `ptr` slots for free on every clock;
//! software would pay for them on every query. So every [`BsCsr`] also
//! carries its **row ends** ([`BsCsr::row_ends`]): per row, where it
//! ends in the stored-entry stream, grouped by replay chunk of
//! [`BsCsr::CHUNK_PACKETS`] packets, plus how many rows end as the
//! first, second, … row of their packet. They are derived data: the
//! encoder records each end as it writes that `ptr` slot, and
//! [`BsCsr::from_parts`] collects them inside the `ptr` walk that
//! validates the stream, so neither walks the packets a second time.
//! They are never persisted (snapshots hold the packets alone) and cost
//! two bytes per row plus four per chunk. Once a stream is built its
//! packets cannot change, so the ends never go stale; after that, `ptr`
//! is read only by [`BsCsr::validate`].

use tkspmv_fixed::SpmvScalar;

use crate::csr::Csr;
use crate::error::SparseError;
use crate::layout::PacketLayout;
use crate::packet::{Packet512, PACKET_BYTES};

/// A sparse matrix encoded as a stream of BS-CSR packets.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::{BsCsr, Csr, PacketLayout};
/// use tkspmv_fixed::Q1_19;
///
/// let csr = Csr::from_triplets(2, 8, &[(0, 3, 0.5), (1, 1, 0.25), (1, 7, 0.75)])?;
/// let bs = BsCsr::encode::<Q1_19>(&csr, PacketLayout::solve(8, 20)?);
/// assert_eq!(bs.num_packets(), 1);
/// assert_eq!(bs.size_bytes(), 64);
/// # Ok::<(), tkspmv_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BsCsr {
    layout: PacketLayout,
    packets: Vec<Packet512>,
    num_rows: usize,
    num_cols: usize,
    /// Stored entries, including empty-row placeholders.
    stored_entries: u64,
    /// Non-zeros in the source matrix (excludes placeholders).
    logical_nnz: u64,
    /// Where each row ends; derived from `packets`, never persisted.
    row_ends: RowEnds,
}

/// The row ends of a stream (see the module docs), in the form replay
/// reads them.
#[derive(Debug, Clone, PartialEq)]
struct RowEnds {
    /// `chunk_rows[c]` is the first row that ends in chunk `c` or later:
    /// rows `chunk_rows[c]..chunk_rows[c + 1]` end in chunk `c`. One
    /// entry per chunk plus a last one holding the row count.
    chunk_rows: Vec<u32>,
    /// Per row, its end counted in entries from its chunk's first entry:
    /// the row's last entry is `ends[row] - 1`. A packet holds at most
    /// 255 entries (each spends at least one `ptr` and one value bit of
    /// 512), so an end is at most `64 · 255` and fits 16 bits.
    ends: Vec<u16>,
    /// `by_ordinal[j]` counts the rows that are the `j`-th (from 0) to
    /// end in their packet; `B` entries.
    by_ordinal: Vec<u64>,
}

impl RowEnds {
    fn with_capacity(entries_per_packet: usize, rows: usize, packets: usize) -> Self {
        let mut chunk_rows = Vec::with_capacity(packets.div_ceil(BsCsr::CHUNK_PACKETS) + 1);
        chunk_rows.push(0);
        Self {
            chunk_rows,
            ends: Vec::with_capacity(rows),
            by_ordinal: vec![0; entries_per_packet],
        }
    }

    /// Records the next row: it ends at the 1-based in-packet count
    /// `end` of packet `packet` (of `b` entries), as the `ordinal`-th row
    /// to end there.
    fn push(&mut self, b: usize, packet: usize, end: u32, ordinal: usize) {
        let chunk = packet / BsCsr::CHUNK_PACKETS;
        while self.chunk_rows.len() <= chunk {
            self.chunk_rows.push(self.ends.len() as u32);
        }
        let in_chunk = (packet % BsCsr::CHUNK_PACKETS) * b + end as usize;
        debug_assert!(
            in_chunk <= u16::MAX as usize,
            "B <= 255 keeps ends in 16 bits"
        );
        self.ends.push(in_chunk as u16);
        self.by_ordinal[ordinal] += 1;
    }

    /// Closes the chunk list of a stream of `packets` packets.
    fn finish(mut self, packets: usize) -> Self {
        while self.chunk_rows.len() <= packets.div_ceil(BsCsr::CHUNK_PACKETS) {
            self.chunk_rows.push(self.ends.len() as u32);
        }
        self
    }
}

impl BsCsr {
    /// Packets per replay chunk, the unit in which [`BsCsr::row_ends`]
    /// groups the row ends: the engine slices this many packets at a
    /// time and replays the rows ending in them. Chunk-relative ends
    /// keep the recorded ends at 16 bits.
    pub const CHUNK_PACKETS: usize = 64;

    /// Encodes a CSR matrix into BS-CSR packets, quantising values with
    /// the scalar type `S`.
    ///
    /// # Panics
    ///
    /// Panics if `layout.value_bits() != S::VALUE_BITS` or if the matrix
    /// has more columns than `layout.idx_bits()` can address.
    pub fn encode<S: SpmvScalar>(csr: &Csr, layout: PacketLayout) -> Self {
        assert_eq!(
            layout.value_bits(),
            S::VALUE_BITS,
            "layout value width does not match scalar type"
        );
        assert!(
            csr.num_cols() <= 1usize << layout.idx_bits(),
            "matrix has {} columns but layout indexes only {}",
            csr.num_cols(),
            1usize << layout.idx_bits()
        );

        // Every row stores at least one entry: an empty row stores one
        // placeholder `(0, 0)`.
        let stored_entries: u64 = (0..csr.num_rows())
            .map(|r| csr.row_nnz(r).max(1) as u64)
            .sum();
        let b = layout.entries_per_packet() as usize;
        let num_packets = layout.packets_for(stored_entries) as usize;
        let mut packets = Vec::with_capacity(num_packets);
        let mut row_ends = RowEnds::with_capacity(b, csr.num_rows(), num_packets);
        // The packet being filled: `fill` entries, `ends` row ends so far
        // (each the 1-based in-packet count at which a row ends).
        let (mut ptr, mut idx, mut val) = (vec![0u32; b], vec![0u32; b], vec![0u64; b]);
        let (mut fill, mut ends) = (0usize, 0usize);
        let mut new_row = true;
        for r in 0..csr.num_rows() {
            let nnz = csr.row_nnz(r);
            let last = nnz.max(1);
            let entries = csr.row(r).map(|(c, v)| (c, S::encode(v as f64)));
            let placeholder = (nnz == 0).then_some((0, 0));
            for (j, (c, raw)) in entries.chain(placeholder).enumerate() {
                idx[fill] = c;
                val[fill] = raw;
                fill += 1;
                if j + 1 == last {
                    ptr[ends] = fill as u32;
                    row_ends.push(b, packets.len(), fill as u32, ends);
                    ends += 1;
                }
                if fill == b {
                    packets.push(Packet512::encode_fields(layout, new_row, &ptr, &idx, &val));
                    // The next packet continues a row unless this entry
                    // ended one.
                    new_row = j + 1 == last;
                    ptr.fill(0);
                    (fill, ends) = (0, 0);
                }
            }
        }
        if fill > 0 {
            idx[fill..].fill(0);
            val[fill..].fill(0);
            packets.push(Packet512::encode_fields(layout, new_row, &ptr, &idx, &val));
        }

        Self {
            layout,
            row_ends: row_ends.finish(packets.len()),
            packets,
            num_rows: csr.num_rows(),
            num_cols: csr.num_cols(),
            stored_entries,
            logical_nnz: csr.nnz() as u64,
        }
    }

    /// Reconstructs an encoded matrix from its raw parts — the path a
    /// persisted snapshot takes back into memory, skipping the encode.
    ///
    /// The counts are cross-checked against the packet stream and the
    /// stream's structural invariants are fully revalidated with
    /// [`BsCsr::validate`]'s checks: bytes from disk (or device readback)
    /// are untrusted until proven consistent. The row ends are collected
    /// inside that same `ptr` walk.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionTooLarge`] if `num_cols` exceeds what the
    /// layout's `idx` field can address, [`SparseError::CorruptPacketStream`]
    /// for any count or invariant violation.
    pub fn from_parts(
        layout: PacketLayout,
        packets: Vec<Packet512>,
        num_rows: usize,
        num_cols: usize,
        stored_entries: u64,
        logical_nnz: u64,
    ) -> Result<Self, SparseError> {
        if num_cols > 1usize << layout.idx_bits().min(63) {
            return Err(SparseError::DimensionTooLarge {
                detail: format!(
                    "{num_cols} columns exceed the layout's {}-bit index field",
                    layout.idx_bits()
                ),
            });
        }
        let corrupt = |detail: String| SparseError::CorruptPacketStream { detail };
        if packets.len() as u64 != layout.packets_for(stored_entries) {
            return Err(corrupt(format!(
                "{} packets cannot hold exactly {stored_entries} entries at B = {}",
                packets.len(),
                layout.entries_per_packet()
            )));
        }
        if logical_nnz > stored_entries {
            return Err(corrupt(format!(
                "logical nnz {logical_nnz} exceeds {stored_entries} stored entries"
            )));
        }
        if stored_entries < num_rows as u64 {
            return Err(corrupt(format!(
                "{stored_entries} stored entries cannot terminate {num_rows} rows \
                 (every row stores at least a placeholder)"
            )));
        }
        let mut matrix = Self {
            layout,
            packets,
            num_rows,
            num_cols,
            stored_entries,
            logical_nnz,
            row_ends: RowEnds::with_capacity(0, 0, 0),
        };
        matrix.row_ends = matrix.walk().map_err(corrupt)?;
        Ok(matrix)
    }

    /// The packet layout in use.
    pub fn layout(&self) -> PacketLayout {
        self.layout
    }

    /// The raw packet stream.
    pub fn packets(&self) -> &[Packet512] {
        &self.packets
    }

    /// Number of packets.
    pub fn num_packets(&self) -> usize {
        self.packets.len()
    }

    /// Number of matrix rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of matrix columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Stored entries including empty-row placeholders.
    pub fn stored_entries(&self) -> u64 {
        self.stored_entries
    }

    /// Non-zeros in the source matrix.
    pub fn logical_nnz(&self) -> u64 {
        self.logical_nnz
    }

    /// The packet footprint in bytes (whole 64-byte packets) — the
    /// quantity reported in Table III. The row ends are not counted: they
    /// are a host-side replay aid, not part of the format.
    pub fn size_bytes(&self) -> u64 {
        self.packets.len() as u64 * PACKET_BYTES as u64
    }

    /// The stream's row ends (see the module docs), recorded once at
    /// encode or load: `(chunk_rows, ends, rows_by_ordinal)`.
    ///
    /// - Rows `chunk_rows[c]..chunk_rows[c + 1]` are the rows that end in
    ///   chunk `c`, the packets from `c ·`[`BsCsr::CHUNK_PACKETS`] on;
    ///   `chunk_rows` has one entry per chunk plus one.
    /// - `ends[row]` is where that row ends, counted in entries from its
    ///   chunk's first entry (its last entry is `ends[row] - 1`), so the
    ///   row is packet `(ends[row] - 1) / B` of its chunk. A row starts
    ///   where the previous row of its chunk ends, or — for a chunk's
    ///   first row — at the chunk's first entry, continuing whatever the
    ///   previous chunk left open.
    /// - `rows_by_ordinal[j]` counts the rows that are the `j`-th (from
    ///   0) to end in their packet, so an `r` gate admits the sum of the
    ///   first `r` counts.
    ///
    /// Their footprint is `size_of_val` of the three slices.
    pub fn row_ends(&self) -> (&[u32], &[u16], &[u64]) {
        let ends = &self.row_ends;
        (&ends.chunk_rows, &ends.ends, &ends.by_ordinal)
    }

    /// Number of *real* entries in packet `i` (the last packet may be
    /// partially filled); 0 for any `i` past the end of the stream.
    #[inline]
    pub(crate) fn entries_in_packet(&self, i: usize) -> usize {
        let b = self.layout.entries_per_packet() as u64;
        let consumed = (i as u64).saturating_mul(b);
        self.stored_entries.saturating_sub(consumed).min(b) as usize
    }

    /// Checks the structural invariants of the packet stream, as a host
    /// would before trusting data read back from device memory:
    ///
    /// - every packet's `ptr` entries are strictly increasing and within
    ///   the packet's real entry count;
    /// - `new_row` bits are consistent with the previous packet's tail
    ///   (a packet may only continue a row that was left unfinished);
    /// - the total number of terminated rows equals `num_rows`;
    /// - the recorded row ends ([`BsCsr::row_ends`]) are the ones the
    ///   `ptr` slots spell.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    ///
    /// # Performance
    ///
    /// Only the `new_row` bit and the `ptr` region of each packet are
    /// decoded — the `idx`/`val` fields play no part in the structural
    /// invariants, except for the column-range scan described below — so
    /// validating is several times cheaper than a full decode pass. This
    /// matters on the snapshot-load path, whose whole point is to be
    /// much cheaper than re-encoding while still distrusting every byte
    /// it reads.
    pub fn validate(&self) -> Result<(), String> {
        if self.walk()? != self.row_ends {
            return Err("recorded row ends disagree with the ptr slots".to_string());
        }
        Ok(())
    }

    /// [`BsCsr::validate`]'s checks, collecting the row ends as its `ptr`
    /// walk passes them.
    fn walk(&self) -> Result<RowEnds, String> {
        let b = self.layout.entries_per_packet() as usize;
        let ptr_bits = self.layout.ptr_bits();
        let mut row_ends = RowEnds::with_capacity(b, self.num_rows, self.num_packets());
        let mut rows_terminated = 0u64;
        let mut prev_tail_open = false;
        for p in 0..self.num_packets() {
            let real = self.entries_in_packet(p);
            let packet = &self.packets[p];
            let new_row = packet.words()[0] & 1 == 1;
            if p == 0 && !new_row {
                return Err("packet 0 cannot continue a previous row".to_string());
            }
            if p > 0 && new_row == prev_tail_open {
                return Err(format!(
                    "packet {p}: new_row={new_row} contradicts previous packet tail \
                     (open={prev_tail_open})"
                ));
            }
            // Walk the ptr slots exactly as the decoders do (non-zero
            // entries are row ends), without touching the idx/val
            // regions.
            let mut prev_end = 0u32;
            let mut ends_in_packet = 0u64;
            for j in 0..b {
                let end = packet.field(1 + j * ptr_bits as usize, ptr_bits) as u32;
                if end == 0 {
                    continue;
                }
                if end <= prev_end {
                    return Err(format!(
                        "packet {p}: ptr entries not strictly increasing ({end} after {prev_end})"
                    ));
                }
                if end as usize > real {
                    return Err(format!(
                        "packet {p}: row end {end} beyond {real} real entries"
                    ));
                }
                row_ends.push(b, p, end, ends_in_packet as usize);
                prev_end = end;
                ends_in_packet += 1;
            }
            rows_terminated += ends_in_packet;
            // Entries after the last row end (the whole packet if no row
            // ends here) carry into the next packet.
            prev_tail_open = real > prev_end as usize;
        }
        // Column indices must address the dense vector: the engine's
        // gather is `x[idx]`, so an out-of-range index in a doctored
        // stream would be a query-time panic, not a typed error. When
        // `num_cols` fills the idx field exactly (a power of two) every
        // encodable value is in range and the scan is skipped — the
        // common case pays nothing.
        if (self.num_cols as u64) < 1u64 << self.layout.idx_bits().min(63) {
            let idx_bits = self.layout.idx_bits();
            let idx_base = self.layout.idx_base();
            for (p, packet) in self.packets.iter().enumerate() {
                for j in 0..self.entries_in_packet(p) {
                    let idx = packet.field(idx_base + j * idx_bits as usize, idx_bits);
                    if idx >= self.num_cols as u64 {
                        return Err(format!(
                            "packet {p} entry {j}: column index {idx} outside {} columns",
                            self.num_cols
                        ));
                    }
                }
            }
        }
        if prev_tail_open {
            return Err("stream ends with an unterminated row".to_string());
        }
        if rows_terminated != self.num_rows as u64 {
            return Err(format!(
                "stream terminates {rows_terminated} rows, matrix declares {}",
                self.num_rows
            ));
        }
        Ok(row_ends.finish(self.num_packets()))
    }

    /// Every row's end as a 1-based position in the whole stored-entry
    /// stream, in row order.
    fn row_end_positions(&self) -> impl Iterator<Item = u64> + '_ {
        let chunk_entries =
            (Self::CHUNK_PACKETS * self.layout.entries_per_packet() as usize) as u64;
        let RowEnds {
            chunk_rows, ends, ..
        } = &self.row_ends;
        chunk_rows
            .windows(2)
            .enumerate()
            .flat_map(move |(c, rows)| {
                ends[rows[0] as usize..rows[1] as usize]
                    .iter()
                    .map(move |&end| c as u64 * chunk_entries + u64::from(end))
            })
    }

    /// Decodes back to CSR: each packet's entries are sliced with
    /// [`Packet512::decode_fields`] and a row closes at each recorded row
    /// end ([`BsCsr::row_ends`]). Placeholder entries for empty rows are
    /// removed (a row whose one entry is column 0 with value 0 decodes
    /// empty); quantised values are reconstructed through `S`.
    ///
    /// # Panics
    ///
    /// Panics if `S::VALUE_BITS` does not match the layout.
    #[expect(
        clippy::unwrap_used,
        clippy::expect_used,
        reason = "invariant: row_ptr starts with one entry, and a validated stream encoded from a \
                  valid Csr decodes to one"
    )]
    pub fn decode<S: SpmvScalar>(&self) -> Csr {
        assert_eq!(self.layout.value_bits(), S::VALUE_BITS);
        let b = self.layout.entries_per_packet() as usize;
        let (mut idx, mut raw) = (vec![0u32; b], vec![0u64; b]);
        let mut row_ptr = Vec::with_capacity(self.num_rows + 1);
        row_ptr.push(0u64);
        let mut col_idx = Vec::with_capacity(self.logical_nnz as usize);
        let mut values = Vec::with_capacity(self.logical_nnz as usize);
        let mut row_ends = self.row_end_positions().peekable();
        for (p, packet) in self.packets.iter().enumerate() {
            packet.decode_fields(self.layout, &mut idx, &mut raw, |r| r);
            for j in 0..self.entries_in_packet(p) {
                col_idx.push(idx[j]);
                values.push(S::decode(raw[j]).value_to_f64() as f32);
                if row_ends.next_if_eq(&((p * b + j + 1) as u64)).is_some() {
                    let start = *row_ptr.last().unwrap() as usize;
                    if col_idx.len() == start + 1 && col_idx[start] == 0 && values[start] == 0.0 {
                        col_idx.pop();
                        values.pop();
                    }
                    row_ptr.push(col_idx.len() as u64);
                }
            }
        }
        Csr::from_parts(self.num_rows, self.num_cols, row_ptr, col_idx, values)
            .expect("decoded rows are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_fixed::{F32, Q1_19, Q1_31};

    fn layout20(cols: usize) -> PacketLayout {
        PacketLayout::solve(cols, 20).unwrap()
    }

    /// Packet `i` sliced by `decode_fields` and cut to its real entries.
    struct View {
        new_row: bool,
        /// The non-zero `ptr` slots, which must equal the recorded row
        /// ends that fall in this packet.
        row_ends: Vec<u32>,
        idx: Vec<u32>,
        val: Vec<u64>,
    }

    impl View {
        fn len(&self) -> usize {
            self.idx.len()
        }

        /// Entries after the last row end, carried into the next packet.
        fn tail_len(&self) -> usize {
            self.len() - self.row_ends.last().copied().unwrap_or(0) as usize
        }
    }

    fn view(bs: &BsCsr, i: usize) -> View {
        let layout = bs.layout();
        let b = layout.entries_per_packet() as usize;
        let packet = &bs.packets()[i];
        let (mut idx, mut val) = (vec![0; b], vec![0; b]);
        packet.decode_fields(layout, &mut idx, &mut val, |r| r);
        idx.truncate(bs.entries_in_packet(i));
        val.truncate(bs.entries_in_packet(i));
        let pb = layout.ptr_bits();
        let row_ends: Vec<u32> = (0..b)
            .map(|j| packet.field(1 + j * pb as usize, pb) as u32)
            .filter(|&end| end != 0)
            .collect();
        let first = (i * b) as u64;
        let recorded: Vec<u32> = bs
            .row_end_positions()
            .filter(|&end| end > first && end <= first + b as u64)
            .map(|end| (end - first) as u32)
            .collect();
        assert_eq!(row_ends, recorded, "packet {i}: ptr slots vs recorded ends");
        View {
            new_row: packet.words()[0] & 1 == 1,
            row_ends,
            idx,
            val,
        }
    }

    /// Asserts two matrices have identical structure and values equal up
    /// to the quantisation error of a 20-bit format.
    fn assert_csr_close(a: &Csr, b: &Csr) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_idx(), b.col_idx());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() < 2e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn single_packet_encode_decode() {
        let csr = Csr::from_triplets(
            3,
            8,
            &[(0, 1, 0.5), (0, 3, 0.25), (1, 0, 1.0), (2, 2, 0.75)],
        )
        .unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(8));
        assert_eq!(bs.num_packets(), 1);
        assert_eq!(bs.stored_entries(), 4);
        let v = view(&bs, 0);
        assert!(v.new_row);
        assert_eq!(v.row_ends, vec![2, 3, 4]);
        assert_eq!(v.idx, vec![1, 3, 0, 2]);
        assert_eq!(bs.decode::<Q1_19>(), csr);
    }

    #[test]
    fn row_spanning_packets_sets_new_row_bit() {
        // One row with 20 entries, B = 15: spans two packets.
        let triplets: Vec<(u32, u32, f32)> =
            (0..20).map(|c| (0, c, 0.01 * (c + 1) as f32)).collect();
        let csr = Csr::from_triplets(1, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        assert_eq!(bs.num_packets(), 2);
        let v0 = view(&bs, 0);
        assert!(v0.new_row);
        assert!(v0.row_ends.is_empty(), "row does not end in packet 0");
        assert_eq!(v0.tail_len(), 15);
        let v1 = view(&bs, 1);
        assert!(!v1.new_row, "packet 1 continues the row");
        assert_eq!(v1.row_ends, vec![5]);
        assert_eq!(v1.len(), 5);
    }

    #[test]
    fn row_ending_exactly_at_packet_boundary() {
        // Row 0 has exactly 15 entries (= B), row 1 follows.
        let mut triplets: Vec<(u32, u32, f32)> = (0..15).map(|c| (0, c, 0.01)).collect();
        triplets.push((1, 0, 0.5));
        let csr = Csr::from_triplets(2, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        let v0 = view(&bs, 0);
        assert_eq!(v0.row_ends, vec![15]);
        assert_eq!(v0.tail_len(), 0);
        let v1 = view(&bs, 1);
        assert!(v1.new_row, "boundary-aligned row end starts a new row");
        assert_csr_close(&bs.decode::<Q1_19>(), &csr);
    }

    #[test]
    fn empty_rows_become_placeholders() {
        let csr = Csr::from_triplets(4, 8, &[(0, 5, 0.5), (3, 2, 0.25)]).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(8));
        // 2 real + 2 placeholders.
        assert_eq!(bs.stored_entries(), 4);
        assert_eq!(bs.logical_nnz(), 2);
        // Each placeholder is a one-entry row at column 0, raw value 0.
        let v = view(&bs, 0);
        assert_eq!(v.row_ends, vec![1, 2, 3, 4]);
        assert_eq!(v.idx, vec![5, 0, 0, 2]);
        assert_eq!((v.val[1], v.val[2]), (0, 0));
        assert_eq!(bs.decode::<Q1_19>(), csr);
    }

    #[test]
    fn rows_reconstruct_across_packets() {
        // 40 rows x 3 entries = 120 entries = 8 packets of B = 15.
        let mut triplets = Vec::new();
        for r in 0..40u32 {
            for j in 0..3u32 {
                triplets.push((r, (r * 7 + j * 13) % 1024, 0.001 * (r + j + 1) as f32));
            }
        }
        let csr = Csr::from_triplets(40, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        assert_eq!(bs.num_packets(), 8);
        for p in 0..bs.num_packets() {
            let v = view(&bs, p);
            assert!(v.new_row, "packet {p}");
            assert_eq!(v.row_ends, vec![3, 6, 9, 12, 15], "packet {p}");
        }
        assert_csr_close(&bs.decode::<Q1_19>(), &csr);
    }

    #[test]
    fn decode_with_f32_is_lossless() {
        let csr = Csr::from_triplets(
            5,
            100,
            &[(0, 99, 0.123), (1, 50, 0.456), (2, 0, 0.789), (4, 7, 0.5)],
        )
        .unwrap();
        let layout = PacketLayout::solve(100, 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        assert_eq!(bs.decode::<F32>(), csr);
    }

    #[test]
    fn quantisation_error_bounded_by_format() {
        let csr = Csr::from_triplets(2, 4, &[(0, 0, 0.333_333), (1, 3, 0.777_777)]).unwrap();
        let layout = PacketLayout::solve(4, 32).unwrap();
        let bs = BsCsr::encode::<Q1_31>(&csr, layout);
        let back = bs.decode::<Q1_31>();
        for r in 0..2 {
            for ((_, a), (_, b)) in csr.row(r).zip(back.row(r)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn size_bytes_counts_whole_packets() {
        let csr = Csr::from_triplets(1, 8, &[(0, 0, 0.5)]).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(8));
        assert_eq!(bs.size_bytes(), 64);
    }

    #[test]
    fn entries_in_packet_is_zero_past_the_end() {
        let csr = Csr::from_triplets(1, 8, &[(0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5)]).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(8));
        assert_eq!(bs.num_packets(), 1);
        assert_eq!(bs.entries_in_packet(0), 3);
        for past in [1, 2, usize::MAX] {
            assert_eq!(bs.entries_in_packet(past), 0, "packet {past}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match scalar type")]
    fn mismatched_scalar_width_panics() {
        let csr = Csr::from_triplets(1, 8, &[(0, 0, 0.5)]).unwrap();
        let _ = BsCsr::encode::<Q1_31>(&csr, layout20(8));
    }

    #[test]
    fn many_single_entry_rows_fill_ptr_slots() {
        // 15 rows of 1 entry each fill every ptr slot of one packet.
        let triplets: Vec<(u32, u32, f32)> = (0..15).map(|r| (r, r, 0.1)).collect();
        let csr = Csr::from_triplets(15, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        assert_eq!(bs.num_packets(), 1);
        let v = view(&bs, 0);
        assert_eq!(v.row_ends, (1..=15).collect::<Vec<u32>>());
        assert_csr_close(&bs.decode::<Q1_19>(), &csr);
    }

    #[test]
    fn validate_accepts_well_formed_streams() {
        for seed in [1u64, 2, 3] {
            let csr = tkspmv_sparse_gen_matrix(seed);
            let bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
            assert_eq!(bs.validate(), Ok(()));
        }
    }

    /// Local generator shim (gen module lives in this crate).
    fn tkspmv_sparse_gen_matrix(seed: u64) -> Csr {
        crate::gen::SyntheticConfig {
            num_rows: 300,
            num_cols: 512,
            avg_nnz_per_row: 18,
            distribution: crate::gen::NnzDistribution::table3_gamma(),
            seed,
        }
        .generate()
    }

    /// `bs` rebuilt through [`BsCsr::from_parts`] with `doctor` applied
    /// to a copy of its packets: the only way a changed packet gets into
    /// a `BsCsr`, and it runs every [`BsCsr::validate`] check.
    fn doctored(bs: &BsCsr, doctor: impl FnOnce(&mut [Packet512])) -> Result<BsCsr, SparseError> {
        let mut packets = bs.packets().to_vec();
        doctor(&mut packets);
        BsCsr::from_parts(
            bs.layout(),
            packets,
            bs.num_rows(),
            bs.num_cols(),
            bs.stored_entries(),
            bs.logical_nnz(),
        )
    }

    #[test]
    fn validate_detects_corrupted_ptr_field() {
        let csr = tkspmv_sparse_gen_matrix(9);
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
        // Smash a ptr field in the middle of the stream: bit 1..5 of a
        // packet hold its first 4-bit ptr entry.
        let packet = bs.num_packets() / 2;
        let smashed = doctored(&bs, |p| p[packet].words_mut()[0] ^= 0b11110);
        assert!(
            matches!(smashed, Err(SparseError::CorruptPacketStream { .. })),
            "corruption must be detected"
        );
    }

    #[test]
    fn validate_detects_flipped_new_row_bit() {
        // Build a stream with a continuing row, then flip its new_row.
        let triplets: Vec<(u32, u32, f32)> = (0..20).map(|c| (0, c, 0.01)).collect();
        let csr = Csr::from_triplets(1, 1024, &triplets).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        assert_eq!(bs.validate(), Ok(()));
        // The new_row bit is bit 0.
        assert!(doctored(&bs, |p| p[1].words_mut()[0] ^= 1).is_err());
    }

    #[test]
    fn from_parts_round_trips_an_encoded_stream() {
        let csr = tkspmv_sparse_gen_matrix(7);
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
        let back = BsCsr::from_parts(
            bs.layout(),
            bs.packets().to_vec(),
            bs.num_rows(),
            bs.num_cols(),
            bs.stored_entries(),
            bs.logical_nnz(),
        )
        .unwrap();
        assert_eq!(back, bs);
    }

    #[test]
    fn from_parts_rejects_inconsistent_counts() {
        let csr = tkspmv_sparse_gen_matrix(8);
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
        let parts = |packets: Vec<crate::Packet512>, rows, stored, nnz| {
            BsCsr::from_parts(bs.layout(), packets, rows, bs.num_cols(), stored, nnz)
        };
        // One packet chopped off: count no longer matches stored entries.
        let chopped = bs.packets()[..bs.num_packets() - 1].to_vec();
        assert!(matches!(
            parts(
                chopped,
                bs.num_rows(),
                bs.stored_entries(),
                bs.logical_nnz()
            ),
            Err(SparseError::CorruptPacketStream { .. })
        ));
        // Logical nnz beyond the stored entries.
        assert!(matches!(
            parts(
                bs.packets().to_vec(),
                bs.num_rows(),
                bs.stored_entries(),
                bs.stored_entries() + 1
            ),
            Err(SparseError::CorruptPacketStream { .. })
        ));
        // A row count the stream does not terminate.
        assert!(matches!(
            parts(
                bs.packets().to_vec(),
                bs.num_rows() - 1,
                bs.stored_entries(),
                bs.logical_nnz()
            ),
            Err(SparseError::CorruptPacketStream { .. })
        ));
        // A corrupted ptr field fails the revalidation pass.
        let mut smashed = bs.packets().to_vec();
        let mid = smashed.len() / 2;
        smashed[mid].words_mut()[0] ^= 0b11110;
        assert!(matches!(
            parts(
                smashed,
                bs.num_rows(),
                bs.stored_entries(),
                bs.logical_nnz()
            ),
            Err(SparseError::CorruptPacketStream { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_column_indices() {
        // A non-power-of-two width leaves headroom in the idx field:
        // 1000 columns, 10-bit idx can encode up to 1023. A doctored
        // stream holding such an index must be a typed validation
        // failure, not a query-time panic in `x[idx]`.
        let csr = Csr::from_triplets(2, 1000, &[(0, 3, 0.5), (1, 900, 0.25)]).unwrap();
        let layout = PacketLayout::solve(1000, 20).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&csr, layout);
        assert_eq!(bs.validate(), Ok(()));
        // Overwrite entry 1's idx field with 1020. (Entry 1's field lies
        // at bit 1 + B*ptr_bits + idx_bits = 71, wholly inside word 1,
        // so a single masked word write doctors it.)
        let idx_base = 1 + layout.entries_per_packet() as usize * layout.ptr_bits() as usize;
        let pos = idx_base + layout.idx_bits() as usize;
        let (word, shift) = (pos / 64, pos % 64);
        assert!(
            shift + layout.idx_bits() as usize <= 64,
            "field fits one word"
        );
        let keep_mask = !(((1u64 << layout.idx_bits()) - 1) << shift);
        let err = doctored(&bs, |p| {
            let words = p[0].words_mut();
            words[word] = (words[word] & keep_mask) | (1020u64 << shift);
        })
        .unwrap_err();
        assert!(err.to_string().contains("column index 1020"), "{err}");
        assert!(matches!(err, SparseError::CorruptPacketStream { .. }));
        // At an exactly-filled width every encodable index is in range,
        // so the scan is skipped and valid streams still validate.
        let pow2 = Csr::from_triplets(2, 1024, &[(0, 1023, 0.5), (1, 0, 0.25)]).unwrap();
        let bs = BsCsr::encode::<Q1_19>(&pow2, PacketLayout::solve(1024, 20).unwrap());
        assert_eq!(bs.validate(), Ok(()));
    }

    #[test]
    fn validate_detects_truncated_stream() {
        let csr = tkspmv_sparse_gen_matrix(5);
        let bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
        // Zero the last packet: row count no longer adds up (and the
        // stream likely ends mid-row).
        let last = bs.num_packets() - 1;
        assert!(doctored(&bs, |p| p[last] = Packet512::ZERO).is_err());
    }
}
