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

use tkspmv_fixed::SpmvScalar;

use crate::bitio::BitWriter;
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
}

impl BsCsr {
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

        // Flatten the matrix into an entry stream; empty rows become one
        // placeholder entry each.
        let mut stream: Vec<(u32, u64)> = Vec::new();
        let mut row_last_entry: Vec<u64> = Vec::with_capacity(csr.num_rows());
        for r in 0..csr.num_rows() {
            if csr.row_nnz(r) == 0 {
                stream.push((0, 0));
            } else {
                for (c, v) in csr.row(r) {
                    stream.push((c, S::encode(v as f64)));
                }
            }
            row_last_entry.push(stream.len() as u64 - 1);
        }

        let b = layout.entries_per_packet() as usize;
        let mut packets = Vec::with_capacity(stream.len().div_ceil(b.max(1)));
        let mut row_cursor = 0usize; // next row whose end we have not passed
        let mut prev_packet_completed_row = true;
        for chunk_start in (0..stream.len()).step_by(b) {
            let chunk = &stream[chunk_start..(chunk_start + b).min(stream.len())];
            let mut w = BitWriter::new();
            w.write(u64::from(prev_packet_completed_row), 1);
            // ptr fields: cumulative in-packet entry count per finished row.
            let mut ends = Vec::new();
            for (j, _) in chunk.iter().enumerate() {
                let global = (chunk_start + j) as u64;
                while row_cursor < csr.num_rows() && row_last_entry[row_cursor] == global {
                    ends.push((j + 1) as u64);
                    row_cursor += 1;
                }
            }
            prev_packet_completed_row = ends.last() == Some(&(chunk.len() as u64));
            for j in 0..b {
                w.write(ends.get(j).copied().unwrap_or(0), layout.ptr_bits());
            }
            for j in 0..b {
                w.write(chunk.get(j).map_or(0, |e| e.0 as u64), layout.idx_bits());
            }
            for j in 0..b {
                w.write(chunk.get(j).map_or(0, |e| e.1), layout.value_bits());
            }
            packets.push(w.finish());
        }

        Self {
            layout,
            packets,
            num_rows: csr.num_rows(),
            num_cols: csr.num_cols(),
            stored_entries: stream.len() as u64,
            logical_nnz: csr.nnz() as u64,
        }
    }

    /// Reconstructs an encoded matrix from its raw parts — the path a
    /// persisted snapshot takes back into memory, skipping the encode.
    ///
    /// The counts are cross-checked against the packet stream and the
    /// stream's structural invariants are fully revalidated with
    /// [`BsCsr::validate`]: bytes from disk (or device readback) are
    /// untrusted until proven consistent.
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
        let matrix = Self {
            layout,
            packets,
            num_rows,
            num_cols,
            stored_entries,
            logical_nnz,
        };
        matrix.validate().map_err(corrupt)?;
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

    /// Mutable access to the raw packets — for fault-injection testing
    /// of [`BsCsr::validate`] (a corrupted stream must be detected, not
    /// silently mis-decoded).
    pub fn packets_mut(&mut self) -> &mut [Packet512] {
        &mut self.packets
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

    /// Total memory footprint in bytes (whole 64-byte packets) — the
    /// quantity reported in Table III.
    pub fn size_bytes(&self) -> u64 {
        self.packets.len() as u64 * PACKET_BYTES as u64
    }

    /// Number of *real* entries in packet `i` (the last packet may be
    /// partially filled); 0 for any `i` past the end of the stream.
    #[inline]
    pub fn entries_in_packet(&self, i: usize) -> usize {
        let b = self.layout.entries_per_packet() as u64;
        let consumed = (i as u64).saturating_mul(b);
        self.stored_entries.saturating_sub(consumed).min(b) as usize
    }

    /// Parses packet `i` into caller-owned scratch buffers, allocating
    /// nothing once the scratch capacity has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn view_into(&self, i: usize, scratch: &mut PacketScratch) {
        scratch.parse_into(&self.packets[i], self.layout, self.entries_in_packet(i));
    }

    /// Iterates over `(row, col, raw_value)` for every stored entry,
    /// including placeholders, reconstructing row indices from the packet
    /// metadata alone (this is exactly what the hardware does).
    pub fn entries(&self) -> PacketEntries<'_> {
        let mut scratch = PacketScratch::new();
        let exhausted = self.packets.is_empty();
        if !exhausted {
            self.view_into(0, &mut scratch);
        }
        PacketEntries {
            matrix: self,
            packet: 0,
            entry: 0,
            scratch,
            exhausted,
            row: 0,
            seg: 0,
        }
    }

    /// Checks the structural invariants of the packet stream, as a host
    /// would before trusting data read back from device memory:
    ///
    /// - every packet's `ptr` entries are strictly increasing and within
    ///   the packet's real entry count;
    /// - `new_row` bits are consistent with the previous packet's tail
    ///   (a packet may only continue a row that was left unfinished);
    /// - the total number of terminated rows equals `num_rows`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    ///
    /// # Performance
    ///
    /// Only the `new_row` bit and the `ptr` region of each packet are
    /// decoded — the `idx`/`val` fields play no part in the structural
    /// invariants — so validating is several times cheaper than a full
    /// decode pass. This matters on the snapshot-load path, whose whole
    /// point is to be much cheaper than re-encoding while still
    /// distrusting every byte it reads.
    pub fn validate(&self) -> Result<(), String> {
        let b = self.layout.entries_per_packet() as usize;
        let ptr_bits = self.layout.ptr_bits();
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
        Ok(())
    }

    /// Decodes back to CSR. Placeholder entries for empty rows are
    /// removed; quantised values are reconstructed through `S`.
    ///
    /// # Panics
    ///
    /// Panics if `S::VALUE_BITS` does not match the layout.
    pub fn decode<S: SpmvScalar>(&self) -> Csr {
        assert_eq!(self.layout.value_bits(), S::VALUE_BITS);
        let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(self.logical_nnz as usize);
        let mut per_row_count = vec![0u64; self.num_rows];
        for (row, col, raw) in self.entries() {
            per_row_count[row as usize] += 1;
            let v = S::decode(raw).value_to_f64() as f32;
            triplets.push((row, col, v));
        }
        // Remove placeholders: a row whose only entry is (0, raw 0) and
        // that the encoder marked as empty decodes to an empty row.
        let filtered: Vec<(u32, u32, f32)> = triplets
            .into_iter()
            .filter(|&(r, c, v)| !(per_row_count[r as usize] == 1 && c == 0 && v == 0.0))
            .collect();
        Csr::from_triplets(self.num_rows, self.num_cols, &filtered)
            // invariant: filtered entries come from a packet stream encoded from a valid Csr
            .expect("decoded entries are valid by construction")
    }
}

/// The decoded fields of one BS-CSR packet, in caller-owned buffers
/// reused across packets ([`BsCsr::view_into`]) — the cold-path view
/// behind [`BsCsr::entries`], [`BsCsr::decode`] and tests. The engine
/// does not go through it: it slices packets straight into its chunk
/// arrays with the same [`Packet512::decode_fields`] this calls.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::{BsCsr, Csr, PacketLayout, PacketScratch};
///
/// let csr = Csr::from_triplets(2, 8, &[(0, 3, 0.5), (1, 7, 0.75)])?;
/// let bs = BsCsr::encode::<tkspmv_fixed::Q1_19>(&csr, PacketLayout::solve(8, 20)?);
/// let mut scratch = PacketScratch::new();
/// for p in 0..bs.num_packets() {
///     bs.view_into(p, &mut scratch);
///     assert_eq!(scratch.len(), bs.entries_in_packet(p));
/// }
/// # Ok::<(), tkspmv_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketScratch {
    /// Whether the first entry starts a new row.
    pub new_row: bool,
    /// Cumulative in-packet entry counts at which rows end (strictly
    /// increasing, 1-based).
    pub row_ends: Vec<u32>,
    /// Column indices of the real entries.
    pub idx: Vec<u32>,
    /// Raw value bits of the real entries.
    pub val: Vec<u64>,
}

impl PacketScratch {
    /// Creates an empty scratch; the first parse sizes its buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a packet into this scratch, overwriting whatever it held
    /// before (no state survives from a previous packet): all `B` slots
    /// are sliced, then the unused `ptr` slots and the padding entries
    /// past `real_entries` are dropped.
    fn parse_into(&mut self, packet: &Packet512, layout: PacketLayout, real_entries: usize) {
        let b = layout.entries_per_packet() as usize;
        debug_assert!(real_entries <= b, "more real entries than layout B");
        self.row_ends.resize(b, 0);
        self.idx.resize(b, 0);
        self.val.resize(b, 0);
        self.new_row = packet.decode_fields(
            layout,
            &mut self.row_ends,
            &mut self.idx,
            &mut self.val,
            |raw| raw,
        );
        self.row_ends.retain(|&end| end != 0);
        debug_assert!(
            self.row_ends.windows(2).all(|w| w[0] < w[1]),
            "ptr entries must be strictly increasing"
        );
        self.idx.truncate(real_entries);
        self.val.truncate(real_entries);
    }

    /// Number of real entries in the last parsed packet.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the last parsed packet held no real entries.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Number of entries after the last row end — the unfinished tail
    /// carried into the next packet.
    pub fn tail_len(&self) -> usize {
        self.len() - self.row_ends.last().copied().unwrap_or(0) as usize
    }
}

/// Iterator over `(row, col, raw_value)` produced by [`BsCsr::entries`].
#[derive(Debug)]
pub struct PacketEntries<'a> {
    matrix: &'a BsCsr,
    packet: usize,
    entry: usize,
    /// Decode buffers reused across packets.
    scratch: PacketScratch,
    /// Whether the stream has run out of packets.
    exhausted: bool,
    /// Row index of the current entry.
    row: u32,
    /// Index into the current packet's `row_ends`.
    seg: usize,
}

impl Iterator for PacketEntries<'_> {
    type Item = (u32, u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.exhausted {
                return None;
            }
            if self.entry >= self.scratch.len() {
                // Advance to the next packet.
                self.packet += 1;
                if self.packet >= self.matrix.num_packets() {
                    self.exhausted = true;
                    return None;
                }
                self.matrix.view_into(self.packet, &mut self.scratch);
                self.entry = 0;
                self.seg = 0;
                continue;
            }
            let col = self.scratch.idx[self.entry];
            let raw = self.scratch.val[self.entry];
            let row = self.row;
            // If this entry closes a row segment, the next entry belongs
            // to the following row.
            if self.scratch.row_ends.get(self.seg) == Some(&((self.entry + 1) as u32)) {
                self.seg += 1;
                self.row += 1;
            }
            self.entry += 1;
            return Some((row, col, raw));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkspmv_fixed::{F32, Q1_19, Q1_31};

    fn layout20(cols: usize) -> PacketLayout {
        PacketLayout::solve(cols, 20).unwrap()
    }

    fn view(bs: &BsCsr, i: usize) -> PacketScratch {
        let mut scratch = PacketScratch::new();
        bs.view_into(i, &mut scratch);
        scratch
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
        let entries: Vec<_> = bs.entries().collect();
        assert_eq!(entries.len(), 4);
        // Row reconstruction walks through the placeholders.
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[1], (1, 0, 0));
        assert_eq!(entries[2], (2, 0, 0));
        assert_eq!(entries[3].0, 3);
        assert_eq!(bs.decode::<Q1_19>(), csr);
    }

    #[test]
    fn entries_iterator_reconstructs_rows_across_packets() {
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
        let rows: Vec<u32> = bs.entries().map(|(r, _, _)| r).collect();
        let expected: Vec<u32> = (0..40).flat_map(|r| [r, r, r]).collect();
        assert_eq!(rows, expected);
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

    #[test]
    fn validate_detects_corrupted_ptr_field() {
        let csr = tkspmv_sparse_gen_matrix(9);
        let mut bs = BsCsr::encode::<Q1_19>(&csr, layout20(csr.num_cols()));
        // Smash a ptr field in the middle of the stream: bit 1..5 of a
        // packet hold its first 4-bit ptr entry.
        let packet = bs.num_packets() / 2;
        bs.packets_mut()[packet].words_mut()[0] ^= 0b11110;
        assert!(bs.validate().is_err(), "corruption must be detected");
    }

    #[test]
    fn validate_detects_flipped_new_row_bit() {
        // Build a stream with a continuing row, then flip its new_row.
        let triplets: Vec<(u32, u32, f32)> = (0..20).map(|c| (0, c, 0.01)).collect();
        let csr = Csr::from_triplets(1, 1024, &triplets).unwrap();
        let mut bs = BsCsr::encode::<Q1_19>(&csr, layout20(1024));
        assert_eq!(bs.validate(), Ok(()));
        bs.packets_mut()[1].words_mut()[0] ^= 1; // new_row bit is bit 0
        assert!(bs.validate().is_err());
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
        let mut doctored = bs.clone();
        let words = doctored.packets_mut()[0].words_mut();
        let keep_mask = !(((1u64 << layout.idx_bits()) - 1) << shift);
        words[word] = (words[word] & keep_mask) | (1020u64 << shift);
        let err = doctored.validate().unwrap_err();
        assert!(err.contains("column index 1020"), "{err}");
        assert!(matches!(
            BsCsr::from_parts(
                layout,
                doctored.packets().to_vec(),
                doctored.num_rows(),
                doctored.num_cols(),
                doctored.stored_entries(),
                doctored.logical_nnz(),
            ),
            Err(SparseError::CorruptPacketStream { .. })
        ));
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
        // Rebuild with one packet chopped off: row count no longer adds
        // up (and the stream likely ends mid-row).
        let mut chopped = bs.clone();
        let last = chopped.packets().len() - 1;
        chopped.packets_mut()[last] = crate::Packet512::ZERO;
        assert!(chopped.validate().is_err());
    }
}
