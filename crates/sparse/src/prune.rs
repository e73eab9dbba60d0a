//! Companion prune index: a compact low-bit, row-major stream for the
//! candidate-generation pass of a staged Top-K query pipeline.
//!
//! The AccelES lineage of the source paper splits a Top-K SpMV query in
//! two: a cheap reduced-precision pass over *all* rows shortlists
//! candidate Top-K rows, then only those rows are recomputed precisely.
//! The [`PruneIndex`] is the first pass's data structure — a CSR-shaped
//! stream quantised to 4 or 8 bits per value ([`PruneBits`]) with 16-bit
//! column indices, built once at prepare time alongside the exact form
//! and persisted as an optional section of the snapshot format:
//!
//! - values are unsigned `Q1.(bits-1)` fixed point (round-to-nearest,
//!   saturating — see [`tkspmv_fixed::Q1_3`] / [`tkspmv_fixed::Q1_7`]),
//!   packed two-per-byte at 4 bits;
//! - the query is quantised once per query to unsigned `Q1.15` (16-bit
//!   raw), so a candidate score is an exact integer sum of
//!   `value_raw * query_raw` products — deterministic and total-ordered,
//!   which the shortlist selection relies on;
//! - per non-zero the pass touches 3 bytes at 8 bits (2.5 at 4 bits)
//!   against the exact CSR's 8, and its integer accumulation
//!   reassociates freely where the exact path's float accumulator
//!   cannot — less traffic *and* more ILP.
//!
//! # Example
//!
//! ```
//! use tkspmv_fixed::PruneBits;
//! use tkspmv_sparse::{Csr, PruneIndex};
//!
//! let csr = Csr::from_triplets(2, 4, &[(0, 1, 0.5), (1, 3, 0.25)])?;
//! let index = PruneIndex::build(&csr, PruneBits::Eight)?;
//! let q = index.quantize_query(&[0.0, 1.0, 0.0, 1.0]);
//! let mut scores = vec![0u64; 2];
//! index.score_rows(0, &q, &mut scores);
//! assert!(scores[0] > scores[1]); // 0.5 * 1.0 beats 0.25 * 1.0
//! # Ok::<(), tkspmv_sparse::SparseError>(())
//! ```

use tkspmv_fixed::{PruneBits, UFixed};

use crate::csr::Csr;
use crate::error::SparseError;

/// Fixed query quantisation width of the prune pass: unsigned `Q1.7`,
/// 8 bits raw. Eight query bits keep every `value_raw * query_raw`
/// product inside 16 bits, and a row holds at most 65536 entries (16-bit
/// column indices, enforced at construction), so per-row integer scores
/// fit 32 bits — which is what lets [`PruneIndex::score_rows`] run as
/// one flat wrapping-prefix stream instead of one short loop per row.
/// The query's quantisation noise sits at or below the matrix stream's
/// own 4/8-bit noise, so candidate ordering is still dominated by the
/// matrix quantisation.
pub type PruneQuery = UFixed<8>;

/// Most entries a single row may hold. A [`Csr`] row's columns are
/// distinct, so its length never exceeds `num_cols <= 65536`; raw arrays
/// ([`PruneIndex::from_parts`]) are checked against it. The bound is
/// what keeps per-row scores inside 32 bits: `65536 * 255 * 255 < 2^32`.
const MAX_ROW_ENTRIES: u64 = 1 << 16;

/// Entries scored per block of the prefix pass: the `u32` prefix buffer
/// is 16 KiB, small enough to stay in L1 across the write/read pair.
const SCORE_BLOCK: usize = 4096;

/// A low-bit, row-major companion index over an embedding collection.
///
/// Shape limits follow from the compact field widths: at most `65536`
/// columns (16-bit indices) and `u32::MAX` non-zeros (32-bit row
/// pointers). Both are far above the paper's workloads (embedding
/// dimension ≤ 1024).
#[derive(Debug, Clone, PartialEq)]
pub struct PruneIndex {
    bits: PruneBits,
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u16>,
    packed: Vec<u8>,
}

impl PruneIndex {
    /// Quantises a collection into a prune index.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionTooLarge`] if the matrix has more than
    /// 65536 columns or more than `u32::MAX` non-zeros.
    // alloc-ok(fn): one-time index construction (ingest/compaction),
    // never on the query path.
    pub fn build(csr: &Csr, bits: PruneBits) -> Result<Self, SparseError> {
        if csr.num_cols() > u16::MAX as usize + 1 {
            return Err(SparseError::DimensionTooLarge {
                detail: format!(
                    "prune index addresses columns with 16 bits; matrix has {}",
                    csr.num_cols()
                ),
            });
        }
        if csr.nnz() as u64 > u32::MAX as u64 {
            return Err(SparseError::DimensionTooLarge {
                detail: format!(
                    "prune index row pointers are 32-bit; matrix has {} non-zeros",
                    csr.nnz()
                ),
            });
        }
        let row_ptr: Vec<u32> = csr.row_ptr().iter().map(|&p| p as u32).collect();
        let col_idx: Vec<u16> = csr.col_idx().iter().map(|&c| c as u16).collect();
        let values = csr.values();
        let packed = match bits {
            PruneBits::Eight => values.iter().map(|&v| bits.quantize_raw(v)).collect(),
            PruneBits::Four => {
                let mut packed = vec![0u8; values.len().div_ceil(2)];
                for (e, &v) in values.iter().enumerate() {
                    let nibble = bits.quantize_raw(v);
                    packed[e / 2] |= nibble << ((e % 2) as u32 * 4);
                }
                packed
            }
        };
        Ok(Self {
            bits,
            num_rows: csr.num_rows(),
            num_cols: csr.num_cols(),
            row_ptr,
            col_idx,
            packed,
        })
    }

    /// Reassembles an index from its raw arrays (the snapshot read path),
    /// validating every structural invariant.
    ///
    /// # Errors
    ///
    /// [`SparseError::MalformedRowPtr`] or
    /// [`SparseError::IndexOutOfBounds`] if the arrays are inconsistent
    /// with the declared shape, [`SparseError::DimensionTooLarge`] for
    /// shapes the field widths cannot address.
    // alloc-ok(fn): snapshot-load validation with owned-array handoff;
    // error strings allocate only on rejected inputs.
    pub fn from_parts(
        bits: PruneBits,
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u16>,
        packed: Vec<u8>,
    ) -> Result<Self, SparseError> {
        if num_cols > u16::MAX as usize + 1 {
            return Err(SparseError::DimensionTooLarge {
                detail: format!("prune index cannot address {num_cols} columns"),
            });
        }
        if row_ptr.len() != num_rows + 1 {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "prune row_ptr length {} != num_rows + 1 = {}",
                    row_ptr.len(),
                    num_rows + 1
                ),
            });
        }
        // invariant: length checked against num_rows + 1 above, so last() exists
        if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() != col_idx.len() as u32 {
            return Err(SparseError::MalformedRowPtr {
                detail: "prune row_ptr must start at 0 and end at nnz".to_string(),
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedRowPtr {
                detail: "prune row_ptr must be non-decreasing".to_string(),
            });
        }
        if let Some(r) = row_ptr
            .windows(2)
            .position(|w| (w[1] - w[0]) as u64 > MAX_ROW_ENTRIES)
        {
            return Err(SparseError::DimensionTooLarge {
                detail: format!(
                    "prune scores are 32-bit; row {r} holds more than {MAX_ROW_ENTRIES} entries"
                ),
            });
        }
        if let Some((e, &c)) = col_idx
            .iter()
            .enumerate()
            .find(|&(_, &c)| c as usize >= num_cols)
        {
            // The row holding entry `e`: the last one starting at or
            // before it (`row_ptr[0] = 0 <= e`, so there is one).
            let row = row_ptr.partition_point(|&start| start as usize <= e) - 1;
            return Err(SparseError::IndexOutOfBounds {
                row,
                col: c as usize,
                num_rows,
                num_cols,
            });
        }
        let want = match bits {
            PruneBits::Eight => col_idx.len(),
            PruneBits::Four => col_idx.len().div_ceil(2),
        };
        if packed.len() != want {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "prune value stream holds {} bytes, {} entries at {} need {want}",
                    packed.len(),
                    col_idx.len(),
                    bits
                ),
            });
        }
        // At 4 bits an odd entry count leaves one unused high nibble; it
        // must be zero so equal indexes are byte-identical.
        if bits == PruneBits::Four && col_idx.len() % 2 == 1 {
            if let Some(&last) = packed.last() {
                if last >> 4 != 0 {
                    return Err(SparseError::MalformedRowPtr {
                        detail: "prune value stream has a non-zero padding nibble".to_string(),
                    });
                }
            }
        }
        Ok(Self {
            bits,
            num_rows,
            num_cols,
            row_ptr,
            col_idx,
            packed,
        })
    }

    /// Quantisation width of the value stream.
    pub fn bits(&self) -> PruneBits {
        self.bits
    }

    /// Rows covered by the index.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Columns (embedding dimension).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Non-zeros covered by the index.
    pub fn nnz(&self) -> u64 {
        self.col_idx.len() as u64
    }

    /// Row pointers (entry offsets, length `num_rows + 1`).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column indices, row-major.
    pub fn col_idx(&self) -> &[u16] {
        &self.col_idx
    }

    /// The packed value stream (one byte per entry at 8 bits, two
    /// entries per byte at 4, low nibble first).
    pub fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Bytes the value stream occupies — the bandwidth saving over the
    /// exact representation, for reporting.
    pub fn value_bytes(&self) -> usize {
        self.packed.len()
    }

    /// Raw quantised value of entry `e` (row-major entry index).
    pub fn value_raw(&self, e: usize) -> u8 {
        match self.bits {
            PruneBits::Eight => self.packed[e],
            PruneBits::Four => (self.packed[e / 2] >> ((e % 2) as u32 * 4)) & 0xF,
        }
    }

    /// Quantises a query vector to the fixed `Q1.7` raw grid of the
    /// prune pass (round-to-nearest, saturating, NaN/negative to zero).
    // alloc-ok(fn): per-query setup producing the reusable quantised
    // vector; the per-row scoring loop is `score_rows`.
    pub fn quantize_query(&self, x: &[f32]) -> Vec<u16> {
        x.iter()
            .map(|&v| PruneQuery::from_f64(v as f64).raw() as u16)
            .collect()
    }

    /// Scores `out.len()` consecutive rows starting at `first_row`
    /// against a quantised query, writing one integer score per row.
    ///
    /// Scores are exact sums of `value_raw * query_raw` products, with
    /// query values saturated to [`PruneQuery::RAW_MAX`] (the grid
    /// [`Self::quantize_query`] already produces). Equal inputs give
    /// equal scores on every platform — the shortlist cut is
    /// deterministic.
    ///
    /// The pass runs as one flat wrapping-prefix stream over the entry
    /// range in L1-sized blocks, then takes per-row differences. Short
    /// rows would otherwise pay a loop setup and an exit mispredict
    /// each — measured ~4x the cost of streaming the same entries
    /// through a single loop. The `u32` prefix differences are exact
    /// because every per-row sum fits 32 bits: products fit 16 bits and
    /// rows hold at most 65536 entries (enforced at construction).
    ///
    /// # Panics
    ///
    /// Panics if the row range runs past the index or `q` is shorter
    /// than the column count.
    pub fn score_rows(&self, first_row: usize, q: &[u16], out: &mut [u64]) {
        assert!(first_row + out.len() <= self.num_rows, "row range overruns");
        assert!(q.len() >= self.num_cols, "query shorter than columns");
        // The 32-bit overflow argument needs query values capped at
        // RAW_MAX for any caller, not just `quantize_query`'s output.
        // An O(cols) pre-scan picks the lookup: in-grid queries (the
        // overwhelmingly common case) index the slice directly, an
        // out-of-grid query pays a per-access saturation. Either way
        // the call never allocates — this is the warm prune pass, held
        // to zero allocations by tests/zero_alloc.rs and the alloc lint.
        let q = &q[..self.num_cols];
        if q.iter().all(|&v| u32::from(v) <= PruneQuery::RAW_MAX) {
            self.score_rows_stream(first_row, out, |c| u32::from(q[c as usize]));
        } else {
            self.score_rows_stream(first_row, out, |c| {
                u32::from(q[c as usize]).min(PruneQuery::RAW_MAX)
            });
        }
    }

    /// The streaming scoring loop behind [`Self::score_rows`],
    /// monomorphised over the query-value lookup.
    fn score_rows_stream<F: Fn(u16) -> u32>(&self, first_row: usize, out: &mut [u64], qv: F) {
        let lo = self.row_ptr[first_row] as usize;
        let hi = self.row_ptr[first_row + out.len()] as usize;
        let mut buf = [0u32; SCORE_BLOCK + 1];
        let mut base = 0u32; // wrapping prefix at the current block start
        let mut last_p = 0u32; // wrapping prefix at the current row start
        let mut r = 0usize; // rows of `out` already written
        let mut start = lo;
        while start < hi {
            let end = (start + SCORE_BLOCK).min(hi);
            let blen = end - start;
            let mut acc = 0u32;
            match self.bits {
                PruneBits::Eight => {
                    for ((p, &v), &c) in buf[1..=blen]
                        .iter_mut()
                        .zip(&self.packed[start..end])
                        .zip(&self.col_idx[start..end])
                    {
                        acc = acc.wrapping_add(v as u32 * qv(c));
                        *p = acc;
                    }
                }
                PruneBits::Four => {
                    for (i, (p, &c)) in buf[1..=blen]
                        .iter_mut()
                        .zip(&self.col_idx[start..end])
                        .enumerate()
                    {
                        let e = start + i;
                        let nibble = (self.packed[e / 2] >> ((e % 2) as u32 * 4)) & 0xF;
                        acc = acc.wrapping_add(nibble as u32 * qv(c));
                        *p = acc;
                    }
                }
            }
            while r < out.len() && self.row_ptr[first_row + r + 1] as usize <= end {
                let p_hi = base.wrapping_add(buf[self.row_ptr[first_row + r + 1] as usize - start]);
                out[r] = p_hi.wrapping_sub(last_p) as u64;
                last_p = p_hi;
                r += 1;
            }
            base = base.wrapping_add(acc);
            start = end;
        }
        // Rows past the last entry of the range are empty.
        for slot in &mut out[r..] {
            *slot = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{NnzDistribution, SyntheticConfig};

    fn sample() -> Csr {
        SyntheticConfig {
            num_rows: 64,
            num_cols: 48,
            avg_nnz_per_row: 6,
            distribution: NnzDistribution::table3_gamma(),
            seed: 17,
        }
        .generate()
    }

    #[test]
    fn build_matches_per_entry_quantisation() {
        let csr = sample();
        for bits in PruneBits::ALL {
            let index = PruneIndex::build(&csr, bits).unwrap();
            assert_eq!(index.num_rows(), csr.num_rows());
            assert_eq!(index.num_cols(), csr.num_cols());
            assert_eq!(index.nnz(), csr.nnz() as u64);
            for (e, &v) in csr.values().iter().enumerate() {
                assert_eq!(index.value_raw(e), bits.quantize_raw(v), "entry {e}");
            }
        }
    }

    #[test]
    fn four_bit_stream_is_half_the_bytes() {
        let csr = sample();
        let i4 = PruneIndex::build(&csr, PruneBits::Four).unwrap();
        let i8 = PruneIndex::build(&csr, PruneBits::Eight).unwrap();
        assert_eq!(i8.value_bytes(), csr.nnz());
        assert_eq!(i4.value_bytes(), csr.nnz().div_ceil(2));
    }

    #[test]
    fn scores_equal_integer_reference() {
        let csr = sample();
        let x: Vec<f32> = (0..csr.num_cols())
            .map(|c| (c % 10) as f32 / 10.0)
            .collect();
        for bits in PruneBits::ALL {
            let index = PruneIndex::build(&csr, bits).unwrap();
            let q = index.quantize_query(&x);
            let mut scores = vec![0u64; csr.num_rows()];
            index.score_rows(0, &q, &mut scores);
            // Range-wise scoring agrees with the full pass.
            let mut tail = vec![0u64; csr.num_rows() - 10];
            index.score_rows(10, &q, &mut tail);
            assert_eq!(&scores[10..], tail.as_slice());
            for (r, &got) in scores.iter().enumerate() {
                let want: u64 = csr
                    .row(r)
                    .enumerate()
                    .map(|(j, (c, _))| {
                        let e = csr.row_ptr()[r] as usize + j;
                        index.value_raw(e) as u64 * q[c as usize] as u64
                    })
                    .sum();
                assert_eq!(got, want, "row {r}");
            }
        }
    }

    #[test]
    fn shape_limits_are_typed() {
        let wide = Csr::from_triplets(1, 70_000, &[(0, 69_999, 0.5)]).unwrap();
        assert!(matches!(
            PruneIndex::build(&wide, PruneBits::Eight),
            Err(SparseError::DimensionTooLarge { .. })
        ));
    }

    #[test]
    fn from_parts_validates() {
        let csr = sample();
        let ok = PruneIndex::build(&csr, PruneBits::Four).unwrap();
        let back = PruneIndex::from_parts(
            ok.bits(),
            ok.num_rows(),
            ok.num_cols(),
            ok.row_ptr().to_vec(),
            ok.col_idx().to_vec(),
            ok.packed().to_vec(),
        )
        .unwrap();
        assert_eq!(back, ok);
        // Wrong stream length.
        assert!(PruneIndex::from_parts(
            PruneBits::Eight,
            ok.num_rows(),
            ok.num_cols(),
            ok.row_ptr().to_vec(),
            ok.col_idx().to_vec(),
            ok.packed().to_vec(), // half the bytes 8-bit needs
        )
        .is_err());
        // Out-of-range column.
        let mut cols = ok.col_idx().to_vec();
        cols[0] = ok.num_cols() as u16;
        assert!(PruneIndex::from_parts(
            ok.bits(),
            ok.num_rows(),
            ok.num_cols(),
            ok.row_ptr().to_vec(),
            cols,
            ok.packed().to_vec(),
        )
        .is_err());
        // Broken row pointers.
        let mut ptr = ok.row_ptr().to_vec();
        ptr[1] = ptr[2] + 1;
        assert!(PruneIndex::from_parts(
            ok.bits(),
            ok.num_rows(),
            ok.num_cols(),
            ptr,
            ok.col_idx().to_vec(),
            ok.packed().to_vec(),
        )
        .is_err());
    }

    #[test]
    fn from_parts_names_the_row_of_an_out_of_range_column() {
        // Rows 1 and 2 are empty, so row 3's entries start where row 1's
        // (empty) range does.
        let csr = Csr::from_triplets(
            4,
            8,
            &[
                (0, 1, 0.5),
                (0, 2, 0.5),
                (3, 0, 0.5),
                (3, 4, 0.5),
                (3, 6, 0.5),
            ],
        )
        .unwrap();
        let ok = PruneIndex::build(&csr, PruneBits::Eight).unwrap();
        for (entry, row) in [(0, 0), (1, 0), (2, 3), (4, 3)] {
            let mut cols = ok.col_idx().to_vec();
            cols[entry] = 9;
            let err = PruneIndex::from_parts(
                ok.bits(),
                ok.num_rows(),
                ok.num_cols(),
                ok.row_ptr().to_vec(),
                cols,
                ok.packed().to_vec(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                SparseError::IndexOutOfBounds {
                    row,
                    col: 9,
                    num_rows: 4,
                    num_cols: 8,
                },
                "entry {entry}"
            );
        }
    }

    #[test]
    fn odd_entry_count_padding_nibble_must_be_zero() {
        let csr = Csr::from_triplets(1, 4, &[(0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5)]).unwrap();
        let ok = PruneIndex::build(&csr, PruneBits::Four).unwrap();
        let mut packed = ok.packed().to_vec();
        *packed.last_mut().unwrap() |= 0xF0;
        assert!(PruneIndex::from_parts(
            ok.bits(),
            ok.num_rows(),
            ok.num_cols(),
            ok.row_ptr().to_vec(),
            ok.col_idx().to_vec(),
            packed,
        )
        .is_err());
    }
}
