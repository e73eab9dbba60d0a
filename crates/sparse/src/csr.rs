//! Compressed Sparse Row (CSR) matrix.

use crate::error::SparseError;
use crate::exact_dot;

/// A sparse matrix in CSR format.
///
/// CSR is the working format of the CPU baseline (`sparse_dot_topn` uses
/// it) and the canonical source from which [`crate::BsCsr`] is encoded.
/// Row `r` owns entries `row_ptr[r] .. row_ptr[r + 1]` of the `col_idx`
/// and `values` arrays.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::Csr;
///
/// let csr = Csr::from_triplets(2, 4, &[(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0)])?;
/// let row0: Vec<_> = csr.row(0).collect();
/// assert_eq!(row0, vec![(0, 1.0), (3, 2.0)]);
/// # Ok::<(), tkspmv_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

/// Per-row non-zero statistics, reported by [`Csr::row_stats`] and used
/// to describe the Table III evaluation matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStats {
    /// Fewest non-zeros in any row.
    pub min_nnz: usize,
    /// Most non-zeros in any row.
    pub max_nnz: usize,
    /// Mean non-zeros per row.
    pub mean_nnz: f64,
    /// Number of rows with zero stored entries.
    pub empty_rows: usize,
}

impl Csr {
    /// Builds a CSR matrix from `(row, col, value)` triplets in any
    /// order: they are sorted by coordinate and handed to
    /// [`Csr::from_parts`].
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionTooLarge`] if the shape exceeds `u32`
    /// coordinates, [`SparseError::IndexOutOfBounds`] for a row or column
    /// outside the shape, [`SparseError::DuplicateEntry`] for a repeated
    /// coordinate.
    pub fn from_triplets(
        num_rows: usize,
        num_cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, SparseError> {
        // Checked before `row_ptr` is sized by `num_rows`.
        check_shape(num_rows, num_cols)?;
        let mut sorted = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Sorted by row, so every out-of-range row sits at the end.
        let in_range = sorted.partition_point(|&(r, _, _)| (r as usize) < num_rows);
        if let Some(&(r, c, _)) = sorted.get(in_range) {
            return Err(SparseError::IndexOutOfBounds {
                row: r as usize,
                col: c as usize,
                num_rows,
                num_cols,
            });
        }
        let mut row_ptr = vec![0u64; num_rows + 1];
        for &(r, _, _) in &sorted {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..num_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let (col_idx, values) = sorted.into_iter().map(|(_, c, v)| (c, v)).unzip();
        Self::from_parts(num_rows, num_cols, row_ptr, col_idx, values)
    }

    /// Builds a CSR matrix from raw parts — the one validator every
    /// untrusted matrix (triplets, MatrixMarket files, snapshot payloads)
    /// passes through.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionTooLarge`] if the shape exceeds `u32`
    /// coordinates; [`SparseError::MalformedRowPtr`] if `row_ptr` is not a
    /// monotone array of length `num_rows + 1` from 0 to `col_idx.len()`,
    /// or if `col_idx` and `values` lengths differ;
    /// [`SparseError::IndexOutOfBounds`] for an out-of-range column and
    /// [`SparseError::DuplicateEntry`] for a repeated or unsorted column,
    /// both naming the row.
    pub fn from_parts(
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        check_shape(num_rows, num_cols)?;
        if row_ptr.len() != num_rows + 1 {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "row_ptr length {} != num_rows + 1 = {}",
                    row_ptr.len(),
                    num_rows + 1
                ),
            });
        }
        #[expect(
            clippy::unwrap_used,
            reason = "invariant: length checked against num_rows + 1 above, so last() exists"
        )]
        if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() != col_idx.len() as u64 {
            return Err(SparseError::MalformedRowPtr {
                detail: "row_ptr must start at 0 and end at nnz".to_string(),
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedRowPtr {
                detail: "row_ptr must be non-decreasing".to_string(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "col_idx length {} != values length {}",
                    col_idx.len(),
                    values.len()
                ),
            });
        }
        for (row, w) in row_ptr.windows(2).enumerate() {
            check_row(
                row,
                &col_idx[w[0] as usize..w[1] as usize],
                num_rows,
                num_cols,
            )?;
        }
        Ok(Self {
            num_rows,
            num_cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds from parts that are known to be valid (internal fast path
    /// for conversions that construct invariant-respecting arrays).
    pub(crate) fn from_parts_unchecked(
        num_rows: usize,
        num_cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), num_rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            num_rows,
            num_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`num_rows + 1` entries).
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates over the `(col, value)` entries of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rows`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Scores every row against `x` with [`exact_dot`] — the exact
    /// reference the approximate engines are scored against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_cols`.
    pub fn spmv_exact(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_cols, "vector length mismatch");
        (0..self.num_rows)
            .map(|r| exact_dot(self.row(r), x))
            .collect()
    }

    /// Splits the matrix into `parts` row-contiguous partitions of
    /// near-equal row count (the §III-A partitioning scheme). The last
    /// partition absorbs the remainder. Returns `(first_row, submatrix)`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or `parts > num_rows` (each core needs at
    /// least one row).
    pub fn partition_rows(&self, parts: usize) -> Vec<(usize, Csr)> {
        assert!(parts > 0, "cannot partition into zero parts");
        assert!(
            parts <= self.num_rows.max(1),
            "more partitions ({parts}) than rows ({})",
            self.num_rows
        );
        let base = self.num_rows / parts;
        let extra = self.num_rows % parts;
        let mut out = Vec::with_capacity(parts);
        let mut row = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            let lo = self.row_ptr[row] as usize;
            let hi = self.row_ptr[row + len] as usize;
            let row_ptr: Vec<u64> = self.row_ptr[row..=row + len]
                .iter()
                .map(|&v| v - self.row_ptr[row])
                .collect();
            out.push((
                row,
                Csr::from_parts_unchecked(
                    len,
                    self.num_cols,
                    row_ptr,
                    self.col_idx[lo..hi].to_vec(),
                    self.values[lo..hi].to_vec(),
                ),
            ));
            row += len;
        }
        out
    }

    /// Returns a new matrix with `rows` appended after the existing
    /// ones — the delta-shard fold: a serving tier that accumulated
    /// freshly ingested rows in an append-only side shard compacts them
    /// into the base collection by re-encoding `base.append_rows(delta)`.
    ///
    /// Each row is a `(col_idx, values)` pair whose columns must be
    /// strictly increasing (CSR row order) and in bounds; appended rows
    /// keep their entry order, so the folded matrix scores them with
    /// exactly the arithmetic (`f64` accumulation in column order) an
    /// exact engine used while they were still delta rows.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] for an out-of-range column,
    /// [`SparseError::DuplicateEntry`] for a repeated or unsorted column
    /// within one appended row, [`SparseError::DimensionTooLarge`] if the
    /// result would exceed `u32` row indexing.
    pub fn append_rows(&self, rows: &[(Vec<u32>, Vec<f32>)]) -> Result<Csr, SparseError> {
        let new_rows = self.num_rows + rows.len();
        if new_rows > u32::MAX as usize {
            return Err(SparseError::DimensionTooLarge {
                detail: format!("{new_rows} rows exceed u32 row indexing"),
            });
        }
        let mut row_ptr = Vec::with_capacity(new_rows + 1);
        row_ptr.extend_from_slice(&self.row_ptr);
        let extra_nnz: usize = rows.iter().map(|(c, _)| c.len()).sum();
        let mut col_idx = Vec::with_capacity(self.col_idx.len() + extra_nnz);
        col_idx.extend_from_slice(&self.col_idx);
        let mut values = Vec::with_capacity(self.values.len() + extra_nnz);
        values.extend_from_slice(&self.values);
        for (r, (cols, vals)) in rows.iter().enumerate() {
            let row = self.num_rows + r;
            if cols.len() != vals.len() {
                return Err(SparseError::MalformedRowPtr {
                    detail: format!(
                        "appended row {row} has {} columns but {} values",
                        cols.len(),
                        vals.len()
                    ),
                });
            }
            check_row(row, cols, new_rows, self.num_cols)?;
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len() as u64);
        }
        Ok(Csr::from_parts_unchecked(
            new_rows,
            self.num_cols,
            row_ptr,
            col_idx,
            values,
        ))
    }

    /// Per-row non-zero statistics.
    pub fn row_stats(&self) -> RowStats {
        let mut min_nnz = usize::MAX;
        let mut max_nnz = 0usize;
        let mut empty = 0usize;
        for r in 0..self.num_rows {
            let n = self.row_nnz(r);
            min_nnz = min_nnz.min(n);
            max_nnz = max_nnz.max(n);
            empty += usize::from(n == 0);
        }
        if self.num_rows == 0 {
            min_nnz = 0;
        }
        RowStats {
            min_nnz,
            max_nnz,
            mean_nnz: self.nnz() as f64 / self.num_rows.max(1) as f64,
            empty_rows: empty,
        }
    }
}

/// Rejects a shape that `u32` row and column coordinates cannot index.
fn check_shape(num_rows: usize, num_cols: usize) -> Result<(), SparseError> {
    if num_rows > u32::MAX as usize || num_cols > u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge {
            detail: format!("shape {num_rows}x{num_cols} exceeds u32 coordinates"),
        });
    }
    Ok(())
}

/// Checks the columns of row `row`: each inside `num_cols`, strictly
/// increasing (CSR row order, no duplicates).
fn check_row(
    row: usize,
    cols: &[u32],
    num_rows: usize,
    num_cols: usize,
) -> Result<(), SparseError> {
    for (i, &c) in cols.iter().enumerate() {
        if c as usize >= num_cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col: c as usize,
                num_rows,
                num_cols,
            });
        }
        if i > 0 && cols[i - 1] >= c {
            return Err(SparseError::DuplicateEntry {
                row,
                col: c as usize,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (3, 0, 4.0),
                (3, 3, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn row_access() {
        let m = sample();
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.row_nnz(3), 2);
    }

    #[test]
    fn from_parts_validates() {
        // Bad length.
        assert!(Csr::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-monotone.
        assert!(Csr::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err());
        // Bad terminator.
        assert!(Csr::from_parts(1, 2, vec![0, 5], vec![0], vec![1.0]).is_err());
        // Column out of range, reported at its own row.
        assert!(matches!(
            Csr::from_parts(3, 2, vec![0, 1, 1, 2], vec![0, 7], vec![1.0, 1.0]),
            Err(SparseError::IndexOutOfBounds { row: 2, col: 7, .. })
        ));
        // Unsorted and duplicate columns inside a row.
        assert!(matches!(
            Csr::from_parts(2, 4, vec![0, 1, 3], vec![0, 3, 1], vec![1.0; 3]),
            Err(SparseError::DuplicateEntry { row: 1, col: 1 })
        ));
        assert!(matches!(
            Csr::from_parts(1, 4, vec![0, 2], vec![2, 2], vec![1.0; 2]),
            Err(SparseError::DuplicateEntry { row: 0, col: 2 })
        ));
        // Mismatched arrays.
        assert!(Csr::from_parts(1, 2, vec![0, 1], vec![0], vec![]).is_err());
        // A shape beyond u32 coordinates.
        assert!(matches!(
            Csr::from_parts(1, u32::MAX as usize + 1, vec![0, 0], vec![], vec![]),
            Err(SparseError::DimensionTooLarge { .. })
        ));
        // Valid; the same column may repeat across rows.
        assert!(Csr::from_parts(1, 2, vec![0, 1], vec![1], vec![2.0]).is_ok());
        assert!(Csr::from_parts(2, 2, vec![0, 1, 2], vec![1, 1], vec![2.0; 2]).is_ok());
    }

    #[test]
    fn from_triplets_sorts_by_coordinate() {
        let m = Csr::from_triplets(3, 3, &[(2, 0, 3.0), (0, 1, 1.0), (0, 0, 2.0)]).unwrap();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 3]);
        assert_eq!(m.col_idx(), &[0, 1, 0]);
        assert_eq!(m.values(), &[2.0, 1.0, 3.0]);
    }

    #[test]
    fn from_triplets_accepts_empty() {
        let m = Csr::from_triplets(5, 5, &[]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.row_ptr(), &[0; 6]);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let e = Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(
            matches!(e, SparseError::IndexOutOfBounds { row: 2, .. }),
            "{e:?}"
        );
        let e = Csr::from_triplets(2, 2, &[(0, 5, 1.0)]).unwrap_err();
        assert!(
            matches!(e, SparseError::IndexOutOfBounds { col: 5, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn from_triplets_rejects_duplicates() {
        let e = Csr::from_triplets(2, 2, &[(1, 1, 1.0), (1, 1, 2.0)]).unwrap_err();
        assert!(
            matches!(e, SparseError::DuplicateEntry { row: 1, col: 1 }),
            "{e:?}"
        );
    }

    #[test]
    fn spmv_exact_reference() {
        let m = sample();
        let y = m.spmv_exact(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0, 0.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn spmv_checks_vector_length() {
        sample().spmv_exact(&[1.0]);
    }

    #[test]
    fn partition_rows_covers_all_rows() {
        let m = sample();
        let parts = m.partition_rows(3);
        assert_eq!(parts.len(), 3);
        let total_rows: usize = parts.iter().map(|(_, p)| p.num_rows()).sum();
        assert_eq!(total_rows, 4);
        let total_nnz: usize = parts.iter().map(|(_, p)| p.nnz()).sum();
        assert_eq!(total_nnz, 5);
        // First rows are cumulative.
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[1].0, 2); // 4 rows / 3 parts -> sizes 2,1,1
        assert_eq!(parts[2].0, 3);
        // Partition content matches source rows.
        assert_eq!(
            parts[2].1.row(0).collect::<Vec<_>>(),
            m.row(3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partition_single_part_is_identity() {
        let m = sample();
        let parts = m.partition_rows(1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1, m);
    }

    #[test]
    fn append_rows_folds_delta_rows_in_order() {
        let m = sample();
        let delta = vec![
            (vec![1u32, 3], vec![7.0f32, 8.0]),
            (vec![], vec![]),
            (vec![0u32], vec![9.0]),
        ];
        let folded = m.append_rows(&delta).unwrap();
        assert_eq!(folded.num_rows(), 7);
        assert_eq!(folded.num_cols(), 4);
        assert_eq!(folded.nnz(), m.nnz() + 3);
        // Old rows untouched.
        for r in 0..m.num_rows() {
            assert_eq!(
                folded.row(r).collect::<Vec<_>>(),
                m.row(r).collect::<Vec<_>>()
            );
        }
        // New rows in append order, entries in column order.
        assert_eq!(folded.row(4).collect::<Vec<_>>(), vec![(1, 7.0), (3, 8.0)]);
        assert_eq!(folded.row_nnz(5), 0);
        assert_eq!(folded.row(6).collect::<Vec<_>>(), vec![(0, 9.0)]);
        // Scores of folded rows equal a by-hand dot in the same order.
        let y = folded.spmv_exact(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y[4], 7.0 * 2.0 + 8.0 * 4.0);
        assert_eq!(y[6], 9.0);
    }

    #[test]
    fn append_rows_validates_hostile_rows() {
        let m = sample();
        // Out-of-range column.
        assert!(matches!(
            m.append_rows(&[(vec![4], vec![1.0])]),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        // Unsorted and duplicate columns.
        assert!(matches!(
            m.append_rows(&[(vec![2, 1], vec![1.0, 2.0])]),
            Err(SparseError::DuplicateEntry { .. })
        ));
        assert!(matches!(
            m.append_rows(&[(vec![1, 1], vec![1.0, 2.0])]),
            Err(SparseError::DuplicateEntry { .. })
        ));
        // Mismatched lengths.
        assert!(matches!(
            m.append_rows(&[(vec![1], vec![])]),
            Err(SparseError::MalformedRowPtr { .. })
        ));
        // Empty delta is the identity.
        assert_eq!(m.append_rows(&[]).unwrap(), m);
    }

    #[test]
    fn row_stats_report() {
        let s = sample().row_stats();
        assert_eq!(s.min_nnz, 0);
        assert_eq!(s.max_nnz, 2);
        assert_eq!(s.empty_rows, 1);
        assert!((s.mean_nnz - 1.25).abs() < 1e-12);
    }
}
