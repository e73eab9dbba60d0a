//! MatrixMarket (`.mtx`) import/export.
//!
//! Real sparse-embedding collections are commonly exchanged as
//! MatrixMarket coordinate files; this module reads and writes the
//! `matrix coordinate real general` subset (plus `pattern` files, whose
//! entries get value 1.0), so the accelerator can run on external data
//! instead of the synthetic generators.

use std::io::{BufRead, BufReader, Read, Write};

use crate::csr::Csr;
use crate::error::SparseError;

/// Error raised while parsing a MatrixMarket stream.
#[derive(Debug)]
pub enum ReadMtxError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header or an entry line is malformed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// The entries violate matrix invariants (bounds, duplicates).
    Matrix(SparseError),
}

impl std::fmt::Display for ReadMtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadMtxError::Io(e) => write!(f, "i/o error: {e}"),
            ReadMtxError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            ReadMtxError::Matrix(e) => write!(f, "invalid matrix: {e}"),
        }
    }
}

impl std::error::Error for ReadMtxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadMtxError::Io(e) => Some(e),
            ReadMtxError::Matrix(e) => Some(e),
            ReadMtxError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadMtxError {
    fn from(e: std::io::Error) -> Self {
        ReadMtxError::Io(e)
    }
}

impl From<SparseError> for ReadMtxError {
    fn from(e: SparseError) -> Self {
        ReadMtxError::Matrix(e)
    }
}

/// Reads a `matrix coordinate real|integer|pattern general` MatrixMarket
/// stream into a CSR matrix.
///
/// A `&mut` reference can be passed for `reader` (e.g. `&mut file`).
///
/// # Errors
///
/// Returns [`ReadMtxError`] on I/O failure, malformed input, or
/// out-of-bounds/duplicate entries.
///
/// # Example
///
/// ```
/// use tkspmv_sparse::io::read_mtx;
///
/// let text = "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 0.5\n2 3 0.25\n";
/// let csr = read_mtx(text.as_bytes())?;
/// assert_eq!(csr.num_rows(), 2);
/// assert_eq!(csr.nnz(), 2);
/// # Ok::<(), tkspmv_sparse::io::ReadMtxError>(())
/// ```
pub fn read_mtx<R: Read>(reader: R) -> Result<Csr, ReadMtxError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (line_no, header) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(ReadMtxError::Parse {
                    line: 0,
                    detail: "empty stream".to_string(),
                })
            }
        }
    };
    let header_lc = header.to_ascii_lowercase();
    let fields: Vec<&str> = header_lc.split_whitespace().collect();
    if fields.len() < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(ReadMtxError::Parse {
            line: line_no,
            detail: format!("not a MatrixMarket header: `{header}`"),
        });
    }
    if fields[2] != "coordinate" {
        return Err(ReadMtxError::Parse {
            line: line_no,
            detail: "only `coordinate` format is supported".to_string(),
        });
    }
    let value_kind = fields[3];
    if !matches!(value_kind, "real" | "integer" | "pattern") {
        return Err(ReadMtxError::Parse {
            line: line_no,
            detail: format!("unsupported value type `{value_kind}`"),
        });
    }
    if fields.get(4).is_some_and(|s| *s != "general") {
        return Err(ReadMtxError::Parse {
            line: line_no,
            detail: "only `general` symmetry is supported".to_string(),
        });
    }

    // Size line: rows cols nnz (skipping % comments).
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((n, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (n + 1, line);
                }
            }
            None => {
                return Err(ReadMtxError::Parse {
                    line: line_no,
                    detail: "missing size line".to_string(),
                })
            }
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| ReadMtxError::Parse {
            line: size_line_no,
            detail: format!("bad size line: {e}"),
        })?;
    let [rows, cols, nnz] = dims[..] else {
        return Err(ReadMtxError::Parse {
            line: size_line_no,
            detail: format!("size line needs `rows cols nnz`, got {} fields", dims.len()),
        });
    };
    // A hostile header must produce a typed error, never wrap, panic, or
    // force a huge allocation: the shape has to be u32-indexable (entries
    // are 1-based u32 coordinates) and `nnz` cannot exceed the number of
    // cells the shape holds (the product is overflow-checked).
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge {
            detail: format!("shape {rows}x{cols} exceeds u32 coordinates"),
        }
        .into());
    }
    let cells = (rows as u64)
        .checked_mul(cols as u64)
        .ok_or(SparseError::DimensionTooLarge {
            detail: format!("shape {rows}x{cols} has an uncountable number of cells"),
        })?;
    if nnz as u64 > cells {
        return Err(SparseError::TooManyNonZeros {
            nnz: nnz as u64,
            capacity: cells,
        }
        .into());
    }

    // The capacity reservation is capped: the real size is enforced by
    // the entry-count check below, and a lying header must not be able
    // to abort the process through an oversized allocation.
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(nnz.min(1 << 20));
    for (n, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse_coord = |tok: Option<&str>, what: &str| -> Result<u64, ReadMtxError> {
            tok.ok_or_else(|| ReadMtxError::Parse {
                line: n + 1,
                detail: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| ReadMtxError::Parse {
                line: n + 1,
                detail: format!("bad {what}: {e}"),
            })
        };
        let r = parse_coord(it.next(), "row index")?;
        let c = parse_coord(it.next(), "column index")?;
        if r == 0 || c == 0 {
            return Err(ReadMtxError::Parse {
                line: n + 1,
                detail: "MatrixMarket indices are 1-based".to_string(),
            });
        }
        // Coordinates are parsed as u64 so an absurd index is a typed
        // bounds error against the declared shape, not a lexer failure
        // (and `- 1` below can never wrap).
        if r > rows as u64 || c > cols as u64 {
            return Err(SparseError::IndexOutOfBounds {
                row: (r - 1) as usize,
                col: (c - 1) as usize,
                num_rows: rows,
                num_cols: cols,
            }
            .into());
        }
        let v = if value_kind == "pattern" {
            1.0
        } else {
            it.next()
                .ok_or_else(|| ReadMtxError::Parse {
                    line: n + 1,
                    detail: "missing value".to_string(),
                })?
                .parse::<f32>()
                .map_err(|e| ReadMtxError::Parse {
                    line: n + 1,
                    detail: format!("bad value: {e}"),
                })?
        };
        triplets.push(((r - 1) as u32, (c - 1) as u32, v));
    }
    if triplets.len() != nnz {
        return Err(ReadMtxError::Parse {
            line: size_line_no,
            detail: format!("size line promised {nnz} entries, found {}", triplets.len()),
        });
    }
    Ok(Csr::from_triplets(rows, cols, &triplets)?)
}

/// Writes a CSR matrix as `matrix coordinate real general`.
///
/// A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_mtx<W: Write>(mut writer: W, csr: &Csr) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by tkspmv")?;
    writeln!(
        writer,
        "{} {} {}",
        csr.num_rows(),
        csr.num_cols(),
        csr.nnz()
    )?;
    for r in 0..csr.num_rows() {
        for (c, v) in csr.row(r) {
            writeln!(writer, "{} {} {}", r + 1, c + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
%%MatrixMarket matrix coordinate real general
% a comment
3 4 4
1 2 0.5
1 4 0.25
2 1 1.0
3 3 0.75
";

    #[test]
    fn reads_real_general() {
        let csr = read_mtx(SAMPLE.as_bytes()).unwrap();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.num_cols(), 4);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row(0).collect::<Vec<_>>(), vec![(1, 0.5), (3, 0.25)]);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let csr = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(csr.values(), &[1.0, 1.0]);
    }

    #[test]
    fn round_trip_through_writer() {
        let csr = read_mtx(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_mtx(&mut buf, &csr).unwrap();
        let back = read_mtx(buf.as_slice()).unwrap();
        assert_eq!(csr, back);
    }

    #[test]
    fn rejects_malformed_inputs() {
        // Wrong banner.
        assert!(read_mtx("hello\n1 1 0\n".as_bytes()).is_err());
        // Unsupported format.
        assert!(
            read_mtx("%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()).is_err()
        );
        // Symmetric not supported.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n".as_bytes()
        )
        .is_err());
        // 0-based index.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 0.5\n".as_bytes()
        )
        .is_err());
        // Entry count mismatch.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.5\n".as_bytes()
        )
        .is_err());
        // Out of bounds.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 0.5\n".as_bytes()
        )
        .is_err());
        // Empty stream.
        assert!(read_mtx("".as_bytes()).is_err());
    }

    #[test]
    fn hostile_headers_fail_typed_without_wrapping_or_allocating() {
        // Shape beyond u32 coordinates.
        let huge_dim = format!(
            "%%MatrixMarket matrix coordinate real general\n{} 2 1\n1 1 0.5\n",
            u32::MAX as u64 + 1
        );
        assert!(matches!(
            read_mtx(huge_dim.as_bytes()),
            Err(ReadMtxError::Matrix(SparseError::DimensionTooLarge { .. }))
        ));
        // nnz that cannot fit the declared shape (and, were it trusted,
        // would pre-allocate terabytes).
        let lying_nnz =
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n1 1 0.5\n";
        assert!(matches!(
            read_mtx(lying_nnz.as_bytes()),
            Err(ReadMtxError::Matrix(SparseError::TooManyNonZeros { .. }))
        ));
        let overfull = "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 0.5\n";
        assert!(matches!(
            read_mtx(overfull.as_bytes()),
            Err(ReadMtxError::Matrix(SparseError::TooManyNonZeros { .. }))
        ));
        // An entry index far past u32 must be a typed bounds error, not a
        // lexer failure or a wrapped coordinate.
        let huge_index = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5000000000 0.5\n";
        match read_mtx(huge_index.as_bytes()) {
            Err(ReadMtxError::Matrix(SparseError::IndexOutOfBounds { col, .. })) => {
                assert_eq!(col, 4_999_999_999);
            }
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn error_display_carries_line_numbers() {
        let err =
            read_mtx("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 0.5\n".as_bytes())
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "\n%%MatrixMarket matrix coordinate real general\n% c1\n\n2 2 1\n% c2\n1 1 0.5\n";
        let csr = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 1);
    }
}
