//! Plain-text table rendering for experiment output (markdown, no
//! external dependencies).

use std::fmt::Write as _;

/// A simple column-aligned table that renders to markdown.
///
/// # Example
///
/// ```
/// use tkspmv_eval::report::Table;
///
/// let mut t = Table::new(vec!["design", "speedup"]);
/// t.row(vec!["20b".into(), "104x".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| 20b"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a column-aligned markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` significant decimal places.
pub(crate) fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a speedup factor like the paper's figures (`104x`).
pub(crate) fn fspeedup(v: f64) -> String {
    if v >= 10.0 {
        format!("{v:.0}x")
    } else {
        format!("{v:.1}x")
    }
}

/// Formats a byte count in GB with one decimal.
pub(crate) fn fgb(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.94232, 3), "0.942");
        assert_eq!(fspeedup(104.2), "104x");
        assert_eq!(fspeedup(2.04), "2.0x");
        assert_eq!(fgb(1_700_000_000), "1.70 GB");
    }
}
