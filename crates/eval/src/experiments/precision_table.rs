//! Table I: expected precision of the partitioned Top-K approximation.
//!
//! Unlike the engine-facing experiments, this one enumerates no
//! [`tkspmv::TopKBackend`]s: Table I is pure order statistics over the
//! `(N, c, k, K)` design space — the *analytic* counterpart of the
//! accuracies the backends realise empirically in Figure 7 — so it runs
//! on closed forms and Monte Carlo trials alone.

use tkspmv::approx::{expected_precision, monte_carlo_precision};

use crate::report::{fnum, Table};

/// The K values of Table I's columns.
const TABLE1_KS: [u64; 6] = [8, 16, 32, 50, 75, 100];
/// The partition counts of Table I's rows.
const TABLE1_CS: [u64; 3] = [16, 28, 32];
/// The matrix sizes of Table I's row groups.
const TABLE1_NS: [u64; 2] = [1_000_000, 10_000_000];

/// One Table I row: precision per K for a given `(N, c)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Matrix rows `N`.
    n: u64,
    /// Partitions `c`.
    c: u64,
    /// Monte Carlo estimates per K (the paper's methodology).
    monte_carlo: Vec<f64>,
    /// Closed-form expectations per K (Equation 1's exact counterpart).
    closed_form: Vec<f64>,
}

/// Reproduces Table I: `k = 8`, 1000 trials per cell (plus the closed
/// form for cross-checking).
pub fn run(trials: u32, seed: u64) -> Vec<PrecisionRow> {
    let mut rows = Vec::new();
    for &n in &TABLE1_NS {
        for &c in &TABLE1_CS {
            let monte_carlo = TABLE1_KS
                .iter()
                .map(|&k| monte_carlo_precision(n, c, 8, k, trials, seed ^ (n + c)))
                .collect();
            let closed_form = TABLE1_KS
                .iter()
                .map(|&k| expected_precision(n, c, 8, k))
                .collect();
            rows.push(PrecisionRow {
                n,
                c,
                monte_carlo,
                closed_form,
            });
        }
    }
    rows
}

/// Renders the rows in Table I's layout.
pub fn to_table(rows: &[PrecisionRow]) -> Table {
    let mut header = vec![
        "N".to_string(),
        "partitions".to_string(),
        "method".to_string(),
    ];
    header.extend(TABLE1_KS.iter().map(|k| format!("K={k}")));
    let mut t = Table::new(header);
    for row in rows {
        let mut mc = vec![
            format!("{:.0e}", row.n as f64),
            format!("c = {}", row.c),
            "monte-carlo".to_string(),
        ];
        mc.extend(row.monte_carlo.iter().map(|&p| fnum(p, 3)));
        t.row(mc);
        let mut cf = vec![String::new(), String::new(), "closed-form".to_string()];
        cf.extend(row.closed_form.iter().map(|&p| fnum(p, 3)));
        t.row(cf);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I's published values for `N = 10^6`.
    fn paper_reference_n1e6() -> [(u64, [f64; 6]); 3] {
        [
            (16, [1.0, 1.0, 0.999, 0.998, 0.983, 0.942]),
            (28, [1.0, 1.0, 1.0, 0.999, 0.999, 0.996]),
            (32, [1.0, 1.0, 1.0, 0.999, 0.999, 0.997]),
        ]
    }

    #[test]
    fn reproduces_table1_within_tolerance() {
        let rows = run(2000, 42);
        for (c, expected) in paper_reference_n1e6() {
            let row = rows
                .iter()
                .find(|r| r.n == 1_000_000 && r.c == c)
                .expect("row exists");
            for (i, &want) in expected.iter().enumerate() {
                let got = row.monte_carlo[i];
                assert!(
                    (got - want).abs() < 0.015,
                    "N=1e6 c={c} K={}: {got:.3} vs paper {want}",
                    TABLE1_KS[i]
                );
            }
        }
    }

    #[test]
    fn monte_carlo_tracks_closed_form() {
        for row in run(3000, 1) {
            for (mc, cf) in row.monte_carlo.iter().zip(&row.closed_form) {
                assert!((mc - cf).abs() < 0.02, "{mc} vs {cf}");
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = run(100, 2);
        let t = to_table(&rows);
        assert_eq!(t.len(), rows.len() * 2);
        assert!(t.to_markdown().contains("monte-carlo"));
    }
}
