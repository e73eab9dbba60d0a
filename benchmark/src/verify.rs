//! Answer checks: every response the benchmark times is also checked.
//!
//! Responses to the 128 reference queries are compared in full with a
//! reference answer computed before timing; every other response is
//! checked structurally (K entries, strict total order). A response
//! that fails its check is a failed call.

use crate::input::{exact_score, Inputs};

/// Whether `entries` is a well-formed Top-`k`: exactly `k` entries in
/// the engine's strict total order (score descending, row ascending —
/// which also rules out a row appearing twice).
pub fn well_formed(entries: &[(u32, f64)], k: usize) -> bool {
    entries.len() == k
        && entries.windows(2).all(|p| {
            let ((row_a, a), (row_b, b)) = (p[0], p[1]);
            a > b || (a == b && row_a < row_b)
        })
}

/// The check every timed response gets: in full against its reference
/// where the query has one, structurally otherwise.
pub fn answer_ok(answer: &[(u32, f64)], reference: Option<&Vec<(u32, f64)>>, k: usize) -> bool {
    match reference {
        Some(reference) => identical(answer, reference),
        None => well_formed(answer, k),
    }
}

/// `|answer ∩ oracle| / |oracle|`.
pub fn recall(answer: &[(u32, f64)], oracle: &[u32]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let hits = answer
        .iter()
        .filter(|(row, _)| oracle.contains(row))
        .count();
    hits as f64 / oracle.len() as f64
}

/// Bit-for-bit equality of two rankings (`f64` scores compared by bits,
/// so `-0.0`/`0.0` or NaN payload drift would show).
pub fn identical(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Checks routed answers to reference queries while appended rows may
/// be visible.
///
/// `reference` is the answer over the base collection alone (rows below
/// `base_rows`). Appends only ever add rows, so the true answer is the
/// merge of `reference` with the scores of whatever appended rows were
/// visible — which rows were is a race the harness cannot know, so the
/// check is everything that holds regardless: the ranking is well
/// formed, each appended row carries exactly the score the harness
/// computes for it, and the base rows are bit-identical reference
/// entries. With `prefix` (the exact tier) the base rows must further
/// be exactly the leading entries of `reference`; the pruned tier is
/// approximate, so it may skip a reference row, and may substitute up
/// to `slack` base rows the reference does not hold.
pub struct RoutedCheck<'a> {
    /// The inputs the appended rows and queries come from.
    pub inputs: &'a Inputs,
    /// Rows in the base collection; ids at or above it are appended.
    pub base_rows: u32,
    /// Entries every answer must hold.
    pub k: usize,
}

impl RoutedCheck<'_> {
    /// Whether `answer` to reference query `q` is acceptable.
    pub fn ok(
        &self,
        q: usize,
        answer: &[(u32, f64)],
        reference: &[(u32, f64)],
        prefix: bool,
        slack: usize,
    ) -> bool {
        let (inputs, base_rows) = (self.inputs, self.base_rows);
        if !well_formed(answer, self.k) {
            return false;
        }
        let x = inputs.queries[q].as_slice();
        let mut next_ref = 0usize;
        let mut unknown = 0usize;
        for &(row, score) in answer {
            if row >= base_rows {
                let (cols, vals) = inputs.append_pool_row(u64::from(row - base_rows));
                if exact_score(cols, vals, x).to_bits() != score.to_bits() {
                    return false;
                }
                continue;
            }
            if prefix {
                match reference.get(next_ref) {
                    Some(r) if r.0 == row && r.1.to_bits() == score.to_bits() => next_ref += 1,
                    _ => return false,
                }
            } else {
                match reference.iter().find(|r| r.0 == row) {
                    Some(r) if r.1.to_bits() == score.to_bits() => {}
                    Some(_) => return false,
                    None => unknown += 1,
                }
            }
        }
        unknown <= slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Scale;

    #[test]
    fn well_formed_means_k_entries_in_strict_total_order() {
        let ok = [(4, 0.9), (1, 0.5), (2, 0.5), (0, 0.1)];
        assert!(well_formed(&ok, 4));
        assert!(!well_formed(&ok, 3), "wrong length");
        assert!(!well_formed(&[(1, 0.5), (4, 0.9)], 2), "ascending scores");
        assert!(
            !well_formed(&[(2, 0.5), (1, 0.5)], 2),
            "tie out of row order"
        );
        assert!(!well_formed(&[(1, 0.5), (1, 0.5)], 2), "duplicate row");
        assert!(
            !well_formed(&[(1, f64::NAN), (2, 0.1)], 2),
            "NaN never orders"
        );
    }

    #[test]
    fn recall_counts_the_overlap() {
        let answer = [(1, 0.9), (2, 0.8), (9, 0.7), (4, 0.6)];
        assert_eq!(recall(&answer, &[1, 2, 3, 4]), 0.75);
        assert_eq!(recall(&answer, &[]), 1.0);
    }

    #[test]
    fn identical_is_bitwise() {
        assert!(identical(&[(1, 0.5)], &[(1, 0.5)]));
        assert!(!identical(&[(1, 0.0)], &[(1, -0.0)]));
        assert!(!identical(&[(1, 0.5)], &[(2, 0.5)]));
        assert!(!identical(&[(1, 0.5)], &[]));
    }

    #[test]
    fn routed_check_accepts_visible_appends_and_nothing_else() {
        let inputs = Inputs::generate(11, Scale::Quick);
        let base_rows = inputs.csr.num_rows() as u32;
        let x = inputs.queries[0].as_slice();
        // Reference scores bracket appended row 2's true score, so the
        // append lands mid-ranking instead of falling off the end.
        let (cols, vals) = inputs.append_pool_row(2);
        let s = exact_score(cols, vals, x);
        let reference: Vec<(u32, f64)> =
            vec![(5, s + 0.3), (3, s + 0.2), (8, s - 0.01), (1, s - 0.02)];
        let check = RoutedCheck {
            inputs: &inputs,
            base_rows,
            k: reference.len(),
        };
        let k = check.k;
        assert!(check.ok(0, &reference, &reference, true, 0));

        // An appended row with its true score, slotted in by the order.
        let mut with_append: Vec<(u32, f64)> = reference.clone();
        with_append.push((base_rows + 2, s));
        with_append.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        with_append.truncate(k);
        assert_eq!(with_append[2].0, base_rows + 2);
        assert!(check.ok(0, &with_append, &reference, true, 0));

        // The same row with a wrong score is a mismatch.
        let mut wrong = with_append.clone();
        for e in &mut wrong {
            if e.0 >= base_rows {
                e.1 = f64::from_bits(e.1.to_bits() + 1);
            }
        }
        assert!(!check.ok(0, &wrong, &reference, true, 0));

        // A base row the reference does not hold: never on the exact
        // tier, within slack on the pruned tier.
        let substituted = vec![(5, s + 0.3), (3, s + 0.2), (8, s - 0.01), (2, s - 0.015)];
        assert!(!check.ok(0, &substituted, &reference, true, 0));
        assert!(!check.ok(0, &substituted, &reference, false, 0));
        assert!(check.ok(0, &substituted, &reference, false, 1));
        // Skipping a reference row breaks the exact tier's prefix rule.
        let skipped = vec![(5, s + 0.3), (8, s - 0.01), (1, s - 0.02), (0, s - 0.03)];
        assert!(!check.ok(0, &skipped, &reference, true, 0));
    }
}
