//! The Top-K scratchpad: the hardware argmin structure of stage 4.
//!
//! Each core keeps its current best `k` rows in a LUT scratchpad instead
//! of writing the full output vector to HBM. A candidate `(row, value)`
//! replaces the scratchpad's current minimum when its value is at least
//! as large (Algorithm 1, line 27: `res_agg[j] >= worst_curr[j]`). The
//! argmin scan over `k` registers is what creates the RAW dependency that
//! caps `k` at small values (§IV-B).

use std::cmp::Ordering;

/// The workspace's one ranking order over `(row, score)` pairs: score
/// descending, ties broken by ascending row index. `Less` means `a`
/// ranks ahead of `b`, so sorting with it puts the best pair first.
///
/// `by_score` orders two scores ascending: [`f64::total_cmp`] for
/// merged `f64` scores (a total order even on NaN, which can arrive
/// over the wire), [`PartialOrd`] for a core's raw accumulators.
/// Every selector — the tracker's drain, the cross-core and cross-shard
/// merges, the CPU baseline's heap — ranks through this function, so
/// their tie-breaks cannot drift apart.
pub fn rank_cmp<A>(
    a: &(u32, A),
    b: &(u32, A),
    by_score: impl FnOnce(&A, &A) -> Ordering,
) -> Ordering {
    by_score(&b.1, &a.1).then(a.0.cmp(&b.0))
}

/// Ascending order of two accumulators.
fn acc_cmp<A: PartialOrd>(a: &A, b: &A) -> Ordering {
    a.partial_cmp(b)
        // invariant: accumulators are u64 fixed-point or finite float sums of normalised inputs, never NaN
        .expect("comparable values")
}

/// Fixed-capacity tracker of the `k` largest `(index, value)` pairs seen.
///
/// Mirrors the RTL scratchpad: `k` slots with valid bits, candidate
/// insertion by argmin replacement. Generic over the accumulator type so
/// fixed-point cores compare raw accumulators exactly as the hardware
/// comparator does.
///
/// # Example
///
/// ```
/// use tkspmv::TopKTracker;
///
/// let mut t = TopKTracker::new(2);
/// t.insert(10, 0.5);
/// t.insert(11, 0.9);
/// t.insert(12, 0.7); // evicts 0.5
/// let result = t.into_sorted();
/// assert_eq!(result, vec![(11, 0.9), (12, 0.7)]);
/// ```
#[derive(Debug, Clone)]
pub struct TopKTracker<A> {
    /// Capacity `k`.
    k: usize,
    /// Dense slab: the filled prefix of the `k` hardware registers, in
    /// fill order (evictions replace in place).
    slots: Vec<(u32, A)>,
    /// Position of the current minimum (first minimal slot), valid only
    /// once the slab is full. Caching it turns the common-case reject of
    /// a warm scratchpad into a single comparison; an O(k) re-scan runs
    /// only on eviction, mirroring the hardware's threshold register.
    min_slot: usize,
    /// Number of candidates offered (for occupancy statistics).
    offered: u64,
    /// Number of candidates accepted into the scratchpad.
    accepted: u64,
}

impl<A: PartialOrd + Copy> TopKTracker<A> {
    /// Creates a tracker with `k` slots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k tracker needs at least one slot");
        Self {
            k,
            // alloc-ok: one-time k-slot buffer at construction;
            // insert() replaces in place and never grows it.
            slots: Vec::with_capacity(k),
            min_slot: 0,
            offered: 0,
            accepted: 0,
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clears the tracker back to its just-constructed state with `new_k`
    /// slots, keeping the slab's allocation.
    ///
    /// This is what lets a [`crate::BatchScratch`] reuse one tracker per
    /// query lane across batches without reallocating: after the first
    /// batch warms the slab capacity, a reset is free.
    ///
    /// # Panics
    ///
    /// Panics if `new_k == 0`.
    pub fn reset(&mut self, new_k: usize) {
        assert!(new_k > 0, "top-k tracker needs at least one slot");
        self.k = new_k;
        self.slots.clear();
        self.slots.reserve(new_k);
        self.min_slot = 0;
        self.offered = 0;
        self.accepted = 0;
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Recomputes the cached argmin: the *first* slot holding a minimal
    /// value, exactly what the old per-insert `min_by` scan selected.
    fn rescan_min(&mut self) {
        debug_assert_eq!(self.slots.len(), self.k, "argmin only cached when full");
        let mut arg = 0usize;
        let mut min = self.slots[0].1;
        for (i, &(_, v)) in self.slots.iter().enumerate().skip(1) {
            if v < min {
                arg = i;
                min = v;
            }
        }
        self.min_slot = arg;
    }

    /// Offers a candidate; returns `true` if it was accepted.
    ///
    /// Empty slots are filled first; otherwise the candidate replaces the
    /// current minimum if its value is `>=` (the hardware comparison).
    /// With the slab full, a losing candidate costs exactly one
    /// comparison against the cached minimum.
    ///
    /// Values must be totally ordered (the hardware comparator knows no
    /// NaN): an incomparable candidate offered to a full slab compares
    /// `false` and is rejected. Debug builds assert against it; release
    /// builds keep the hot path branch-free.
    pub fn insert(&mut self, index: u32, value: A) -> bool {
        debug_assert!(
            value.partial_cmp(&value).is_some(),
            "top-k candidate values must be comparable (got an incomparable value, e.g. NaN)"
        );
        self.offered += 1;
        // Fill phase: push until all k registers hold a candidate.
        if self.slots.len() < self.k {
            self.slots.push((index, value));
            if self.slots.len() == self.k {
                self.rescan_min();
            }
            self.accepted += 1;
            return true;
        }
        // Steady state: one comparison against the cached minimum.
        if value >= self.slots[self.min_slot].1 {
            self.slots[self.min_slot] = (index, value);
            self.rescan_min();
            self.accepted += 1;
            true
        } else {
            false
        }
    }

    /// The current worst (minimum) tracked value, if the tracker is full.
    pub fn current_min(&self) -> Option<A> {
        if self.slots.len() < self.k {
            return None;
        }
        Some(self.slots[self.min_slot].1)
    }

    /// Candidates offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Candidates accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Extracts the tracked pairs sorted by value descending (ties by
    /// index ascending, for deterministic output).
    // alloc-ok(fn): owned convenience extraction; the engine drains
    // through write_sorted_into and a reused buffer.
    pub fn into_sorted(self) -> Vec<(u32, A)> {
        let mut out = Vec::new();
        self.write_sorted_into(&mut out);
        out
    }

    /// Writes the tracked pairs into `out` (cleared first) sorted by
    /// value descending, ties by index ascending — [`into_sorted`]
    /// without consuming the tracker or allocating once `out`'s capacity
    /// is warm.
    ///
    /// Uses an unstable sort: the engine offers each row at most once
    /// per stream, so the (value desc, index asc) comparator is a strict
    /// total order and stability cannot matter.
    ///
    /// [`into_sorted`]: TopKTracker::into_sorted
    pub fn write_sorted_into(&self, out: &mut Vec<(u32, A)>) {
        out.clear();
        out.extend_from_slice(&self.slots);
        out.sort_unstable_by(|a, b| rank_cmp(a, b, acc_cmp));
    }
}

/// A ranked Top-K answer: row indices with their similarity scores,
/// sorted by score descending.
///
/// # Example
///
/// ```
/// use tkspmv::TopKResult;
///
/// let r = TopKResult::from_pairs(vec![(3, 0.2), (7, 0.9)]);
/// assert_eq!(r.indices(), &[7, 3]);
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    entries: Vec<(u32, f64)>,
}

impl TopKResult {
    /// Builds a result from unsorted `(row, score)` pairs.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by(|a, b| rank_cmp(a, b, f64::total_cmp));
        Self { entries: pairs }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ranked `(row, score)` pairs, best first.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Ranked row indices, best first.
    // alloc-ok(fn): caller-facing owned copy; the scoring loop reads
    // entries() borrowed.
    pub fn indices(&self) -> Vec<u32> {
        self.entries.iter().map(|&(i, _)| i).collect()
    }

    /// Ranked scores, best first.
    // alloc-ok(fn): caller-facing owned copy; the scoring loop reads
    // entries() borrowed.
    pub fn scores(&self) -> Vec<f64> {
        self.entries.iter().map(|&(_, s)| s).collect()
    }

    /// Keeps only the best `k` entries.
    #[must_use]
    pub fn truncated(mut self, k: usize) -> Self {
        self.entries.truncate(k);
        self
    }

    /// Merges several partial results (e.g. per-core Top-k lists) and
    /// keeps the global best `k` — the §III-A reduction step.
    pub fn merge<I: IntoIterator<Item = TopKResult>>(parts: I, k: usize) -> Self {
        Self::merge_pairs(parts.into_iter().flat_map(|p| p.entries), k)
    }

    /// Merges owned `(row, score)` pairs and keeps the global best `k`.
    ///
    /// The clone-free reduction primitive: callers that already hold
    /// per-core pair vectors move them straight in (one flat collect and
    /// one sort, no intermediate per-part [`TopKResult`]s).
    ///
    /// The merge is a *total* order — score descending, then row id
    /// ascending — so equal scores are broken deterministically and the
    /// result is invariant to the arrival order of the pairs. This is a
    /// serving-layer correctness requirement, not a nicety: cross-shard
    /// merges in `tkspmv_serve` must return identical rankings however
    /// the per-shard candidate lists happen to be grouped or ordered
    /// (property-tested in `tests/serve_equivalence.rs`), including at
    /// the truncation boundary where a tie decides who makes the cut.
    // alloc-ok(fn): per-query reduction assembling the owned result
    // list — one flat collect per merge, not per packet.
    pub fn merge_pairs<I: IntoIterator<Item = (u32, f64)>>(pairs: I, k: usize) -> Self {
        Self::from_pairs(pairs.into_iter().collect()).truncated(k)
    }

    /// [`TopKResult::merge_pairs`] for candidate sets that may mention
    /// the same row more than once: each row keeps only its
    /// highest-ranked `(row, score)` pair under the total order before
    /// the cut to `k`.
    ///
    /// This is the merge a *streaming-ingest* serving tier needs: a row
    /// freshly folded from a delta shard into the base collection can
    /// transiently be reported by both (the delta snapshot was taken
    /// before a compaction epoch swap, the base query ran after it).
    /// For exact engines both sightings carry bit-identical scores, so
    /// deduplication changes nothing but the double-count; for
    /// approximate engines it deterministically prefers the better
    /// sighting.
    // alloc-ok(fn): per-query reduction, same budget as merge_pairs.
    pub fn merge_pairs_dedup<I: IntoIterator<Item = (u32, f64)>>(pairs: I, k: usize) -> Self {
        let merged = Self::from_pairs(pairs.into_iter().collect());
        let mut seen = std::collections::HashSet::new();
        let mut entries = merged.entries;
        entries.retain(|&(row, _)| seen.insert(row));
        entries.truncate(k);
        Self { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_empty_slots_first() {
        let mut t = TopKTracker::new(3);
        assert!(t.is_empty());
        assert!(t.insert(1, 0.3));
        assert!(t.insert(2, 0.1));
        assert!(t.insert(3, 0.2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.current_min(), Some(0.1));
    }

    #[test]
    fn replaces_argmin_when_full() {
        let mut t = TopKTracker::new(2);
        t.insert(1, 0.5);
        t.insert(2, 0.8);
        assert!(t.insert(3, 0.6)); // replaces 0.5
        assert!(!t.insert(4, 0.1)); // rejected
        assert_eq!(t.into_sorted(), vec![(2, 0.8), (3, 0.6)]);
    }

    #[test]
    fn equal_value_replaces_like_hardware() {
        // Algorithm 1 uses >=: a tie evicts the current min.
        let mut t = TopKTracker::new(1);
        t.insert(1, 0.5);
        assert!(t.insert(2, 0.5));
        assert_eq!(t.into_sorted(), vec![(2, 0.5)]);
    }

    #[test]
    fn tracks_offer_statistics() {
        let mut t = TopKTracker::new(1);
        t.insert(1, 0.5);
        t.insert(2, 0.1);
        t.insert(3, 0.9);
        assert_eq!(t.offered(), 3);
        assert_eq!(t.accepted(), 2);
    }

    #[test]
    fn sorted_output_is_descending_with_index_ties() {
        let mut t = TopKTracker::new(4);
        for (i, v) in [(5u32, 0.5), (1, 0.5), (9, 0.9), (2, 0.1)] {
            t.insert(i, v);
        }
        assert_eq!(
            t.into_sorted(),
            vec![(9, 0.9), (1, 0.5), (5, 0.5), (2, 0.1)]
        );
    }

    #[test]
    fn works_with_integer_accumulators() {
        // Fixed-point cores compare raw u64 accumulators.
        let mut t = TopKTracker::<u64>::new(2);
        t.insert(1, 100);
        t.insert(2, 300);
        t.insert(3, 200);
        assert_eq!(t.into_sorted(), vec![(2, 300), (3, 200)]);
    }

    #[test]
    fn result_merge_keeps_global_best() {
        let a = TopKResult::from_pairs(vec![(0, 0.9), (1, 0.5)]);
        let b = TopKResult::from_pairs(vec![(10, 0.7), (11, 0.6)]);
        let merged = TopKResult::merge([a, b], 3);
        assert_eq!(merged.indices(), vec![0, 10, 11]);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn result_ordering_is_deterministic_on_ties() {
        let r = TopKResult::from_pairs(vec![(7, 0.5), (3, 0.5), (5, 0.5)]);
        assert_eq!(r.indices(), vec![3, 5, 7]);
    }

    #[test]
    fn merge_ties_are_arrival_order_invariant_at_the_cut() {
        // Four rows tie at the truncation boundary; whichever order (or
        // shard grouping) the pairs arrive in, the ascending-row-id tie
        // break must pick the same survivors.
        let pairs = vec![(9u32, 0.5), (2, 0.5), (7, 0.5), (4, 0.5), (1, 0.9)];
        let expected = vec![1, 2, 4];
        let mut arrangement = pairs.clone();
        // Try every rotation and the reverse of each: 10 arrival orders.
        for _ in 0..pairs.len() {
            arrangement.rotate_left(1);
            let merged = TopKResult::merge_pairs(arrangement.clone(), 3);
            assert_eq!(merged.indices(), expected, "order {arrangement:?}");
            let mut reversed = arrangement.clone();
            reversed.reverse();
            let merged = TopKResult::merge_pairs(reversed.clone(), 3);
            assert_eq!(merged.indices(), expected, "order {reversed:?}");
        }
        // And it is grouping-invariant: merging pre-merged halves (the
        // cross-shard picture) equals the flat merge.
        let left = TopKResult::merge_pairs(pairs[..2].to_vec(), 3);
        let right = TopKResult::merge_pairs(pairs[2..].to_vec(), 3);
        let merged = TopKResult::merge([left, right], 3);
        assert_eq!(merged.indices(), expected);
    }

    #[test]
    fn merge_dedup_keeps_one_sighting_per_row() {
        // Row 4 is reported by both the delta shard and the freshly
        // compacted base with an identical score; row 2 is reported
        // twice with different scores (approximate-engine picture) and
        // must keep the better one.
        let pairs = vec![
            (4u32, 0.8),
            (1, 0.9),
            (4, 0.8),
            (2, 0.3),
            (2, 0.5),
            (7, 0.1),
        ];
        let merged = TopKResult::merge_pairs_dedup(pairs.clone(), 3);
        assert_eq!(merged.entries(), &[(1, 0.9), (4, 0.8), (2, 0.5)]);
        // The duplicate must not consume a slot at the cut: plain
        // merge_pairs would have returned row 4 twice.
        let naive = TopKResult::merge_pairs(pairs, 3);
        assert_eq!(naive.indices(), vec![1, 4, 4]);
        // Without duplicates the two merges agree exactly.
        let unique = vec![(9u32, 0.5), (3, 0.7), (5, 0.2)];
        assert_eq!(
            TopKResult::merge_pairs_dedup(unique.clone(), 2),
            TopKResult::merge_pairs(unique, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_k_rejected() {
        let _ = TopKTracker::<f64>::new(0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut t = TopKTracker::new(2);
        t.insert(1, 0.5);
        t.insert(2, 0.8);
        t.insert(3, 0.9);
        t.reset(3);
        assert!(t.is_empty());
        assert_eq!(t.k(), 3);
        assert_eq!(t.offered(), 0);
        assert_eq!(t.accepted(), 0);
        t.insert(4, 0.1);
        t.insert(5, 0.3);
        t.insert(6, 0.2);
        assert_eq!(t.into_sorted(), vec![(5, 0.3), (6, 0.2), (4, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn reset_to_zero_k_rejected() {
        let mut t = TopKTracker::<f64>::new(2);
        t.reset(0);
    }

    #[test]
    fn write_sorted_into_matches_into_sorted() {
        let mut t = TopKTracker::new(4);
        for (i, v) in [(5u32, 0.5), (1, 0.5), (9, 0.9), (2, 0.1)] {
            t.insert(i, v);
        }
        let mut out = vec![(0u32, 0.0f64); 10]; // stale contents must be cleared
        t.write_sorted_into(&mut out);
        assert_eq!(out, t.into_sorted());
    }
}
