//! The Top-K scratchpad: the hardware argmin structure of stage 4.
//!
//! Each core keeps its current best `k` rows in a LUT scratchpad instead
//! of writing the full output vector to HBM. A candidate `(row, value)`
//! replaces the scratchpad's current minimum when its value is at least
//! as large (Algorithm 1, line 27: `res_agg[j] >= worst_curr[j]`). The
//! argmin scan over `k` registers is what creates the RAW dependency that
//! caps `k` at small values (§IV-B).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The workspace's one ranking order over `(row, score)` pairs: score
/// descending, ties broken by ascending row index. `Less` means `a`
/// ranks ahead of `b`, so sorting with it puts the best pair first.
///
/// `by_score` orders two scores ascending: [`f64::total_cmp`] for
/// merged `f64` scores (a total order even on NaN, which can arrive
/// over the wire); for a core's raw accumulators, [`PartialOrd`] with
/// an incomparable value (a float NaN) below every comparable one.
/// The tracker's drain and [`TopKResult::from_pairs`] sort with it, and
/// the one exact selector, [`TopKResult::merge_pairs`], keys its heap
/// in the same order (pinned by a test), so tie-breaks cannot drift.
pub fn rank_cmp<A>(
    a: &(u32, A),
    b: &(u32, A),
    by_score: impl FnOnce(&A, &A) -> Ordering,
) -> Ordering {
    by_score(&b.1, &a.1).then(a.0.cmp(&b.0))
}

/// Whether `a` has a place in its type's order (a float NaN does not).
fn comparable<A: PartialOrd>(a: &A) -> bool {
    a.partial_cmp(a).is_some()
}

/// Ascending total order of two accumulators: [`PartialOrd`] where it
/// answers, and an incomparable value (a float NaN, from a NaN query
/// entry or an `inf − inf` sum) below every comparable one.
fn acc_cmp<A: PartialOrd>(a: &A, b: &A) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| comparable(a).cmp(&comparable(b)))
}

/// Fixed-capacity tracker of the `k` largest `(index, value)` pairs seen.
///
/// Mirrors the RTL scratchpad: `k` slots with valid bits, candidate
/// insertion by argmin replacement. Generic over the accumulator type so
/// fixed-point cores compare raw accumulators exactly as the hardware
/// comparator does.
///
/// Deliberately not an exact selector: the `>=` replace rule lets a tie
/// evict the current minimum, so which tied rows survive depends on
/// arrival order, as in hardware. Exact cuts go through
/// [`TopKResult::merge_pairs`], the only other Top-K structure.
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
            // insert() replaces in place and never grows it past k.
            slots: Vec::with_capacity(k),
            min_slot: 0,
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
    /// value under the drain's total order, so an incomparable value
    /// that entered during the fill phase is evicted before any
    /// comparable one.
    fn rescan_min(&mut self) {
        debug_assert_eq!(self.slots.len(), self.k, "argmin only cached when full");
        let mut arg = 0usize;
        let mut min = self.slots[0].1;
        for (i, &(_, v)) in self.slots.iter().enumerate().skip(1) {
            if acc_cmp(&v, &min) == Ordering::Less {
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
    /// With the slab full, a losing candidate costs one comparison
    /// against the cached minimum (an integer accumulator never needs
    /// the second, incomparability check).
    ///
    /// An incomparable value (a float NaN) ranks below every comparable
    /// one: offered to a full slab it is rejected, and those that entered
    /// during the fill phase are the first to be replaced.
    // Inlined into the engine's select step (`engine::core_model`):
    // a call per offer there cost more than the comparison. Its floor
    // filter relies on this `>=` and NaN rule: it drops only offers that
    // this would reject.
    #[inline]
    pub fn insert(&mut self, index: u32, value: A) -> bool {
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
        let min = self.slots[self.min_slot].1;
        if value >= min || !comparable(&min) {
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

    /// Candidates accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Extracts the tracked pairs sorted by value descending (ties by
    /// index ascending, for deterministic output).
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
    /// Builds a result from unsorted `(row, score)` pairs that are
    /// already bounded; [`TopKResult::merge_pairs`] cuts a longer list.
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
    pub fn indices(&self) -> Vec<u32> {
        self.entries.iter().map(|&(i, _)| i).collect()
    }

    /// Ranked scores, best first.
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

    /// Merges owned `(row, score)` pairs and keeps the global best `k`:
    /// the workspace's one exact bounded selector.
    ///
    /// The pairs stream through a heap of at most `k` entries (O(n log k)
    /// time, O(k) memory); only the survivors are sorted. The answer
    /// equals a full sort's first `k` under [`rank_cmp`] with
    /// [`f64::total_cmp`], ties and NaNs included.
    ///
    /// The merge is a *total* order — score descending, then row id
    /// ascending — so equal scores are broken deterministically and the
    /// result is invariant to the arrival order of the pairs. This is a
    /// serving-layer correctness requirement, not a nicety: cross-shard
    /// merges in `tkspmv_serve` must return identical rankings however
    /// the per-shard candidate lists happen to be grouped or ordered
    /// (property-tested in `tests/serve_equivalence.rs`), including at
    /// the truncation boundary where a tie decides who makes the cut.
    /// A row passed twice is kept twice: callers pass each row once.
    pub fn merge_pairs<I: IntoIterator<Item = (u32, f64)>>(pairs: I, k: usize) -> Self {
        let keys = pairs
            .into_iter()
            .map(|(row, score)| (total_order_key(score.to_bits() as i64), Reverse(row)));
        let mut kept = top_keys(keys, k);
        // Ascending `Reverse` is descending key: best first.
        kept.sort_unstable();
        let entries = kept
            .into_iter()
            .map(|Reverse((key, Reverse(row)))| (row, f64::from_bits(total_order_key(key) as u64)))
            .collect();
        Self { entries }
    }
}

/// The `k` largest of `keys`, unordered, from a min-heap of at most `k`
/// keys whose root a candidate must beat to enter. Callers encode the
/// ranking in the key: `(score, Reverse(row))` is [`rank_cmp`]'s.
pub(crate) fn top_keys<K: Ord>(keys: impl IntoIterator<Item = K>, k: usize) -> Vec<Reverse<K>> {
    let keys = keys.into_iter();
    // The selection's one buffer, at most k keys; the result reuses it.
    let mut heap = BinaryHeap::with_capacity(k.min(keys.size_hint().0));
    for key in keys {
        if heap.len() < k {
            heap.push(Reverse(key));
        } else if let Some(mut worst) = heap.peek_mut() {
            if key > worst.0 {
                *worst = Reverse(key);
            }
        }
    }
    heap.into_vec()
}

/// Maps `f64` bits to an `i64` ordered as [`f64::total_cmp`] orders the
/// floats (the transform `total_cmp` applies); its own inverse.
fn total_order_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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
        // And grouping does not matter: merging pre-merged halves (the
        // cross-shard picture) equals the flat merge.
        let left = TopKResult::merge_pairs(pairs[..2].to_vec(), 3);
        let right = TopKResult::merge_pairs(pairs[2..].to_vec(), 3);
        let merged = TopKResult::merge([left, right], 3);
        assert_eq!(merged.indices(), expected);
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

    #[test]
    fn incomparable_values_rank_below_every_comparable_one() {
        // NaNs accepted while filling are the first evicted, never a
        // finite score; a NaN offered to a full slab is rejected.
        let mut t = TopKTracker::<f32>::new(3);
        t.insert(1, f32::NAN);
        t.insert(2, 0.5);
        t.insert(3, f32::NAN);
        assert!(t.insert(4, 0.1)); // evicts row 1
        assert!(t.insert(6, 0.2)); // evicts row 3
        assert!(!t.insert(5, f32::NAN));
        assert_eq!(t.into_sorted(), vec![(2, 0.5), (6, 0.2), (4, 0.1)]);

        // A NaN still held at drain time ranks last instead of panicking.
        let mut t = TopKTracker::<f32>::new(3);
        t.insert(1, f32::NAN);
        t.insert(2, -0.5);
        let drained = t.into_sorted();
        assert_eq!(drained[0], (2, -0.5));
        assert!(drained[1].0 == 1 && drained[1].1.is_nan());
    }

    /// `(row, score bits)`: compares NaN scores bit for bit.
    fn bits(pairs: &[(u32, f64)]) -> Vec<(u32, u64)> {
        pairs.iter().map(|&(r, s)| (r, s.to_bits())).collect()
    }

    /// The reference the selector must equal: a full sort under
    /// `rank_cmp(.., f64::total_cmp)`, cut at `k`.
    fn sorted_cut(pairs: &[(u32, f64)], k: usize) -> Vec<(u32, u64)> {
        let mut all = pairs.to_vec();
        all.sort_by(|a, b| rank_cmp(a, b, f64::total_cmp));
        all.truncate(k);
        bits(&all)
    }

    /// A deterministic stream of `n` pairs: rows from `0..rows`, scores
    /// drawn from `pool` (so exact ties and repeated rows are common).
    fn random_pairs(seed: u64, n: usize, rows: u32, pool: &[f64]) -> Vec<(u32, f64)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..n)
            .map(|_| {
                let row = (next() % u64::from(rows)) as u32;
                (row, pool[next() as usize % pool.len()])
            })
            .collect()
    }

    /// Scores where `total_cmp` and `PartialOrd` part ways: signed zeros
    /// and infinities, NaNs of both signs and two payloads, subnormals.
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
        0.5,
        0.5,
    ];

    #[test]
    fn selector_key_order_is_rank_cmp_with_total_cmp() {
        let key =
            |&(row, score): &(u32, f64)| (total_order_key(score.to_bits() as i64), Reverse(row));
        for seed in 0..8 {
            let pairs = random_pairs(seed, 64, 16, &SPECIAL);
            for a in &pairs {
                let raw = a.1.to_bits() as i64;
                assert_eq!(total_order_key(total_order_key(raw)), raw, "{a:?}");
                for b in &pairs {
                    // A higher key ranks ahead: `Less` under rank_cmp.
                    assert_eq!(
                        key(b).cmp(&key(a)),
                        rank_cmp(a, b, f64::total_cmp),
                        "{a:?} vs {b:?}"
                    );
                }
            }
            for k in [0, 1, 5, 63, 64, 100] {
                assert_eq!(
                    bits(TopKResult::merge_pairs(pairs.clone(), k).entries()),
                    sorted_cut(&pairs, k),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn merge_pairs_matches_a_full_sort_on_a_random_stream() {
        let pool: Vec<f64> = (0..1000).map(|i| f64::from(i) / 997.0).collect();
        let pairs = random_pairs(12345, 1000, 1000, &pool);
        for k in [3, 10, 999] {
            assert_eq!(
                bits(TopKResult::merge_pairs(pairs.clone(), k).entries()),
                sorted_cut(&pairs, k),
                "k {k}"
            );
        }
    }

    #[test]
    fn merge_pairs_ties_at_the_capacity_boundary_keep_the_lowest_rows() {
        // Six rows tie at 0.9 with k = 3: the survivors are the three
        // lowest row ids however the candidates arrive.
        let mut ids = vec![40u32, 7, 23, 3, 99, 15];
        for _ in 0..ids.len() {
            ids.rotate_left(1);
            let pairs = ids.iter().map(|&i| (i, 0.9)).chain([(50, 0.1)]);
            assert_eq!(
                TopKResult::merge_pairs(pairs, 3).entries(),
                &[(3, 0.9), (7, 0.9), (15, 0.9)],
                "arrival order {ids:?}"
            );
        }
    }

    #[test]
    fn merge_pairs_keeps_the_same_set_however_pairs_are_grouped() {
        // Even rows tie at 0.9, odd rows at 0.5: merging partial
        // selections of any split, in either order, equals the flat
        // selection — the cross-range and cross-shard reductions.
        let pairs: Vec<(u32, f64)> = [2u32, 5, 8, 11, 4, 7, 10, 13]
            .iter()
            .map(|&i| (i, if i % 2 == 0 { 0.9 } else { 0.5 }))
            .collect();
        let flat = TopKResult::merge_pairs(pairs.clone(), 4);
        assert_eq!(flat.entries(), &[(2, 0.9), (4, 0.9), (8, 0.9), (10, 0.9)]);
        for split in 0..=pairs.len() {
            let (left, right) = pairs.split_at(split);
            let left = TopKResult::merge_pairs(left.to_vec(), 4);
            let right = TopKResult::merge_pairs(right.to_vec(), 4);
            assert_eq!(TopKResult::merge([left.clone(), right.clone()], 4), flat);
            assert_eq!(TopKResult::merge([right, left], 4), flat);
        }
    }

    #[test]
    fn merge_pairs_capacity_edges() {
        let pairs = vec![(0u32, 0.5), (1, 0.1), (2, 0.9), (3, 0.7), (4, 0.3)];
        // k >= n returns every pair, ranked.
        for k in [5, 6, usize::MAX] {
            assert_eq!(
                TopKResult::merge_pairs(pairs.clone(), k).indices(),
                vec![2, 3, 0, 4, 1]
            );
        }
        // k = 1 keeps the best; a lower candidate arriving later is
        // rejected, a higher one displaces it.
        assert_eq!(
            TopKResult::merge_pairs(pairs.clone(), 1).entries(),
            &[(2, 0.9)]
        );
        // k = 0 keeps nothing.
        assert!(TopKResult::merge_pairs(pairs, 0).is_empty());
        assert!(TopKResult::merge_pairs(Vec::new(), 3).is_empty());
    }
}
