//! Bounded min-heap for exact Top-K selection.

use std::cmp::Ordering;

use tkspmv::rank_cmp;

/// Whether pair `a` ranks strictly below pair `b` under the workspace's
/// ranking order ([`rank_cmp`]: score descending, ties broken by
/// ascending row index).
///
/// Using the *total* order for selection — not just for the final sort —
/// is what makes the kept set arrival-order invariant: when candidates
/// tie at the capacity boundary, the lowest row ids win regardless of
/// the order rows were scanned or partial heaps were merged in. The
/// serving layer depends on this (cross-shard merges must reproduce the
/// unsharded ranking however the shards slice the rows).
fn ranks_below(a: (u32, f64), b: (u32, f64)) -> bool {
    rank_cmp(&a, &b, f64::total_cmp) == Ordering::Greater
}

/// A fixed-capacity min-heap keeping the `k` best `(index, score)`
/// pairs offered to it — the data structure at the heart of
/// `sparse_dot_topn`-style CPU Top-K. "Best" is the total ranking order
/// (score descending, ties by ascending index), so the kept set equals
/// a full sort's first `k` rows exactly, ties included.
///
/// Insertion is `O(log k)`; the heap root is always the worst kept
/// pair so sub-threshold candidates are rejected in `O(1)`.
///
/// # Example
///
/// ```
/// use tkspmv_baselines::heap::BoundedMinHeap;
///
/// let mut h = BoundedMinHeap::new(2);
/// h.push(0, 0.1);
/// h.push(1, 0.9);
/// h.push(2, 0.5);
/// assert_eq!(h.into_sorted_desc(), vec![(1, 0.9), (2, 0.5)]);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedMinHeap {
    /// Binary min-heap ordered by score.
    items: Vec<(u32, f64)>,
    capacity: usize,
}

impl BoundedMinHeap {
    /// Creates a heap keeping the `capacity` largest entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of kept entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the heap holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The smallest kept score, if the heap is full.
    pub fn threshold(&self) -> Option<f64> {
        (self.items.len() == self.capacity).then(|| self.items[0].1)
    }

    /// Offers a candidate; returns `true` if it was kept.
    ///
    /// A candidate displaces the current worst kept pair when it ranks
    /// above it under the total order — so an equal score with a lower
    /// row index *does* displace, keeping tie handling deterministic.
    pub fn push(&mut self, index: u32, score: f64) -> bool {
        if self.items.len() < self.capacity {
            self.items.push((index, score));
            self.sift_up(self.items.len() - 1);
            true
        } else if ranks_below(self.items[0], (index, score)) {
            self.items[0] = (index, score);
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    /// Merges another heap's contents into this one.
    pub fn merge(&mut self, other: BoundedMinHeap) {
        for (i, s) in other.items {
            self.push(i, s);
        }
    }

    /// Extracts the kept entries sorted by score descending (ties by
    /// index ascending).
    pub fn into_sorted_desc(self) -> Vec<(u32, f64)> {
        let mut v = self.items;
        v.sort_by(|a, b| rank_cmp(a, b, f64::total_cmp));
        v
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if ranks_below(self.items[i], self.items[parent]) {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < self.items.len() && ranks_below(self.items[l], self.items[worst]) {
                worst = l;
            }
            if r < self.items.len() && ranks_below(self.items[r], self.items[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.items.swap(i, worst);
            i = worst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_largest() {
        let mut h = BoundedMinHeap::new(3);
        for (i, s) in [(0u32, 0.5), (1, 0.1), (2, 0.9), (3, 0.7), (4, 0.3)] {
            h.push(i, s);
        }
        assert_eq!(h.into_sorted_desc(), vec![(2, 0.9), (3, 0.7), (0, 0.5)]);
    }

    #[test]
    fn threshold_only_when_full() {
        let mut h = BoundedMinHeap::new(2);
        assert_eq!(h.threshold(), None);
        h.push(0, 0.5);
        assert_eq!(h.threshold(), None);
        h.push(1, 0.7);
        assert_eq!(h.threshold(), Some(0.5));
        h.push(2, 0.6);
        assert_eq!(h.threshold(), Some(0.6));
    }

    #[test]
    fn rejects_below_threshold() {
        let mut h = BoundedMinHeap::new(1);
        assert!(h.push(0, 0.5));
        assert!(!h.push(1, 0.4));
        assert!(h.push(2, 0.6));
        assert_eq!(h.into_sorted_desc(), vec![(2, 0.6)]);
    }

    #[test]
    fn merge_combines_heaps() {
        let mut a = BoundedMinHeap::new(2);
        a.push(0, 0.9);
        a.push(1, 0.1);
        let mut b = BoundedMinHeap::new(2);
        b.push(2, 0.5);
        b.push(3, 0.7);
        a.merge(b);
        assert_eq!(a.into_sorted_desc(), vec![(0, 0.9), (3, 0.7)]);
    }

    #[test]
    fn heap_property_random_stream() {
        // Matches a full sort on a deterministic pseudo-random stream.
        let mut h = BoundedMinHeap::new(10);
        let mut all: Vec<(u32, f64)> = Vec::new();
        let mut state = 12345u64;
        for i in 0..1000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let score = (state >> 11) as f64 / (1u64 << 53) as f64;
            h.push(i, score);
            all.push((i, score));
        }
        all.sort_by(|a, b| b.1.total_cmp(&a.1));
        all.truncate(10);
        assert_eq!(h.into_sorted_desc(), all);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedMinHeap::new(0);
    }

    #[test]
    fn tied_scores_keep_the_lowest_indices_regardless_of_arrival() {
        // Six rows tie at 0.9 with capacity 3: the survivors must be the
        // three lowest row ids however the candidates arrive.
        let mut ids = vec![40u32, 7, 23, 3, 99, 15];
        for _ in 0..ids.len() {
            ids.rotate_left(1);
            let mut h = BoundedMinHeap::new(3);
            for &i in &ids {
                h.push(i, 0.9);
            }
            assert_eq!(
                h.into_sorted_desc(),
                vec![(3, 0.9), (7, 0.9), (15, 0.9)],
                "arrival order {ids:?}"
            );
        }
    }

    #[test]
    fn tied_scores_survive_heap_merges_deterministically() {
        // Partial heaps merged in either order keep the same tie-group
        // members — the cross-thread (and cross-shard) reduction must be
        // commutative.
        let build = |ids: &[u32]| {
            let mut h = BoundedMinHeap::new(4);
            for &i in ids {
                h.push(i, if i % 2 == 0 { 0.9 } else { 0.5 });
            }
            h
        };
        let expected = vec![(2, 0.9), (4, 0.9), (8, 0.9), (10, 0.9)];
        let mut ab = build(&[2, 5, 8, 11]);
        ab.merge(build(&[4, 7, 10, 13]));
        assert_eq!(ab.into_sorted_desc(), expected);
        let mut ba = build(&[4, 7, 10, 13]);
        ba.merge(build(&[2, 5, 8, 11]));
        assert_eq!(ba.into_sorted_desc(), expected);
    }
}
