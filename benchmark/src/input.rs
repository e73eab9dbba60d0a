//! Everything the benchmark feeds the program, derived from one seed:
//! the collection, the query pool, the oracle answers, the open-loop
//! arrival schedule and the routed op mix. The program under test sees
//! only these generated inputs, never the seed.
//!
//! Generation and oracle time are the benchmark's own and are excluded
//! from every metric.

use std::time::Duration;

use tkspmv::backend::QueryTier;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{Csr, DenseVector};

/// Seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 0x0dac_2021;
/// Results requested per query (the paper's K).
pub const K: usize = 100;
/// Embedding dimension (Table III's M = 1024).
pub const DIM: usize = 1024;
/// Dense queries in the pool, cycled in order so no result can be
/// reused from one call to the next.
pub const POOL: usize = 1024;
/// Pool queries that carry a precomputed reference answer and an oracle
/// Top-K; responses to them are compared in full.
pub const REFERENCE: usize = 128;
/// Queries per `direct_b32` batch.
pub const BATCH: usize = 32;
/// Rows per `Router::append` call in `routed_rw`.
pub const APPEND_ROWS: usize = 32;
/// Caller B appends on every `APPEND_EVERY`-th op ...
pub const APPEND_EVERY: u64 = 10;
/// ... and compacts the fleet on every `COMPACT_EVERY`-th.
pub const COMPACT_EVERY: u64 = 500;
/// Shortlist factor of the pruned tier (`c` in `c·K`).
pub const SHORTLIST_FACTOR: usize = 2;
/// Offered rate of the open-loop workload, requests per second.
pub const OPEN_LOOP_QPS: f64 = 60.0;

/// Collection size: the Table-III shape, or a 1/20 cut for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 000 × 1024, ≈1.2 M non-zeros.
    Full,
    /// 5 000 × 1024 (`--quick`): exercises every path in seconds.
    Quick,
}

impl Scale {
    fn rows(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Quick => 5_000,
        }
    }

    /// Rows in the pool `routed_rw` appends from (wraps when exhausted).
    fn append_pool_rows(self) -> usize {
        match self {
            Scale::Full => 16_384,
            Scale::Quick => 2_048,
        }
    }
}

/// SplitMix64: the benchmark's own generator for schedules and op
/// mixes, independent of the generators inside the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream determined by `seed` and a purpose `tag`, so the
    /// collection, schedule and op mix never share a stream.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = Self(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The shared input every workload runs over.
pub struct Inputs {
    /// The seed everything below was derived from.
    pub seed: u64,
    /// The scale it was generated at.
    pub scale: Scale,
    /// The embedding collection (Table-III shape, gamma row lengths).
    pub csr: Csr,
    /// The query pool; the first [`REFERENCE`] are the reference queries.
    pub queries: Vec<DenseVector>,
    /// Dense-f64 brute-force Top-K row ids of each reference query over
    /// `csr` — the oracle recall is scored against.
    pub oracle: Vec<Vec<u32>>,
    /// Rows `routed_rw` appends, in order, `APPEND_ROWS` at a time.
    pub append_pool: Csr,
}

impl Inputs {
    /// Generates the inputs for `seed` at `scale`.
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let collection = |rows: usize, tag: u64| {
            SyntheticConfig {
                num_rows: rows,
                num_cols: DIM,
                avg_nnz_per_row: 12,
                distribution: NnzDistribution::table3_gamma(),
                seed: SplitMix::new(seed, tag).next_u64(),
            }
            .generate()
        };
        let csr = collection(scale.rows(), 1);
        let append_pool = collection(scale.append_pool_rows(), 2);
        let mut query_seeds = SplitMix::new(seed, 3);
        let queries: Vec<DenseVector> = (0..POOL)
            .map(|_| query_vector(DIM, query_seeds.next_u64()))
            .collect();
        let oracle = queries[..REFERENCE]
            .iter()
            .map(|x| oracle_topk(&csr, x.as_slice(), K))
            .collect();
        Self {
            seed,
            scale,
            csr,
            queries,
            oracle,
            append_pool,
        }
    }

    /// The `n`-th 32-row slice of the append pool (wrapping), in the
    /// sorted sparse form `Router::append` takes.
    pub fn append_rows(&self, n: u64) -> Vec<(Vec<u32>, Vec<f32>)> {
        (0..APPEND_ROWS as u64)
            .map(|j| {
                let (cols, vals) = self.append_pool_row(n * APPEND_ROWS as u64 + j);
                (cols.to_vec(), vals.to_vec())
            })
            .collect()
    }

    /// The pool row behind the `j`-th row ever appended.
    pub fn append_pool_row(&self, j: u64) -> (&[u32], &[f32]) {
        let r = (j % self.append_pool.num_rows() as u64) as usize;
        let (lo, hi) = (
            self.append_pool.row_ptr()[r] as usize,
            self.append_pool.row_ptr()[r + 1] as usize,
        );
        (
            &self.append_pool.col_idx()[lo..hi],
            &self.append_pool.values()[lo..hi],
        )
    }
}

/// Exact score of one sparse row against a dense query: `f64`
/// accumulation in column order — the arithmetic every exact path in
/// the program documents.
pub fn exact_score(cols: &[u32], vals: &[f32], x: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += f64::from(v) * f64::from(x[c as usize]);
    }
    acc
}

/// Dense-f64 brute-force Top-K under the engine's total order (score
/// descending, row ascending). Written here, not borrowed from the
/// program, so it can serve as an oracle for it.
pub fn oracle_topk(csr: &Csr, x: &[f32], k: usize) -> Vec<u32> {
    let mut scored: Vec<(f64, u32)> = (0..csr.num_rows())
        .map(|r| {
            let (lo, hi) = (csr.row_ptr()[r] as usize, csr.row_ptr()[r + 1] as usize);
            (
                exact_score(&csr.col_idx()[lo..hi], &csr.values()[lo..hi], x),
                r as u32,
            )
        })
        .collect();
    let order = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    let k = k.min(scored.len());
    if k < scored.len() {
        scored.select_nth_unstable_by(k, order);
        scored.truncate(k);
    }
    scored.sort_unstable_by(order);
    scored.into_iter().map(|(_, r)| r).collect()
}

/// Due times of one open-loop round: `count` arrivals of a Poisson
/// process over `window`, conditioned on its count (sorted uniform
/// order statistics), so every run offers exactly the same load and the
/// gaps are still exponential-like bursts and lulls.
pub fn arrivals(seed: u64, round: u64, count: usize, window: Duration) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed, 0x0a77_0000 + round);
    let mut due: Vec<Duration> = (0..count).map(|_| window.mul_f64(rng.next_f64())).collect();
    due.sort_unstable();
    due
}

/// One op of a `routed_rw` caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutedOp {
    /// `Router::query` of pool query `query` at `tier`.
    Query {
        /// Index into [`Inputs::queries`].
        query: usize,
        /// Precision tier, alternating per op.
        tier: QueryTier,
    },
    /// `Router::append` of the `n`-th 32-row slice of the append pool.
    Append {
        /// Slice number, counting this caller's appends from zero.
        n: u64,
    },
    /// `Router::compact_all`.
    Compact,
}

/// Op `i` of routed caller `caller` (0 = A, reads only; 1 = B, reads
/// with writes beside them): a pure function of the seed and `i`.
pub fn routed_op(seed: u64, caller: u64, i: u64) -> RoutedOp {
    if caller == 1 && i % COMPACT_EVERY == COMPACT_EVERY - 1 {
        return RoutedOp::Compact;
    }
    if caller == 1 && i % APPEND_EVERY == APPEND_EVERY - 1 {
        // Every COMPACT_EVERY-th op replaces an append, so subtract them
        // to keep slice numbers dense.
        return RoutedOp::Append {
            n: i / APPEND_EVERY - i / COMPACT_EVERY,
        };
    }
    let offset = SplitMix::new(seed, 0x0b0b_0000 + caller).next_u64() % POOL as u64;
    RoutedOp::Query {
        query: ((offset + i) % POOL as u64) as usize,
        tier: if i % 2 == 0 {
            QueryTier::Exact
        } else {
            QueryTier::Pruned {
                shortlist_factor: SHORTLIST_FACTOR,
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_ops() {
        let w = Duration::from_secs(5);
        assert_eq!(arrivals(7, 0, 300, w), arrivals(7, 0, 300, w));
        assert_ne!(arrivals(7, 0, 300, w), arrivals(8, 0, 300, w));
        assert_ne!(arrivals(7, 0, 300, w), arrivals(7, 1, 300, w));
        let ops = |seed| -> Vec<RoutedOp> {
            (0..2)
                .flat_map(|c| (0..1200).map(move |i| routed_op(seed, c, i)))
                .collect()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn arrivals_are_sorted_and_inside_the_window() {
        let w = Duration::from_secs(5);
        let due = arrivals(1, 0, 300, w);
        assert_eq!(due.len(), 300);
        assert!(due.windows(2).all(|p| p[0] <= p[1]));
        assert!(due.iter().all(|d| *d < w));
    }

    #[test]
    fn caller_b_writes_beside_reads_and_caller_a_only_reads() {
        let a: Vec<RoutedOp> = (0..1000).map(|i| routed_op(3, 0, i)).collect();
        assert!(a.iter().all(|op| matches!(op, RoutedOp::Query { .. })));
        let b: Vec<RoutedOp> = (0..1000).map(|i| routed_op(3, 1, i)).collect();
        let appends: Vec<u64> = b
            .iter()
            .filter_map(|op| match op {
                RoutedOp::Append { n } => Some(*n),
                _ => None,
            })
            .collect();
        // 100 tenth-ops, two of them compactions; slice numbers dense.
        assert_eq!(appends, (0..98).collect::<Vec<u64>>());
        assert_eq!(b.iter().filter(|op| **op == RoutedOp::Compact).count(), 2);
        // Tiers alternate, so both tiers reach the reference queries.
        assert!(matches!(
            b[0],
            RoutedOp::Query {
                tier: QueryTier::Exact,
                ..
            }
        ));
        assert!(matches!(
            b[1],
            RoutedOp::Query {
                tier: QueryTier::Pruned { .. },
                ..
            }
        ));
    }

    #[test]
    fn oracle_orders_by_score_then_row() {
        // Rows 1 and 2 tie; the lower row id ranks first.
        let csr = Csr::from_triplets(4, 2, &[(0, 0, 0.1), (1, 0, 0.5), (2, 0, 0.5), (3, 1, 0.9)])
            .expect("valid triplets");
        assert_eq!(oracle_topk(&csr, &[1.0, 0.0], 3), vec![1, 2, 0]);
        assert_eq!(oracle_topk(&csr, &[1.0, 1.0], 10), vec![3, 1, 2, 0]);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Inputs::generate(5, Scale::Quick);
        let b = Inputs::generate(5, Scale::Quick);
        let c = Inputs::generate(6, Scale::Quick);
        assert_eq!(a.csr, b.csr);
        assert_eq!(a.queries[0], b.queries[0]);
        assert_eq!(a.oracle, b.oracle);
        assert_ne!(a.csr, c.csr);
        assert_ne!(a.queries[0], c.queries[0]);
        assert_eq!(a.queries.len(), POOL);
        assert_eq!(a.oracle.len(), REFERENCE);
        assert_eq!(a.append_rows(0).len(), APPEND_ROWS);
        // The pool wraps instead of running dry.
        let wrap = a.append_pool.num_rows() as u64 / APPEND_ROWS as u64;
        assert_eq!(a.append_rows(0), a.append_rows(wrap));
    }
}
