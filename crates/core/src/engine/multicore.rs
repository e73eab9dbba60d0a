//! Multi-core execution: the §III-A partitioned approximation.

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

use tkspmv_fixed::SpmvScalar;
use tkspmv_obs::Stages;
use tkspmv_sparse::BsCsr;

use super::core_model::{run_core_batch_with_scratch, BatchScratch, CoreStats, Fidelity};
use crate::fanout::fork_join;
use crate::topk::TopKResult;

/// Output of a multi-core run: the merged approximate Top-K plus
/// per-core statistics.
#[derive(Debug, Clone)]
pub(crate) struct MulticoreOutput {
    /// Merged global Top-K (scores converted to `f64`).
    pub topk: TopKResult,
    /// Statistics of each core, in partition order.
    pub core_stats: Vec<CoreStats>,
    /// Packets streamed by the busiest core — the quantity that bounds
    /// the modelled device time, since the design's cores run in
    /// lock-step on independent channels.
    pub max_packets_per_core: u64,
    /// Decode/score split of the batch on the busiest participant,
    /// summed over the partitions it walked. Participants run in
    /// parallel and each walks its partitions back to back, so the
    /// busiest one — not the busiest partition, and not the sum over
    /// participants — is what fills the call's wall time.
    pub stages: Stages,
}

thread_local! {
    /// This thread's warm engine scratch, one [`BatchScratch`] per
    /// scalar type it has walked partitions of. A participant borrows it
    /// for one partition at a time, so it lives as long as the thread —
    /// a resident pool helper or a caller — and a warm query sizes
    /// nothing.
    // alloc-ok: an empty shelf allocates nothing until its first scratch.
    static SHELF: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's [`BatchScratch<S>`] from [`SHELF`].
///
/// `f` must not re-enter the engine on this thread (it walks one
/// partition), or the shelf would be borrowed twice.
fn with_scratch<S: SpmvScalar, R>(f: impl FnOnce(&mut BatchScratch<S>) -> R) -> R {
    SHELF.with_borrow_mut(|shelf| {
        let slot = match shelf.iter().position(|s| s.is::<BatchScratch<S>>()) {
            Some(slot) => slot,
            None => {
                // alloc-ok: first partition this thread walks at this scalar type.
                shelf.push(Box::new(BatchScratch::<S>::new()));
                shelf.len() - 1
            }
        };
        let scratch = shelf[slot].downcast_mut::<BatchScratch<S>>();
        // invariant: `slot` was found (or pushed) as a `BatchScratch<S>`
        f(scratch.expect("the shelf slot holds this scalar's scratch"))
    })
}

/// Runs a batch of queries over `c` independent cores, one per
/// `(first_row, partition)` pair of `partitions`, and merges each
/// query's local top-`k` lists into a global top-`big_k`: one
/// [`MulticoreOutput`] per query, in input order.
///
/// Each core computes the exact top-`k` of its own partition; the merge
/// keeps the best `big_k` of the `k·c` candidates. This is the paper's
/// approximation: it is exact whenever no partition holds more than `k`
/// of the true global Top-K (Figure 2).
///
/// The `c` cores are the *design* — they fix the partitioning and with
/// it the approximation and the modelled device time. `participants`
/// is the *host*: that many threads (the caller included, clamped to
/// `c`) claim partitions from a shared counter through
/// [`fork_join`]'s resident pool, so a 2-CPU machine walks a 32-core
/// design on two threads. Callers pass
/// [`crate::fanout::host_parallelism`]. The partitions and the queries
/// come in `Arc`s because the pool's helpers outlive the call.
///
/// This is the **matrix-major** loop: each partition is walked once per
/// batch in **one pass** over its packet stream, decoding every BS-CSR
/// packet exactly once and accumulating the decoded entries into all B
/// resident query lanes before advancing, sixteen lanes (then eight) at
/// a time from a transposed query block (see
/// [`run_core_batch_with_scratch`]) — the
/// software picture of a stream resident in its HBM channel while B
/// query vectors sit in banked URAM. Each participating thread keeps one
/// [`BatchScratch`] per scalar type across partitions *and* calls
/// ([`SHELF`]), which amortises packet field extraction, value decode
/// and buffer warm-up across the batch, the partitions and the queries
/// that follow.
///
/// Results are **bit-identical** to running each query alone, and do
/// not depend on `participants`: per query, multiplies, accumulations,
/// and Top-K offers happen in the same packet-arrival order, cores
/// carry no state between queries or partitions, and per-partition
/// outputs are reassembled in partition order before the merge.
///
/// # Panics
///
/// Panics if `partitions` is empty, `k == 0`, or `k * partitions.len() <
/// big_k` (the configuration could not possibly fill the requested K).
// alloc-ok(fn): per-batch fan-out and owned result assembly; the
// per-packet loop lives in run_core_batch_with_scratch, which reuses
// each thread's BatchScratch across partitions and calls.
pub(crate) fn run_multicore<S, P, Q>(
    partitions: Arc<P>,
    queries: Arc<[Q]>,
    k: usize,
    big_k: usize,
    fidelity: Fidelity,
    participants: usize,
) -> Vec<MulticoreOutput>
where
    S: SpmvScalar,
    P: AsRef<[(usize, BsCsr)]> + Send + Sync + 'static,
    Q: AsRef<[S]> + Send + Sync + 'static,
{
    let cores = (*partitions).as_ref().len();
    assert!(cores > 0, "need at least one partition");
    assert!(
        k * cores >= big_k,
        "k*c = {} cannot cover K = {big_k}",
        k * cores
    );
    if queries.is_empty() {
        return Vec::new();
    }
    let batch = queries.len();

    // `per_partition[p]` = partition p's globalised top-k and stats per
    // query. A participant's state is the decode/score time of every
    // partition it has walked so far.
    type PerQuery = Vec<(Vec<(u32, f64)>, CoreStats)>;
    let (per_partition, walked): (Vec<PerQuery>, Vec<Stages>) =
        fork_join(cores, participants, Stages::default, move |walked, p| {
            let (first_row, part) = &(*partitions).as_ref()[p];
            with_scratch::<S, _>(|scratch| {
                let outputs = run_core_batch_with_scratch(part, &queries, k, fidelity, scratch);
                let per_query = outputs
                    .iter()
                    .map(|out| {
                        let globalised: Vec<(u32, f64)> = out
                            .topk
                            .iter()
                            .map(|&(local, acc)| (local + *first_row as u32, S::acc_to_f64(acc)))
                            .collect();
                        (globalised, out.stats)
                    })
                    .collect();
                for (stage, d) in scratch.stage_times().iter() {
                    walked.add(stage, d);
                }
                per_query
            })
        });
    let stages = walked
        .into_iter()
        .max_by_key(Stages::total)
        .unwrap_or_default();

    // Transpose partition-major to query-major by moving each per-query
    // pair vector exactly once — the merge consumes owned pairs, so no
    // per-core top-k list is ever cloned.
    let mut per_query: Vec<PerQuery> = (0..batch).map(|_| Vec::with_capacity(cores)).collect();
    for partition_outputs in per_partition {
        for (q, output) in partition_outputs.into_iter().enumerate() {
            per_query[q].push(output);
        }
    }
    per_query
        .into_iter()
        .map(|parts| {
            let core_stats: Vec<CoreStats> = parts.iter().map(|(_, s)| *s).collect();
            let max_packets_per_core = core_stats.iter().map(|s| s.packets).max().unwrap_or(0);
            let merged =
                TopKResult::merge_pairs(parts.into_iter().flat_map(|(pairs, _)| pairs), big_k);
            MulticoreOutput {
                topk: merged,
                core_stats,
                max_packets_per_core,
                stages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::core_model::quantize_vector;
    use crate::fanout::host_parallelism;
    use crate::topk::rank_cmp;
    use tkspmv_fixed::Q1_31;
    use tkspmv_obs::Stage;
    use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
    use tkspmv_sparse::{Csr, PacketLayout};

    type Parts = Arc<Vec<(usize, BsCsr)>>;

    fn encode_partitions(csr: &Csr, c: usize) -> Parts {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        Arc::new(
            csr.partition_rows(c)
                .into_iter()
                .map(|(first, part)| (first, BsCsr::encode::<Q1_31>(&part, layout)))
                .collect(),
        )
    }

    /// One query: a one-lane batch, on the host's participant count.
    fn run_single(parts: &Parts, x: &[Q1_31], k: usize, big_k: usize) -> MulticoreOutput {
        run_single_on(parts, x, k, big_k, host_parallelism())
    }

    fn run_single_on(
        parts: &Parts,
        x: &[Q1_31],
        k: usize,
        big_k: usize,
        participants: usize,
    ) -> MulticoreOutput {
        let queries: Arc<[Vec<Q1_31>]> = Arc::from([x.to_vec()]);
        run_multicore(
            Arc::clone(parts),
            queries,
            k,
            big_k,
            Fidelity::Reference,
            participants,
        )
        .pop()
        .expect("a one-lane batch yields one output")
    }

    fn exact_topk(csr: &Csr, x: &[f32], k: usize) -> Vec<u32> {
        let y = csr.spmv_exact(x);
        let mut pairs: Vec<(u32, f64)> = y
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u32, v))
            .collect();
        pairs.sort_by(|a, b| rank_cmp(a, b, f64::total_cmp));
        pairs.truncate(k);
        pairs.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn multicore_recovers_global_topk_when_k_large_enough() {
        let csr = SyntheticConfig {
            num_rows: 800,
            num_cols: 256,
            avg_nnz_per_row: 16,
            distribution: NnzDistribution::Uniform,
            seed: 11,
        }
        .generate();
        let x = query_vector(256, 5);
        let xs = quantize_vector::<Q1_31>(x.as_slice());
        let parts = encode_partitions(&csr, 8);
        // k = K: approximation can only fail if >k of top-K land in one
        // partition; with k = 10 = K that is impossible.
        let out = run_single(&parts, &xs, 10, 10);
        let exact = exact_topk(&csr, x.as_slice(), 10);
        assert_eq!(out.topk.indices(), exact);
    }

    #[test]
    fn row_indices_are_globalised() {
        // Partition 2's local row 0 must come back with its global index.
        let mut triplets = vec![(0u32, 0u32, 0.1f32)];
        for r in 1..6u32 {
            triplets.push((r, 0, 0.1 * (r + 1) as f32));
        }
        let csr = Csr::from_triplets(6, 4, &triplets).unwrap();
        let x = [1.0f32, 0.0, 0.0, 0.0];
        let xs = quantize_vector::<Q1_31>(&x);
        let parts = encode_partitions(&csr, 3);
        let out = run_single(&parts, &xs, 2, 3);
        // Best rows are 5 (0.6), 4 (0.5), 3 (0.4).
        assert_eq!(out.topk.indices(), vec![5, 4, 3]);
    }

    #[test]
    fn approximation_can_lose_values_when_partition_overflows() {
        // All top values in partition 0; with k = 1 per core only one
        // survives per partition.
        let triplets: Vec<(u32, u32, f32)> = (0..8)
            .map(|r| (r, 0, if r < 4 { 0.9 - 0.01 * r as f32 } else { 0.1 }))
            .collect();
        let csr = Csr::from_triplets(8, 2, &triplets).unwrap();
        let xs = quantize_vector::<Q1_31>(&[1.0, 0.0]);
        let parts = encode_partitions(&csr, 2); // rows 0-3 | rows 4-7
        let out = run_single(&parts, &xs, 1, 2);
        // Exact top-2 is {0, 1}, but partition 0 only returns row 0.
        let got = out.topk.indices();
        assert_eq!(got[0], 0);
        assert_ne!(got[1], 1, "row 1 must have been lost to the approximation");
    }

    #[test]
    fn per_core_stats_are_reported() {
        let csr = SyntheticConfig {
            num_rows: 100,
            num_cols: 64,
            avg_nnz_per_row: 8,
            distribution: NnzDistribution::Uniform,
            seed: 2,
        }
        .generate();
        let xs = quantize_vector::<Q1_31>(query_vector(64, 1).as_slice());
        let parts = encode_partitions(&csr, 4);
        let out = run_single(&parts, &xs, 8, 8);
        assert_eq!(out.core_stats.len(), 4);
        let rows: u64 = out.core_stats.iter().map(|s| s.rows_finished).sum();
        assert_eq!(rows, 100);
        assert!(out.max_packets_per_core >= 1);
    }

    /// Batched ≡ sequential, and neither depends on how many
    /// participants walk the partitions: one participant (everything on
    /// the calling thread), fewer than partitions (several partitions
    /// per participant, claimed in any order), one per partition.
    #[test]
    fn batch_matches_sequential_runs() {
        let csr = SyntheticConfig {
            num_rows: 600,
            num_cols: 128,
            avg_nnz_per_row: 12,
            distribution: NnzDistribution::Uniform,
            seed: 23,
        }
        .generate();
        let parts = encode_partitions(&csr, 6);
        let queries: Arc<[Vec<Q1_31>]> = (0..5u64)
            .map(|q| quantize_vector::<Q1_31>(query_vector(128, q).as_slice()))
            .collect();
        // The reference: each query alone, on one participant.
        let singles: Vec<MulticoreOutput> = queries
            .iter()
            .map(|x| run_single_on(&parts, x, 8, 16, 1))
            .collect();
        for participants in [1, 2, 3, parts.len()] {
            let batch = run_multicore(
                Arc::clone(&parts),
                Arc::clone(&queries),
                8,
                16,
                Fidelity::Reference,
                participants,
            );
            assert_eq!(batch.len(), queries.len());
            for ((x, got), single) in queries.iter().zip(&batch).zip(&singles) {
                for out in [got, &run_single_on(&parts, x, 8, 16, participants)] {
                    assert_eq!(out.topk, single.topk, "participants = {participants}");
                    assert_eq!(out.core_stats, single.core_stats);
                    assert_eq!(out.max_packets_per_core, single.max_packets_per_core);
                }
            }
        }
    }

    /// With one participant every partition is walked back to back on
    /// the calling thread, so the reported decode + score is most of the
    /// call: reporting only the busiest *partition* would read ~1/c of
    /// it and leave the rest unattributed.
    #[test]
    fn one_participant_stage_sum_fills_the_call() {
        let csr = SyntheticConfig {
            num_rows: 8_000,
            num_cols: 256,
            avg_nnz_per_row: 16,
            distribution: NnzDistribution::Uniform,
            seed: 31,
        }
        .generate();
        assert!(csr.nnz() >= 100_000);
        let parts = encode_partitions(&csr, 8);
        let xs = quantize_vector::<Q1_31>(query_vector(256, 3).as_slice());
        let started = std::time::Instant::now();
        let out = run_single_on(&parts, &xs, 8, 16, 1);
        let wall = started.elapsed();
        let stages = out.stages;
        assert!(!stages.get(Stage::Decode).is_zero() && !stages.get(Stage::Score).is_zero());
        assert!(stages.total() <= wall, "{stages:?} inside {wall:?}");
        assert!(2 * stages.total() >= wall, "{stages:?} fills {wall:?}");
    }

    #[test]
    fn empty_batch_returns_no_outputs() {
        let csr = Csr::from_triplets(4, 2, &[(0, 0, 0.5), (3, 1, 0.25)]).unwrap();
        let parts = encode_partitions(&csr, 2);
        let none: Arc<[Vec<Q1_31>]> = Arc::from([]);
        let batch = run_multicore(parts, none, 2, 4, Fidelity::Reference, 2);
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn insufficient_kc_is_rejected() {
        let csr = Csr::from_triplets(4, 2, &[(0, 0, 0.5)]).unwrap();
        let xs = quantize_vector::<Q1_31>(&[1.0, 0.0]);
        let parts = encode_partitions(&csr, 2);
        let _ = run_single(&parts, &xs, 1, 4);
    }
}
