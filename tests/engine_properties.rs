//! Property-based tests of the engine's core invariants on arbitrary
//! matrices: the emulated datapath must agree with a plain-Rust oracle
//! for any input, not just the evaluation workloads — including an
//! oracle for the faithful engine built from the `Csr` alone, over
//! streams long enough to cross the engine's 64-packet chunks.

use proptest::prelude::*;
use tkspmv::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, CoreOutput, CoreStats, Fidelity,
    TopKTracker,
};
use tkspmv_fixed::{SpmvScalar, F32, Q1_19, Q1_31};
use tkspmv_sparse::gen::query_vector;
use tkspmv_sparse::{BsCsr, Csr, PacketLayout};

/// One query through the engine: a one-lane batch.
fn run_core<S: SpmvScalar>(
    matrix: &BsCsr,
    x: &[S],
    k: usize,
    fidelity: Fidelity,
) -> CoreOutput<S::Acc> {
    run_core_batch_with_scratch(matrix, &[x], k, fidelity, &mut BatchScratch::new())[0].clone()
}

/// A random matrix plus a random non-negative query vector. Narrow
/// widths reach the engine as run-time layouts; 513..=1024 columns
/// solve to the M = 1024 layouts the engine holds as constants.
fn arb_problem() -> impl Strategy<Value = (Csr, Vec<f32>)> {
    (1usize..30, 2usize..120, 513usize..=1024, 0u8..2).prop_flat_map(|(rows, narrow, wide, arm)| {
        let cols = if arm == 0 { narrow } else { wide };
        let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 0..150)
            .prop_map(move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i * 7 % 97) + 1) as f32 / 100.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid")
            });
        let query = proptest::collection::vec(0.0f32..1.0, cols..=cols);
        (matrix, query)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_q31_matches_oracle_on_any_matrix((csr, x) in arb_problem()) {
        // The engine's accumulators, decoded to f64, must equal the
        // quantised oracle within accumulated rounding (~nnz * 2^-31).
        // Sums are non-negative, so the hardware's saturating adder
        // equals min(exact sum, accumulator ceiling); random test rows
        // are not L2-normalised (unlike the application domain), so the
        // ceiling is reachable and must be part of the contract.
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<Q1_31>(&csr, layout);
        let xq = quantize_vector::<Q1_31>(&x);
        let out = run_core::<Q1_31>(&bs, &xq, csr.num_rows(), Fidelity::Reference);
        prop_assert_eq!(out.topk.len(), csr.num_rows());
        let exact = csr.spmv_exact(&x);
        let acc_ceiling = Q1_31::acc_to_f64(u64::MAX);
        for &(row, acc) in &out.topk {
            let got = Q1_31::acc_to_f64(acc);
            let want = exact[row as usize].min(acc_ceiling);
            prop_assert!(
                (got - want).abs() < 1e-5,
                "row {}: engine {} vs oracle {}", row, got, want
            );
        }
    }

    #[test]
    fn core_f32_is_bit_exact_with_row_major_sum((csr, x) in arb_problem()) {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<F32>(&csr, layout);
        let xq = quantize_vector::<F32>(&x);
        let out = run_core::<F32>(&bs, &xq, csr.num_rows(), Fidelity::Reference);
        for &(row, acc) in &out.topk {
            // Left-to-right f32 summation, exactly as the pipeline does.
            let mut want = 0.0f32;
            for (c, v) in csr.row(row as usize) {
                want += v * x[c as usize];
            }
            prop_assert_eq!(F32::acc_to_f64(acc), want as f64);
        }
    }

    #[test]
    fn faithful_never_reports_more_rows_than_reference((csr, x) in arb_problem()) {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<Q1_31>(&csr, layout);
        let xq = quantize_vector::<Q1_31>(&x);
        let reference = run_core::<Q1_31>(&bs, &xq, 8, Fidelity::Reference);
        let faithful = run_core::<Q1_31>(
            &bs,
            &xq,
            8,
            Fidelity::Faithful { rows_per_packet: 2 },
        );
        prop_assert_eq!(
            faithful.stats.rows_finished + faithful.stats.rows_dropped,
            reference.stats.rows_finished
        );
        // Every faithful result row also exists in the reference run's
        // candidate set (it cannot invent rows).
        prop_assert!(faithful.topk.len() <= reference.topk.len());
    }

    #[test]
    fn validate_passes_for_every_encoded_matrix((csr, _x) in arb_problem()) {
        let layout = PacketLayout::solve(csr.num_cols(), 32).unwrap();
        let bs = BsCsr::encode::<Q1_31>(&csr, layout);
        prop_assert_eq!(bs.validate(), Ok(()));
    }

    #[test]
    fn tracker_matches_reference_selection(
        items in proptest::collection::vec((0u32..1000, 0u64..1_000_000), 1..300),
        k in 1usize..20,
    ) {
        let mut tracker = TopKTracker::new(k);
        for &(i, v) in &items {
            tracker.insert(i, v);
        }
        let got: Vec<u64> = tracker.into_sorted().into_iter().map(|(_, v)| v).collect();
        let mut want: Vec<u64> = items.iter().map(|&(_, v)| v).collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.truncate(k);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn metrics_stay_in_range(
        retrieved in proptest::collection::vec(0u32..50, 0..30),
        truth in proptest::collection::vec((0u32..50, 0.0f64..1.0), 0..30),
    ) {
        use tkspmv_eval::metrics::{kendall_tau, ndcg, precision_at_k};
        let truth_idx: Vec<u32> = truth.iter().map(|&(i, _)| i).collect();
        let p = precision_at_k(&retrieved, &truth_idx);
        prop_assert!((0.0..=1.0).contains(&p));
        let tau = kendall_tau(&retrieved, &truth_idx);
        prop_assert!((-1.0..=1.0).contains(&tau));
        let n = ndcg(&retrieved, &truth);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&n), "ndcg {}", n);
    }
}

/// What the faithful engine must report for one query, computed from the
/// `Csr` alone and sharing no engine code: each row's stored entries (an
/// empty row stores one `(0, 0)` placeholder) laid end to end in packets
/// of `b`; a row ends in packet `(end - 1) / b`, its ordinal there is
/// the number of earlier rows ending in that packet, and it reaches the
/// Top-K stage when that ordinal is below `r`. Each row's sum is one
/// sequential `S` accumulation, offered to a fresh tracker in row order.
fn chunk_oracle<S: SpmvScalar>(
    csr: &Csr,
    b: u64,
    x: &[S],
    k: usize,
    r: u32,
) -> (Vec<(u32, S::Acc)>, CoreStats) {
    let mut tracker = TopKTracker::new(k);
    let (mut end, mut packet, mut ordinal) = (0u64, u64::MAX, 0u32);
    let (mut finished, mut dropped) = (0u64, 0u64);
    for row in 0..csr.num_rows() {
        let mut entries: Vec<(u32, u64)> = csr
            .row(row)
            .map(|(c, v)| (c, S::encode(v as f64)))
            .collect();
        if entries.is_empty() {
            entries.push((0, 0));
        }
        let mut acc = S::acc_zero();
        for &(c, raw) in &entries {
            acc = S::acc_add(acc, S::mul(S::decode(raw), x[c as usize]));
        }
        end += entries.len() as u64;
        let p = (end - 1) / b;
        ordinal = if p == packet { ordinal + 1 } else { 0 };
        packet = p;
        if ordinal < r {
            tracker.insert(row as u32, acc);
            finished += 1;
        } else {
            dropped += 1;
        }
    }
    let stats = CoreStats {
        packets: end.div_ceil(b),
        entries: end,
        rows_finished: finished,
        rows_dropped: dropped,
        topk_accepted: tracker.accepted(),
    };
    (tracker.into_sorted(), stats)
}

/// A seeded matrix of exactly `stored` stored entries at `b` per packet:
/// rows of 0..=2b+3 entries (row 1 and about one in eight others
/// empty), and — when the stream is long enough — one row straddling
/// the boundary between packets 63 and 64 (0-based), the last packet of
/// the first chunk and the first of the second.
fn chunked_matrix(stored: usize, b: usize, num_cols: usize, seed: u64) -> Csr {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let boundary = 64 * b;
    let mut triplets = Vec::new();
    let (mut row, mut cum) = (0u32, 0usize);
    while cum < stored {
        let draw = next() as usize;
        let mut len = if row == 1 || draw % 8 == 0 {
            0
        } else {
            draw / 8 % (2 * b + 4)
        };
        if stored >= boundary + 3 && cum < boundary && cum + len.max(1) >= boundary {
            len = boundary - cum + 3;
        }
        len = len.min(stored - cum);
        let start = next() as usize % num_cols;
        let mut cols: Vec<u32> = (0..len)
            .map(|j| ((start + 37 * j) % num_cols) as u32)
            .collect();
        cols.sort_unstable();
        for c in cols {
            triplets.push((row, c, (next() % 1000 + 1) as f32 / 1000.0));
        }
        cum += len.max(1);
        row += 1;
    }
    Csr::from_triplets(row as usize, num_cols, &triplets).expect("valid by construction")
}

/// Batch sizes that reach every replay body: a remainder lane alone
/// (1); one 8-lane block (8), plus one (9) and plus seven (15); one
/// 16-lane block (16), plus one (17), plus an 8-lane block (24) and
/// plus both an 8-lane block and one lane (25); two 16-lane blocks (32).
const BATCH_SIZES: [usize; 9] = [1, 8, 9, 15, 16, 17, 24, 25, 32];

/// 32 seeded queries in `S`.
fn queries<S: SpmvScalar>() -> Vec<Vec<S>> {
    (0..32)
        .map(|seed| quantize_vector::<S>(query_vector(1024, seed).as_slice()))
        .collect()
}

/// Whether some row of `csr` crosses a chunk boundary when its stored
/// entries (an empty row stores one) are laid end to end in packets of
/// `b`.
fn straddles_a_chunk(csr: &Csr, b: usize) -> bool {
    let mut end = 0;
    (0..csr.num_rows()).any(|r| {
        let start = end;
        end += csr.row_nnz(r).max(1);
        start / (64 * b) != (end - 1) / (64 * b)
    })
}

/// `bs`, encoded from `csr`, against [`chunk_oracle`] at every size in
/// [`BATCH_SIZES`] and every `(fidelity, r)`: every lane bit for bit in
/// the Top-K list and in every [`CoreStats`] field.
fn batches_match_the_chunk_oracle<S: SpmvScalar>(
    csr: &Csr,
    bs: &BsCsr,
    queries: &[Vec<S>],
    fidelities: &[(Fidelity, u32)],
) {
    let b = bs.layout().entries_per_packet() as u64;
    let k = 10;
    for &(fidelity, r) in fidelities {
        let wants: Vec<_> = queries
            .iter()
            .map(|x| chunk_oracle(csr, b, x, k, r))
            .collect();
        for lanes in BATCH_SIZES {
            let mut scratch = BatchScratch::new();
            let got = run_core_batch_with_scratch(bs, &queries[..lanes], k, fidelity, &mut scratch);
            for (lane, (out, want)) in got.iter().zip(&wants).enumerate() {
                assert_eq!(
                    (&out.topk, out.stats),
                    (&want.0, want.1),
                    "{:?} {} packets, {} entries, {fidelity:?} B={lanes} lane {lane}",
                    bs.layout(),
                    bs.num_packets(),
                    bs.stored_entries()
                );
            }
        }
    }
}

/// The faithful engine against [`chunk_oracle`] on streams of 63, 64,
/// 65 and 128 packets whose last packet is full or ragged, for r ∈ {1,
/// 2, design r} and `Reference`, on the design layout and on a narrower
/// run-time layout.
fn engine_matches_the_chunk_oracle<S: SpmvScalar>() {
    let design = PacketLayout::paper(S::VALUE_BITS);
    let narrow_b = design.entries_per_packet() - 4;
    let narrow = PacketLayout::with_entries(1024, S::VALUE_BITS, narrow_b).unwrap();
    let queries = queries::<S>();
    for layout in [design, narrow] {
        let b = layout.entries_per_packet() as usize;
        let design_r = (b as u32 / 2).max(1);
        for packets in [63, 64, 65, 128] {
            for ragged in [false, true] {
                let stored = if ragged {
                    packets * b - b / 2
                } else {
                    packets * b
                };
                let csr = chunked_matrix(stored, b, 1024, (packets * 2 + ragged as usize) as u64);
                let bs = BsCsr::encode::<S>(&csr, layout);
                assert_eq!(bs.num_packets(), packets, "{layout:?}");
                assert!((0..csr.num_rows()).any(|r| csr.row_nnz(r) == 0));
                assert_eq!(
                    straddles_a_chunk(&csr, b),
                    packets > 64,
                    "{packets} packets"
                );
                let fidelities = [
                    (Fidelity::Faithful { rows_per_packet: 1 }, 1),
                    (Fidelity::Faithful { rows_per_packet: 2 }, 2),
                    (
                        Fidelity::Faithful {
                            rows_per_packet: design_r,
                        },
                        design_r,
                    ),
                    (Fidelity::Reference, u32::MAX),
                ];
                batches_match_the_chunk_oracle(&csr, &bs, &queries, &fidelities);
            }
        }
    }
}

#[test]
fn faithful_engine_matches_an_independent_oracle_across_chunks() {
    engine_matches_the_chunk_oracle::<Q1_19>();
    engine_matches_the_chunk_oracle::<F32>();
}

/// `num_rows` rows of three shapes — the same two entries, the same
/// five entries, or empty — in an 8-row cycle of 23 stored entries, so
/// rows straddle packet and chunk boundaries at shifting offsets. For
/// any query every row's sum is one of three values: once a tracker is
/// full, each further row of the best shape ties its floor.
fn tied_matrix(num_rows: u32) -> Csr {
    let two: &[(u32, f32)] = &[(3, 0.5), (700, 0.25)];
    let five: &[(u32, f32)] = &[
        (1, 0.125),
        (64, 0.125),
        (65, 0.5),
        (300, 0.25),
        (1000, 0.0625),
    ];
    let cycle = [two, five, two, &[], five, two, five, &[]];
    let triplets: Vec<(u32, u32, f32)> = (0..num_rows)
        .flat_map(|row| {
            cycle[row as usize % 8]
                .iter()
                .map(move |&(c, v)| (row, c, v))
        })
        .collect();
    Csr::from_triplets(num_rows as usize, 1024, &triplets).expect("valid by construction")
}

/// The engine against [`chunk_oracle`] on [`tied_matrix`], four chunks
/// long: ties at the trackers' floors within and across chunks, where
/// the `>=` replace rule evicts the minimum on every tie, so a lane
/// whose select step drops a tie ends with different rows.
fn ties_at_the_floor_match_the_chunk_oracle<S: SpmvScalar>() {
    let layout = PacketLayout::paper(S::VALUE_BITS);
    let csr = tied_matrix(2_000);
    let bs = BsCsr::encode::<S>(&csr, layout);
    assert!(bs.num_packets() > 3 * 64, "spans four chunks");
    assert!(straddles_a_chunk(
        &csr,
        layout.entries_per_packet() as usize
    ));
    let fidelities = [
        (Fidelity::Faithful { rows_per_packet: 2 }, 2),
        (Fidelity::Reference, u32::MAX),
    ];
    batches_match_the_chunk_oracle(&csr, &bs, &queries::<S>(), &fidelities);
}

#[test]
fn ties_at_the_trackers_floors_match_the_chunk_oracle() {
    ties_at_the_floor_match_the_chunk_oracle::<Q1_19>();
    ties_at_the_floor_match_the_chunk_oracle::<F32>();
}

/// A seeded matrix of `stored` stored entries, crowded with row ends at
/// `b` per packet: runs of one-entry and empty rows (an empty row stores
/// one placeholder), so a packet ends up to `b` rows, broken by a
/// two-to-`b`-entry row about one row in 32, so some packets end few
/// rows, and by a row of more than `2b` entries about one in 128, so
/// some end none.
fn crowded_matrix(stored: usize, b: usize, seed: u64) -> Csr {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut triplets = Vec::new();
    let (mut row, mut cum) = (0u32, 0usize);
    while cum < stored {
        let draw = next() as usize;
        let len = match draw % 128 {
            0 => 2 * b + 1 + draw / 128 % b,
            1..=4 => 2 + draw / 128 % (b - 1),
            5..=16 => 0,
            _ => 1,
        }
        .min(stored - cum);
        let start = next() as usize % 1024;
        let mut cols: Vec<u32> = (0..len).map(|j| ((start + 53 * j) % 1024) as u32).collect();
        cols.sort_unstable();
        for c in cols {
            triplets.push((row, c, (next() % 1000 + 1) as f32 / 1000.0));
        }
        cum += len.max(1);
        row += 1;
    }
    Csr::from_triplets(row as usize, 1024, &triplets).expect("valid by construction")
}

/// The `r` gate at batch sizes 1 (a lane alone: for Q1.19 its sums come
/// straight from the packets), 2 (two remainder lanes), 9 and 17 (a
/// block plus one), for r ∈ {1, 2, B/4, B − 1, B} and `Reference`,
/// against [`chunk_oracle`]'s explicit per-packet ordinal count: every
/// lane's Top-K list, `rows_finished`, `rows_dropped` and
/// `topk_accepted`. The stream crosses two chunk boundaries, most of its
/// packets end more than B/2 rows, and its last packet is ragged.
fn r_gate_matches_the_ordinal_count<S: SpmvScalar>() {
    let layout = PacketLayout::paper(S::VALUE_BITS);
    let b = layout.entries_per_packet() as usize;
    let csr = crowded_matrix(150 * b - b / 3, b, 41);
    let bs = BsCsr::encode::<S>(&csr, layout);
    assert_eq!(bs.num_packets(), 150);
    assert_ne!(bs.stored_entries() % b as u64, 0, "ragged last packet");
    let mut ends_per_packet = vec![0usize; bs.num_packets()];
    let mut end = 0;
    for row in 0..csr.num_rows() {
        end += csr.row_nnz(row).max(1);
        ends_per_packet[(end - 1) / b] += 1;
    }
    let crowded = ends_per_packet.iter().filter(|&&n| n > b / 2).count();
    assert!(2 * crowded > bs.num_packets(), "{crowded} crowded packets");
    assert!(ends_per_packet.contains(&0), "some packet ends no row");
    let queries = queries::<S>();
    let k = 10;
    let b = b as u32;
    for r in [1, 2, b / 4, b - 1, b, u32::MAX] {
        let fidelity = if r == u32::MAX {
            Fidelity::Reference
        } else {
            Fidelity::Faithful { rows_per_packet: r }
        };
        for lanes in [1, 2, 9, 17] {
            let mut scratch = BatchScratch::new();
            let got =
                run_core_batch_with_scratch(&bs, &queries[..lanes], k, fidelity, &mut scratch);
            for (lane, (out, x)) in got.iter().zip(&queries).enumerate() {
                let want = chunk_oracle(&csr, u64::from(b), x, k, r);
                assert_eq!(
                    (&out.topk, out.stats),
                    (&want.0, want.1),
                    "{fidelity:?} B={lanes} lane {lane}"
                );
            }
        }
    }
}

#[test]
fn r_gate_matches_an_explicit_per_packet_ordinal_count() {
    r_gate_matches_the_ordinal_count::<Q1_19>();
    r_gate_matches_the_ordinal_count::<F32>();
}
