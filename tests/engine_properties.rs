//! Property-based tests of the engine's core invariants on arbitrary
//! matrices: the emulated datapath must agree with a plain-Rust oracle
//! for any input, not just the evaluation workloads.

use proptest::prelude::*;
use tkspmv::{
    quantize_vector, run_core_batch_with_scratch, BatchScratch, CoreOutput, Fidelity, TopKTracker,
};
use tkspmv_fixed::{SpmvScalar, F32, Q1_31};
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
