//! Property tests of the `TopKBackend` batched-query contract: for any
//! matrix, any batch and any K, `query_batch` must return exactly what
//! N sequential `query` calls return — for every backend (accelerator,
//! CPU baseline, GPU model). Batching may only change performance,
//! never answers.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tkspmv::backend::{QueryBatch, TopKBackend};
use tkspmv::{quantize_vector, run_core_batch_with_scratch, Accelerator, BatchScratch, Fidelity};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::{SpmvScalar, F32, Q1_19};
use tkspmv_sparse::{BsCsr, Csr, DenseVector, PacketLayout};

/// All three engine families behind the unified trait. The accelerator
/// uses few cores so tiny matrices still exercise multiple partitions,
/// and k = 8 per core so any K in 1..=8 is coverable by one partition.
fn all_backends() -> Vec<Box<dyn TopKBackend>> {
    vec![
        Box::new(
            Accelerator::builder()
                .cores(4)
                .k(8)
                .build()
                .expect("small design builds"),
        ),
        Box::new(CpuTopK::new(2)),
        Box::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F32)),
        Box::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F16).with_zero_cost_sort()),
    ]
}

/// A random matrix, a random batch of queries of matching dimension,
/// and a K every backend can serve. Narrow widths reach the engine as
/// run-time layouts; 513..=1024 columns solve to the M = 1024 layouts
/// the engine holds as constants. Batches of 1..20 reach one-lane
/// remainders alone, and the engine's 8- and 16-lane blocks each with
/// and without them.
fn arb_case() -> impl Strategy<Value = (Csr, Vec<DenseVector>, usize)> {
    (2usize..40, 4usize..96, 513usize..=1024, 0u8..2, 1usize..9).prop_flat_map(
        |(rows, narrow, wide, arm, k)| {
            let cols = if arm == 0 { narrow } else { wide };
            let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..120)
                .prop_map(move |coords| {
                    let triplets: Vec<(u32, u32, f32)> = coords
                        .into_iter()
                        .enumerate()
                        .map(|(i, (r, c))| (r, c, ((i * 13 % 89) + 1) as f32 / 100.0))
                        .collect();
                    Csr::from_triplets(rows, cols, &triplets).expect("valid")
                });
            let batch = proptest::collection::vec(
                proptest::collection::vec(0.0f32..1.0, cols..=cols)
                    .prop_map(DenseVector::from_values),
                1..20,
            );
            (matrix, batch, Just(k))
        },
    )
}

/// Engine-level oracle check for one scalar type: the matrix-major
/// batch pass must be bit-identical to N independent single-query runs
/// — top-k pairs (including raw accumulator values, so fixed-point
/// saturation order is covered) and every statistic — under both the
/// hardware-faithful `r`-limited fidelity and the unlimited reference.
fn assert_engine_batch_matches_sequential<S: SpmvScalar>(
    csr: &Csr,
    queries: &[DenseVector],
    k: usize,
    value_bits: u32,
) -> Result<(), TestCaseError> {
    let layout = PacketLayout::solve(csr.num_cols(), value_bits).expect("layout solves");
    let bs = BsCsr::encode::<S>(csr, layout);
    let qs: Vec<Vec<S>> = queries
        .iter()
        .map(|x| quantize_vector::<S>(x.as_slice()))
        .collect();
    for fidelity in [
        Fidelity::Faithful { rows_per_packet: 2 },
        Fidelity::Reference,
    ] {
        let mut scratch = BatchScratch::<S>::new();
        let outputs = run_core_batch_with_scratch(&bs, &qs, k, fidelity, &mut scratch);
        prop_assert_eq!(outputs.len(), qs.len());
        for (x, got) in qs.iter().zip(outputs) {
            let mut one_lane = BatchScratch::<S>::new();
            let single = &run_core_batch_with_scratch(&bs, &[x], k, fidelity, &mut one_lane)[0];
            prop_assert_eq!(
                &single.topk,
                &got.topk,
                "engine batch diverged from sequential ({:?})",
                fidelity
            );
            prop_assert_eq!(single.stats, got.stats);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine contract underneath every backend, for both
    /// fidelities: 20-bit fixed point (saturating accumulation) and the
    /// f32 reference datapath.
    #[test]
    fn engine_batch_is_bit_identical_for_both_fidelities(
        (csr, queries, k) in arb_case()
    ) {
        let k = k.min(csr.num_rows()).max(1);
        assert_engine_batch_matches_sequential::<Q1_19>(&csr, &queries, k, 20)?;
        assert_engine_batch_matches_sequential::<F32>(&csr, &queries, k, 32)?;
    }

    #[test]
    fn query_batch_is_elementwise_identical_to_sequential_queries(
        (csr, queries, k) in arb_case()
    ) {
        let k = k.min(csr.num_rows());
        let batch = QueryBatch::new(queries.clone()).expect("non-empty batch");
        for backend in all_backends() {
            let prepared = backend.prepare(&csr).expect("prepare succeeds");
            let batched = backend
                .query_batch(&prepared, &batch, k)
                .expect("batch runs");
            prop_assert_eq!(batched.len(), queries.len());
            for (x, got) in queries.iter().zip(&batched) {
                let single = backend.query(&prepared, x, k).expect("single runs");
                // The ranking must match bit-for-bit, and so must every
                // non-timing statistic; only measured walltime may vary.
                prop_assert_eq!(
                    &single.topk,
                    &got.topk,
                    "{}: batch diverged from sequential", backend.name()
                );
                prop_assert_eq!(single.perf.nnz, got.perf.nnz);
                prop_assert_eq!(single.perf.timing, got.perf.timing);
            }
        }
    }
}
