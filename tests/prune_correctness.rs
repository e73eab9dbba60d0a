//! Correctness properties of the staged two-phase pipeline
//! ([`PrunedBackend`]): the low-bit prune pass may only *narrow* where
//! exact rescoring looks, so
//!
//! 1. **Covering shortlist ⇒ exactness** — whenever `c·k ≥ rows` the
//!    pipeline's answer is element-wise identical to the wrapped exact
//!    backend (the shortlist covers every row, so nothing is pruned
//!    away — whether by fall-through or by rescoring all rows).
//! 2. **Recall is monotone in `c`** — the factor-`c` shortlist is a
//!    prefix of the factor-`c'` shortlist for `c ≤ c'` under the
//!    engine-wide total order, and every true Top-K member that reaches
//!    the shortlist survives exact rescoring; so recall@k can only grow
//!    with `c`. Checked on the paper's Table III left-skewed `Γ(3, 4/3)`
//!    synthetics.
//! 3. **The wrapped backend does not matter below covering** — the
//!    shortlist is rescored exactly from the rows the wrapper keeps,
//!    never through the wrapped backend, so wrapping the approximate
//!    accelerator or the exact CPU engine gives bit-identical answers.

use std::sync::Arc;

use proptest::prelude::*;
use tkspmv::backend::{BackendStats, TopKBackend};
use tkspmv::{Accelerator, PrunedBackend, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_eval::metrics::precision_at_k;
use tkspmv_fixed::PruneBits;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{Csr, DenseVector};

/// A random matrix, a few query vectors, and a `k`.
fn arb_case() -> impl Strategy<Value = (Csr, Vec<DenseVector>, usize)> {
    (24usize..60, 8usize..48, 1usize..9).prop_flat_map(|(rows, cols, k)| {
        let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..150)
            .prop_map(move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i * 13 % 89) + 1) as f32 / 100.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid")
            });
        let queries = proptest::collection::vec(
            proptest::collection::vec(0.0f32..1.0, cols..=cols).prop_map(DenseVector::from_values),
            1..5,
        );
        (matrix, queries, Just(k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1: `c·k ≥ rows` ⇒ identical to the wrapped backend, at
    /// both companion widths.
    #[test]
    fn covering_shortlist_equals_the_wrapped_exact_backend(
        (csr, queries, k) in arb_case()
    ) {
        let k = k.min(csr.num_rows());
        let inner: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
        let prepared = inner.prepare(&csr).expect("inner prepare");
        // The smallest covering factor, so the test also exercises the
        // boundary where `c·k` just reaches `rows`.
        let factor = csr.num_rows().div_ceil(k);
        for bits in PruneBits::ALL {
            let staged = PrunedBackend::new(Arc::clone(&inner), bits, factor)
                .expect("covering factor is valid");
            let staged_prepared = staged.prepare(&csr).expect("staged prepare");
            for x in &queries {
                let exact = inner.query(&prepared, x, k).expect("exact query");
                let got = staged.query(&staged_prepared, x, k).expect("staged query");
                prop_assert_eq!(
                    &got.topk, &exact.topk,
                    "{}: covering shortlist (c = {}) diverged from exact",
                    staged.name(), factor
                );
            }
        }
    }

    /// Property 3: at non-covering factors (`c·k < rows`: `k ≤ 8`,
    /// `rows ≥ 24`) the accelerator and the CPU engine, wrapped, answer
    /// bit for bit alike.
    #[test]
    fn pruned_answer_does_not_depend_on_the_wrapped_backend(
        (csr, queries, k) in arb_case()
    ) {
        let accelerator: Arc<dyn TopKBackend> = Arc::new(
            Accelerator::builder().cores(2).k(4).build().expect("small design builds"),
        );
        let cpu: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
        let bits = |topk: &TopKResult| -> Vec<(u32, u64)> {
            topk.entries().iter().map(|&(row, s)| (row, s.to_bits())).collect()
        };
        for width in PruneBits::ALL {
            for factor in [1usize, 2] {
                let staged = |inner: &Arc<dyn TopKBackend>| {
                    let b = PrunedBackend::new(Arc::clone(inner), width, factor)
                        .expect("factor is valid");
                    let m = b.prepare(&csr).expect("staged prepare");
                    (b, m)
                };
                let (over_accel, accel_m) = staged(&accelerator);
                let (over_cpu, cpu_m) = staged(&cpu);
                for x in &queries {
                    let got = over_accel.query(&accel_m, x, k).expect("staged query");
                    let want = over_cpu.query(&cpu_m, x, k).expect("staged query");
                    prop_assert!(
                        matches!(got.stats, BackendStats::Pruned { pruned: true, .. }),
                        "c = {} must prune", factor
                    );
                    prop_assert_eq!(
                        bits(&got.topk), bits(&want.topk),
                        "{} vs {} at c = {}", over_accel.name(), over_cpu.name(), factor
                    );
                }
            }
        }
    }
}

/// Property 2 on the paper's workload shape: recall@k never drops when
/// the shortlist factor grows, and reaches 1.0 once `c·k` covers the
/// collection.
#[test]
fn recall_is_monotone_in_the_shortlist_factor_on_table3_synthetics() {
    let csr = SyntheticConfig {
        num_rows: 2_000,
        num_cols: 128,
        avg_nnz_per_row: 12,
        distribution: NnzDistribution::table3_gamma(),
        seed: 31,
    }
    .generate();
    let k = 20;
    let inner: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
    let prepared = inner.prepare(&csr).expect("inner prepare");

    for bits in PruneBits::ALL {
        for seed in [1u64, 2, 3, 4] {
            let x = query_vector(128, seed);
            let truth = inner.query(&prepared, &x, k).expect("exact query");
            let mut last = 0.0f64;
            // 100·20 = 2000 covers the collection, closing the sweep at
            // recall exactly 1.
            for factor in [1usize, 2, 4, 8, 16, 100] {
                let staged =
                    PrunedBackend::new(Arc::clone(&inner), bits, factor).expect("factor is valid");
                let sp = staged.prepare(&csr).expect("staged prepare");
                let got = staged.query(&sp, &x, k).expect("staged query");
                let recall = precision_at_k(&got.topk.indices(), &truth.topk.indices());
                assert!(
                    recall >= last,
                    "{bits}: recall dropped from {last:.3} to {recall:.3} at c = {factor}"
                );
                last = recall;
            }
            assert_eq!(last, 1.0, "{bits}: covering factor must reach full recall");
        }
    }
}
