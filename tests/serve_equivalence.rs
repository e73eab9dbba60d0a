//! Property tests of the serving layer's answer fidelity: for any
//! matrix, shard count, batching policy and submitter concurrency, a
//! query served through `TopKService` must be element-wise identical to
//! direct `TopKBackend` calls.
//!
//! Two reference levels, because exactness differs by engine:
//!
//! 1. **Per-shard reference (every backend, including the approximate
//!    accelerator):** prepare the identical shard layout by hand, query
//!    each shard directly, merge with `TopKResult::merge_pairs`. The
//!    service must reproduce this bit-for-bit — any divergence is a
//!    batching/concurrency/merge bug in the serving layer.
//! 2. **Full-matrix reference (exact backends, and the accelerator at
//!    one shard):** the direct unsharded `query`. For exact engines the
//!    shard merge is lossless under the workspace's total order
//!    (score desc, index asc), so serving at *any* shard count must
//!    equal the unsharded answer. For the accelerator the shard layout
//!    is part of the approximation (as the paper's core partitions are,
//!    §III-A), so full-matrix equality is asserted only at `shards = 1`.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tkspmv::backend::{PreparedMatrix, QueryBatch, QueryTier, TopKBackend};
use tkspmv::{Accelerator, PrunedBackend, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::PruneBits;
use tkspmv_obs::TraceId;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::{Csr, DenseVector};

/// Exact engines: served answers must match the unsharded direct query
/// at any shard count.
fn exact_backends() -> Vec<Arc<dyn TopKBackend>> {
    vec![
        Arc::new(CpuTopK::new(2)),
        Arc::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F32)),
        Arc::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F16).with_zero_cost_sort()),
    ]
}

/// The approximate accelerator (4 cores, k = 8 per core, so any
/// K ≤ 8 is coverable even by a few-row shard).
fn accelerator() -> Arc<dyn TopKBackend> {
    Arc::new(
        Accelerator::builder()
            .cores(4)
            .k(8)
            .build()
            .expect("small design builds"),
    )
}

/// Direct per-shard reference: same layout, no serving machinery.
fn sharded_reference(
    backend: &dyn TopKBackend,
    csr: &Csr,
    shards: usize,
    x: &DenseVector,
    k: usize,
) -> TopKResult {
    let layout = PreparedMatrix::prepare_row_shards(backend, csr, shards).expect("shards prepare");
    let mut pairs = Vec::new();
    for shard in &layout {
        let out = backend.query(shard.matrix(), x, k).expect("shard query");
        pairs.extend(shard.globalize(&out.topk));
    }
    TopKResult::merge_pairs(pairs, k)
}

/// Direct unsharded reference.
fn direct_reference(backend: &dyn TopKBackend, csr: &Csr, x: &DenseVector, k: usize) -> TopKResult {
    let prepared = backend.prepare(csr).expect("prepare");
    backend.query(&prepared, x, k).expect("query").topk
}

/// Serve every query concurrently (one submitter thread each) and
/// collect the answers in submission order.
fn serve_concurrently(
    backend: Arc<dyn TopKBackend>,
    csr: &Csr,
    shards: usize,
    policy: BatchPolicy,
    queries: &[DenseVector],
    k: usize,
) -> Vec<TopKResult> {
    let service = TopKService::builder(backend)
        .shards(shards)
        .batch_policy(policy)
        .build(csr)
        .expect("service builds");
    let answers = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = queries
            .iter()
            .map(|x| scope.spawn(move || service.query(x.clone(), k).expect("served").topk))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect::<Vec<_>>()
    });
    let metrics = service.shutdown();
    assert_eq!(metrics.served, queries.len() as u64);
    assert_eq!(metrics.failed + metrics.shed, 0);
    answers
}

/// A random matrix (24..60 rows so up to 4 shards stay feasible for the
/// 4-core accelerator), a batch of queries, a coverable K, a shard
/// count, and a batching-policy selector.
fn arb_case() -> impl Strategy<Value = (Csr, Vec<DenseVector>, usize, usize, usize)> {
    (24usize..60, 8usize..48, 1usize..9, 1usize..5, 0usize..3).prop_flat_map(
        |(rows, cols, k, shards, policy)| {
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
                proptest::collection::vec(0.0f32..1.0, cols..=cols)
                    .prop_map(DenseVector::from_values),
                1..7,
            );
            (matrix, queries, Just(k), Just(shards), Just(policy))
        },
    )
}

fn policy_from(selector: usize) -> BatchPolicy {
    match selector {
        0 => BatchPolicy::immediate(),
        1 => BatchPolicy::coalescing(4, Duration::from_micros(300)),
        _ => BatchPolicy::coalescing(16, Duration::from_millis(1)),
    }
}

/// Direct per-shard reference at an explicit tier: same layout, no
/// serving machinery, answered through `query_batch_tiered`.
fn sharded_tiered_reference(
    backend: &dyn TopKBackend,
    csr: &Csr,
    shards: usize,
    x: &DenseVector,
    k: usize,
    tier: QueryTier,
) -> TopKResult {
    let layout = PreparedMatrix::prepare_row_shards(backend, csr, shards).expect("shards prepare");
    let batch = QueryBatch::new(vec![x.clone()]).expect("one-query batch");
    let mut pairs = Vec::new();
    for shard in &layout {
        let out = backend
            .query_batch_tiered(shard.matrix(), &batch, k, tier)
            .expect("shard query");
        pairs.extend(shard.globalize(&out[0].topk));
    }
    TopKResult::merge_pairs(pairs, k)
}

/// Serve every (query, tier) pair concurrently and collect the answers
/// in submission order, asserting each response echoes its tier.
fn serve_tiered_concurrently(
    backend: Arc<dyn TopKBackend>,
    csr: &Csr,
    shards: usize,
    policy: BatchPolicy,
    work: &[(DenseVector, QueryTier)],
    k: usize,
) -> Vec<TopKResult> {
    let service = TopKService::builder(backend)
        .shards(shards)
        .batch_policy(policy)
        .build(csr)
        .expect("service builds");
    let answers = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = work
            .iter()
            .map(|(x, tier)| {
                scope.spawn(move || {
                    let served = service
                        .query_tiered(x.clone(), k, *tier, TraceId::ZERO)
                        .expect("served");
                    assert_eq!(served.tier, *tier, "response must echo its tier");
                    served.topk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect::<Vec<_>>()
    });
    let metrics = service.shutdown();
    assert_eq!(metrics.served, work.len() as u64);
    assert_eq!(metrics.failed + metrics.shed, 0);
    answers
}

/// A matrix engineered for score collisions: every row is one of a few
/// repeated patterns, so whole groups of rows tie exactly and the
/// truncation boundary almost always lands inside a tie group. The
/// deterministic tie break (score desc, then row id asc) is what makes
/// the sharded merge reproduce the unsharded ranking.
fn arb_tied_case() -> impl Strategy<Value = (Csr, usize, usize)> {
    (12usize..48, 2usize..5, 1usize..10, 8usize..24).prop_map(|(rows, patterns, k, cols)| {
        let mut triplets = Vec::new();
        for r in 0..rows {
            let p = r % patterns;
            for j in 0..3usize {
                let c = (p * 3 + j) % cols;
                triplets.push((r as u32, c as u32, 0.1 + p as f32 / 10.0));
            }
        }
        let csr = Csr::from_triplets(rows, cols, &triplets).expect("tied matrix builds");
        (csr, k, cols)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn duplicate_scores_merge_identically_for_any_shard_count(
        (csr, k, cols) in arb_tied_case()
    ) {
        // An all-ones query makes every same-pattern row score exactly
        // equal, so the Top-K cut is decided purely by the tie break.
        let x = DenseVector::from_values(vec![1.0; cols]);
        let k = k.min(csr.num_rows());
        let backend: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
        let reference = direct_reference(backend.as_ref(), &csr, &x, k);
        let max_shards = csr.num_rows().min(4);
        for shards in 1..=max_shards {
            let served = serve_concurrently(
                Arc::clone(&backend),
                &csr,
                shards,
                BatchPolicy::immediate(),
                std::slice::from_ref(&x),
                k,
            );
            prop_assert_eq!(
                &served[0], &reference,
                "tied scores ranked differently at {} shards", shards
            );
            // The sharded direct merge agrees too — the serving layer
            // adds nothing on top of merge_pairs' total order.
            let sharded = sharded_reference(backend.as_ref(), &csr, shards, &x, k);
            prop_assert_eq!(&sharded, &reference, "direct merge at {} shards", shards);
        }
    }

    #[test]
    fn served_equals_direct_for_every_backend_and_layout(
        (csr, queries, k, shards, policy) in arb_case()
    ) {
        let k = k.min(csr.num_rows());
        let policy = policy_from(policy);

        // Exact engines: served == unsharded direct, any shard count.
        for backend in exact_backends() {
            let served = serve_concurrently(
                Arc::clone(&backend), &csr, shards, policy, &queries, k,
            );
            for (x, got) in queries.iter().zip(&served) {
                let full = direct_reference(backend.as_ref(), &csr, x, k);
                prop_assert_eq!(
                    got, &full,
                    "{}: served diverged from the unsharded direct query \
                     ({shards} shards)", backend.name()
                );
            }
        }

        // The staged prune + rescore pipeline, served with both tiers
        // interleaved. The exact tier delegates to the wrapped engine,
        // so it must equal the unsharded exact reference at any shard
        // count; the pruned tier's shard layout is part of the
        // approximation (like the accelerator's core partitions), so it
        // must equal the per-shard tiered reference bit-for-bit — and
        // the direct unsharded staged answer at one shard.
        let inner: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
        let staged: Arc<dyn TopKBackend> = Arc::new(
            PrunedBackend::new(Arc::clone(&inner), PruneBits::Eight, 3)
                .expect("factor 3 is valid"),
        );
        let pruned_tier = QueryTier::Pruned { shortlist_factor: 3 };
        let work: Vec<(DenseVector, QueryTier)> = queries
            .iter()
            .flat_map(|x| [(x.clone(), QueryTier::Exact), (x.clone(), pruned_tier)])
            .collect();
        let served = serve_tiered_concurrently(
            Arc::clone(&staged), &csr, shards, policy, &work, k,
        );
        for ((x, tier), got) in work.iter().zip(&served) {
            match tier {
                QueryTier::Exact => {
                    let full = direct_reference(inner.as_ref(), &csr, x, k);
                    prop_assert_eq!(
                        got, &full,
                        "staged pipeline: exact tier diverged from the \
                         unsharded exact query ({shards} shards)"
                    );
                }
                QueryTier::Pruned { .. } => {
                    let reference =
                        sharded_tiered_reference(staged.as_ref(), &csr, shards, x, k, *tier);
                    prop_assert_eq!(
                        got, &reference,
                        "staged pipeline: pruned tier diverged from the \
                         per-shard tiered reference ({shards} shards)"
                    );
                    if shards == 1 {
                        let prepared = staged.prepare(&csr).expect("prepare");
                        let batch = QueryBatch::new(vec![x.clone()]).expect("one-query batch");
                        let direct = staged
                            .query_batch_tiered(&prepared, &batch, k, *tier)
                            .expect("direct staged query");
                        prop_assert_eq!(
                            got, &direct[0].topk,
                            "pruned tier at 1 shard must equal the direct staged query"
                        );
                    }
                }
            }
        }

        // The approximate accelerator: served == per-shard direct merge
        // on the identical layout (and == unsharded when shards = 1).
        let fpga = accelerator();
        let served = serve_concurrently(Arc::clone(&fpga), &csr, shards, policy, &queries, k);
        for (x, got) in queries.iter().zip(&served) {
            let reference = sharded_reference(fpga.as_ref(), &csr, shards, x, k);
            prop_assert_eq!(
                got, &reference,
                "accelerator: served diverged from the per-shard direct \
                 reference ({shards} shards)"
            );
            if shards == 1 {
                let full = direct_reference(fpga.as_ref(), &csr, x, k);
                prop_assert_eq!(got, &full, "accelerator at 1 shard must equal direct");
            }
        }
    }
}
