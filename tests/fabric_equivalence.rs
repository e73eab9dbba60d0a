//! Property tests of the distributed fabric's answer fidelity: for any
//! matrix split across 1–4 in-process nodes, a query routed through the
//! fan-out `Router` must be element-wise identical to a single
//! unsharded `CpuTopK` answering the whole matrix directly.
//!
//! The fabric adds three layers that could each corrupt an answer —
//! the wire encoding (scores cross as `f64::to_bits`), the per-shard
//! globalization (`start_row` offsets), and the router merge
//! (`merge_pairs` under the engine total order, over disjoint row
//! ranges). Bit-identity against the direct reference pins all three
//! at once.
//!
//! Two tiers are exercised:
//!
//! - [`QueryTier::Exact`]: lossless by construction, any shard count.
//! - [`QueryTier::Pruned`] with a *covering* shortlist factor
//!   (`c·k ≥` every shard's rows): the documented exact fall-through
//!   makes the pruned tier lossless too, so routed-pruned must also
//!   equal the unsharded exact reference — the property that lets a
//!   fleet serve `--tier pruned` without per-deployment baselines.
//!
//! A deterministic delta test rides along: rows appended through the
//! router must score identically to a reference rebuilt with
//! `Csr::append_rows`, before *and* after `compact_all` epoch-swaps the
//! fold in.

use std::sync::Arc;

use proptest::prelude::*;
use tkspmv::backend::{QueryTier, TopKBackend};
use tkspmv::{PrunedBackend, TopKResult};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_fabric::{DeltaCollection, NodeServer, Router, RouterConfig, ShardSpec};
use tkspmv_fixed::PruneBits;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::{Csr, DenseVector};

/// A covering shortlist factor: `c·k ≥ rows` for every matrix this
/// suite generates (rows < 64, k ≥ 1), so the prune pass falls through
/// to exact and routed-pruned answers are reference-comparable.
const COVERING_FACTOR: usize = 64;

/// One in-process node per partition, each a full serving stack behind
/// a real TCP port: engine, micro-batcher, delta shard, wire loop.
fn spawn_fleet(csr: &Csr, parts: usize, pruned: bool) -> (Vec<NodeServer>, Vec<ShardSpec>) {
    let mut nodes = Vec::with_capacity(parts);
    let mut specs = Vec::with_capacity(parts);
    for (first_row, shard) in csr.partition_rows(parts) {
        let exact: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(1));
        let backend: Arc<dyn TopKBackend> = if pruned {
            Arc::new(
                PrunedBackend::new(exact, PruneBits::Eight, COVERING_FACTOR)
                    .expect("covering factor is valid"),
            )
        } else {
            exact
        };
        let service = TopKService::builder(backend)
            .batch_policy(BatchPolicy::immediate())
            .build(&shard)
            .expect("shard service builds");
        let collection = Arc::new(DeltaCollection::new(service, shard, first_row));
        let node = NodeServer::spawn(collection, "127.0.0.1:0").expect("node binds");
        specs.push(ShardSpec::single(node.local_addr().to_string()));
        nodes.push(node);
    }
    (nodes, specs)
}

fn connect(specs: Vec<ShardSpec>) -> Router {
    Router::connect(
        specs,
        RouterConfig {
            deadline: std::time::Duration::from_secs(10),
            ..RouterConfig::default()
        },
    )
    .expect("router connects")
}

/// Direct unsharded reference: one `CpuTopK` over the whole matrix.
fn direct_reference(csr: &Csr, x: &DenseVector, k: usize) -> TopKResult {
    let backend = CpuTopK::new(1);
    let prepared = backend.prepare(csr).expect("prepare");
    backend.query(&prepared, x, k).expect("query").topk
}

/// A random matrix (enough rows for 4 shards), a few query vectors, a
/// `k`, and a shard count.
fn arb_case() -> impl Strategy<Value = (Csr, Vec<DenseVector>, usize, usize)> {
    (24usize..60, 8usize..32, 1usize..9, 1usize..5).prop_flat_map(|(rows, cols, k, parts)| {
        let matrix = proptest::collection::btree_set((0..rows as u32, 0..cols as u32), 1..120)
            .prop_map(move |coords| {
                let triplets: Vec<(u32, u32, f32)> = coords
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, c))| (r, c, ((i * 17 % 83) + 1) as f32 / 100.0))
                    .collect();
                Csr::from_triplets(rows, cols, &triplets).expect("valid")
            });
        let queries = proptest::collection::vec(
            proptest::collection::vec(0.0f32..1.0, cols..=cols).prop_map(DenseVector::from_values),
            1..5,
        );
        (matrix, queries, Just(k), Just(parts))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn routed_exact_equals_unsharded((csr, queries, k, parts) in arb_case()) {
        let k = k.min(csr.num_rows());
        let (nodes, specs) = spawn_fleet(&csr, parts, false);
        let router = connect(specs);
        for x in &queries {
            let reference = direct_reference(&csr, x, k);
            let routed = router
                .query(x.as_slice(), k, QueryTier::Exact)
                .expect("routed query");
            prop_assert!(routed.coverage.is_complete());
            prop_assert_eq!(
                routed.topk.entries(), reference.entries(),
                "routed exact diverged from the unsharded reference \
                 ({} shards)", parts
            );
        }
        for node in nodes {
            node.shutdown();
        }
    }

    #[test]
    fn routed_pruned_with_covering_factor_equals_unsharded(
        (csr, queries, k, parts) in arb_case()
    ) {
        let k = k.min(csr.num_rows());
        let (nodes, specs) = spawn_fleet(&csr, parts, true);
        let router = connect(specs);
        let tier = QueryTier::Pruned { shortlist_factor: COVERING_FACTOR };
        for x in &queries {
            let reference = direct_reference(&csr, x, k);
            let routed = router
                .query(x.as_slice(), k, tier)
                .expect("routed pruned query");
            prop_assert!(routed.coverage.is_complete());
            prop_assert_eq!(
                routed.topk.entries(), reference.entries(),
                "routed pruned (covering c = {}) diverged from the \
                 unsharded exact reference ({} shards)", COVERING_FACTOR, parts
            );
        }
        for node in nodes {
            node.shutdown();
        }
    }
}

/// Rows appended through the router score identically to a reference
/// whose matrix was rebuilt with `Csr::append_rows` — while still in
/// the delta shard, and after compaction folds them into the base.
#[test]
fn routed_append_matches_rebuilt_reference_across_compaction() {
    let rows = 30;
    let cols = 16;
    let k = 6;
    let triplets: Vec<(u32, u32, f32)> = (0..rows)
        .flat_map(|r| {
            (0..3).map(move |j| {
                let c = (r * 5 + j * 7) % cols;
                (r as u32, c as u32, 0.05 + ((r * 3 + j) % 19) as f32 / 20.0)
            })
        })
        .collect();
    let csr = Csr::from_triplets(rows, cols, &triplets).expect("valid");
    let appended: Vec<(Vec<u32>, Vec<f32>)> = vec![
        (vec![0, 4, 9], vec![0.9, 0.8, 0.7]),
        (vec![2, 15], vec![1.5, 0.1]),
        (vec![7], vec![2.0]),
    ];
    let grown = csr.append_rows(&appended).expect("reference grows");

    let (nodes, specs) = spawn_fleet(&csr, 3, false);
    let router = connect(specs);
    let ids = router.append(&appended).expect("routed append");
    // Appends land on the tail shard, so global ids continue the
    // fleet's row space exactly where the base matrix ends.
    assert_eq!(ids, vec![30, 31, 32]);

    let queries: Vec<DenseVector> = (0..4)
        .map(|q| {
            DenseVector::from_values(
                (0..cols)
                    .map(|c| ((c * 13 + q * 29) % 31) as f32 / 31.0)
                    .collect(),
            )
        })
        .collect();

    // Visible immediately, straight from the delta shard.
    for x in &queries {
        let reference = direct_reference(&grown, x, k);
        let routed = router
            .query(x.as_slice(), k, QueryTier::Exact)
            .expect("routed query over delta");
        assert_eq!(
            routed.topk.entries(),
            reference.entries(),
            "delta-served answer diverged from the rebuilt reference"
        );
    }

    // Folding the delta must change nothing about the answers.
    let per_shard = router.compact_all().expect("compaction");
    let folded: u64 = per_shard.iter().map(|&(_, n)| n).sum();
    assert_eq!(folded, appended.len() as u64);
    for x in &queries {
        let reference = direct_reference(&grown, x, k);
        let routed = router
            .query(x.as_slice(), k, QueryTier::Exact)
            .expect("routed query after compaction");
        assert_eq!(
            routed.topk.entries(),
            reference.entries(),
            "post-compaction answer diverged from the rebuilt reference"
        );
    }
    for node in nodes {
        node.shutdown();
    }
}
