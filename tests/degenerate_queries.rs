//! Degenerate inputs are rejected the same way by every engine in the
//! workspace — the emulated accelerator, the CPU and GPU baselines, and
//! the staged [`PrunedBackend`] pipeline wrapped around each of them:
//!
//! - `K = 0` is a typed [`EngineError::BadQuery`] at query time;
//! - an empty collection (zero rows) is a typed
//!   [`EngineError::InvalidConfig`] at prepare time;
//! - a query vector of the wrong length is a typed
//!   [`EngineError::BadQuery`];
//! - a malformed [`Query`] fails with the very text [`Query::check`]
//!   produces, whether it enters through [`TopKBackend::answer`] or
//!   [`TopKService::submit`];
//!
//! never a panic, and never a backend-specific error shape a caller
//! would have to special-case.

use std::sync::Arc;

use tkspmv::backend::{Query, QueryBatch, QueryTier, TopKBackend};
use tkspmv::{Accelerator, EngineError, PrunedBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_baselines::gpu::{GpuModel, GpuPrecision, GpuTopK};
use tkspmv_fixed::PruneBits;
use tkspmv_serve::{ServeError, TopKService};
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::Csr;

/// Every plain backend family, plus the staged pipeline wrapped around
/// each of them — the wrapper must not soften or reshape the contract.
fn all_backends() -> Vec<Arc<dyn TopKBackend>> {
    let plain: Vec<Arc<dyn TopKBackend>> = vec![
        Arc::new(
            Accelerator::builder()
                .cores(4)
                .k(8)
                .build()
                .expect("small design builds"),
        ),
        Arc::new(CpuTopK::new(2)),
        Arc::new(GpuTopK::new(GpuModel::tesla_p100(), GpuPrecision::F32)),
    ];
    let mut backends = plain.clone();
    for inner in plain {
        backends.push(Arc::new(
            PrunedBackend::new(inner, PruneBits::Eight, 4).expect("factor 4 is valid"),
        ));
    }
    backends
}

fn collection() -> Csr {
    SyntheticConfig {
        num_rows: 300,
        num_cols: 64,
        avg_nnz_per_row: 10,
        distribution: NnzDistribution::Uniform,
        seed: 23,
    }
    .generate()
}

#[test]
fn zero_k_is_a_typed_bad_query_everywhere() {
    let csr = collection();
    for backend in all_backends() {
        let prepared = backend.prepare(&csr).expect("prepare");
        let x = query_vector(64, 1);
        assert!(
            matches!(
                backend.query(&prepared, &x, 0),
                Err(EngineError::BadQuery { .. })
            ),
            "{}: K = 0 must be BadQuery",
            backend.name()
        );
        // The batch entry point agrees with the single-query one at
        // either tier.
        let batch = QueryBatch::random(2, 64, 5);
        for tier in [
            QueryTier::Exact,
            QueryTier::Pruned {
                shortlist_factor: 2,
            },
        ] {
            let query = Query {
                tier,
                ..Query::new(0)
            };
            let got = backend.answer(&prepared, batch.queries(), &query);
            assert!(
                matches!(got, Err(EngineError::BadQuery { .. })),
                "{}: K = 0 at tier {tier} must be BadQuery",
                backend.name()
            );
        }
    }
}

#[test]
fn empty_collections_are_rejected_at_prepare_everywhere() {
    let empty = Csr::from_triplets(0, 16, &[]).expect("zero-row CSR builds at the format layer");
    for backend in all_backends() {
        assert!(
            matches!(
                backend.prepare(&empty),
                Err(EngineError::InvalidConfig { .. })
            ),
            "{}: an empty collection must be InvalidConfig at prepare",
            backend.name()
        );
    }
}

#[test]
fn wrong_query_length_is_a_typed_bad_query_everywhere() {
    let csr = collection();
    for backend in all_backends() {
        let prepared = backend.prepare(&csr).expect("prepare");
        let short = query_vector(63, 1);
        assert!(
            matches!(
                backend.query(&prepared, &short, 5),
                Err(EngineError::BadQuery { .. })
            ),
            "{}: a 63-entry query against 64 columns must be BadQuery",
            backend.name()
        );
    }
}

/// Wrong dimension, `k = 0` and a zero shortlist factor: the three ways
/// a query can fail the one precondition, each with its exact text.
fn malformed_queries() -> [(&'static str, usize, Query, &'static str); 3] {
    let zero_factor = Query {
        tier: QueryTier::Pruned {
            shortlist_factor: 0,
        },
        ..Query::new(5)
    };
    [
        (
            "wrong dimension",
            63,
            Query::new(5),
            "bad query: query vector has 63 entries, matrix has 64 columns",
        ),
        (
            "k = 0",
            64,
            Query::new(0),
            "bad query: K must be at least 1",
        ),
        (
            "zero shortlist factor",
            64,
            zero_factor,
            "invalid accelerator configuration: shortlist factor must be at least 1",
        ),
    ]
}

#[test]
fn every_layer_rejects_a_malformed_query_with_the_precondition_text() {
    let csr = collection();
    for backend in all_backends() {
        let prepared = backend.prepare(&csr).expect("prepare");
        let service = TopKService::builder(Arc::clone(&backend))
            .build(&csr)
            .expect("service builds");
        for (name, len, query, text) in malformed_queries() {
            let checked = query.check(64, len).expect_err(name);
            assert_eq!(checked.to_string(), text, "{name}: Query::check");
            let x = query_vector(len, 1);
            let direct = backend
                .answer(&prepared, std::slice::from_ref(&x), &query)
                .expect_err(name);
            assert_eq!(direct, checked, "{}: {name} through answer", backend.name());
            match service.submit(x, query) {
                Err(ServeError::BadRequest(e)) => {
                    assert_eq!(e, checked, "{}: {name} through submit", backend.name())
                }
                other => panic!(
                    "{}: {name}: expected BadRequest, got {other:?}",
                    backend.name()
                ),
            }
        }
        assert_eq!(service.shutdown().served, 0);
    }
}

#[test]
fn plain_backends_refuse_the_pruned_tier_by_name() {
    let csr = collection();
    let query = Query {
        tier: QueryTier::Pruned {
            shortlist_factor: 2,
        },
        ..Query::new(5)
    };
    // `all_backends` lists the three plain backends first.
    for backend in all_backends().into_iter().take(3) {
        let prepared = backend.prepare(&csr).expect("prepare");
        let err = backend
            .answer(&prepared, &[query_vector(64, 1)], &query)
            .expect_err("a plain backend has no pruned tier");
        assert_eq!(
            err.to_string(),
            format!(
                "bad query: backend `{}` does not implement the pruned query tier",
                backend.name()
            )
        );
    }
}
