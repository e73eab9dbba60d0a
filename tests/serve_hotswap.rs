//! Zero-downtime collection hot swap under live traffic.
//!
//! The serving guarantee under test: `TopKService::swap_collection`
//! loses no admitted request, answers every request from exactly one
//! collection epoch (never a mix), and serves every post-swap admission
//! from the new collection — all without restarting the service: each
//! batch runs against the epoch its requests were admitted to.
//!
//! The two collections are built with **disjoint live row spaces** so a
//! response's row ids prove which epoch answered it: collection A only
//! scores rows `0..OLD_ROWS`, collection B leaves those rows empty and
//! only scores `OLD_ROWS..NEW_ROWS`. With an all-positive query, B's
//! live rows always outrank its empty ones, so any answer mixing the
//! two spaces (or serving old rows after the swap) is a bug.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tkspmv::backend::{MatrixShard, PreparedMatrix, TopKBackend};
use tkspmv_baselines::cpu::CpuTopK;
use tkspmv_serve::{BatchPolicy, TopKService};
use tkspmv_sparse::{Csr, DenseVector};

const DIM: usize = 64;
const OLD_ROWS: usize = 60;
const NEW_ROWS: usize = 140;
const CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 40;

/// Collection A: rows `0..OLD_ROWS`, all live.
fn collection_a() -> Csr {
    let triplets: Vec<(u32, u32, f32)> = (0..OLD_ROWS as u32)
        .map(|r| (r, r % DIM as u32, 0.5 + (r % 7) as f32 / 100.0))
        .collect();
    Csr::from_triplets(OLD_ROWS, DIM, &triplets).expect("collection A builds")
}

/// Collection B: rows `0..OLD_ROWS` empty, `OLD_ROWS..NEW_ROWS` live.
fn collection_b() -> Csr {
    let triplets: Vec<(u32, u32, f32)> = (OLD_ROWS as u32..NEW_ROWS as u32)
        .map(|r| (r, r % DIM as u32, 0.5 + (r % 5) as f32 / 100.0))
        .collect();
    Csr::from_triplets(NEW_ROWS, DIM, &triplets).expect("collection B builds")
}

/// Which epoch a response's row ids prove it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AnsweredBy {
    Old,
    New,
}

fn classify(indices: &[u32]) -> AnsweredBy {
    let old = indices.iter().all(|&r| (r as usize) < OLD_ROWS);
    let new = indices
        .iter()
        .all(|&r| (OLD_ROWS..NEW_ROWS).contains(&(r as usize)));
    assert!(
        old ^ new,
        "answer mixes collection epochs (or is empty): {indices:?}"
    );
    if old {
        AnsweredBy::Old
    } else {
        AnsweredBy::New
    }
}

#[test]
fn hot_swap_under_concurrent_soak_is_atomic_and_lossless() {
    let service = TopKService::builder(Arc::new(CpuTopK::new(2)))
        .shards(3)
        .batch_policy(BatchPolicy::coalescing(8, Duration::from_micros(500)))
        .build(&collection_a())
        .expect("service builds");
    assert_eq!(service.epoch(), 0);
    assert_eq!(service.num_rows(), OLD_ROWS);

    let swapped = AtomicBool::new(false);
    let x = DenseVector::from_values(vec![1.0; DIM]);

    std::thread::scope(|scope| {
        let service = &service;
        let swapped = &swapped;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let x = x.clone();
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(QUERIES_PER_CLIENT);
                    for _ in 0..QUERIES_PER_CLIENT {
                        // Read the flag before submitting: a submission
                        // that starts after the swap returned must be
                        // answered by the new collection.
                        let after_swap = swapped.load(Ordering::SeqCst);
                        let served = service
                            .query(x.clone(), 5)
                            .expect("no admitted request may be lost across the swap");
                        let by = classify(&served.topk.indices());
                        outcomes.push((after_swap, by));
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    outcomes
                })
            })
            .collect();

        // Let the soak reach steady state, then swap mid-flight.
        std::thread::sleep(Duration::from_millis(8));
        let new_epoch = service
            .swap_collection(&collection_b())
            .expect("swap succeeds under load");
        assert_eq!(new_epoch, 1);
        swapped.store(true, Ordering::SeqCst);

        let mut saw_old = 0u64;
        let mut saw_new = 0u64;
        for handle in handles {
            for (after_swap, by) in handle.join().expect("client thread") {
                match by {
                    AnsweredBy::Old => saw_old += 1,
                    AnsweredBy::New => saw_new += 1,
                }
                if after_swap {
                    assert_eq!(
                        by,
                        AnsweredBy::New,
                        "a post-swap admission was answered from the old collection"
                    );
                }
            }
        }
        // The soak straddled the swap: both epochs served real traffic.
        assert!(saw_old > 0, "swap landed before any old-epoch answer");
        assert!(saw_new > 0, "no query ever saw the new collection");
    });

    assert_eq!(service.epoch(), 1);
    assert_eq!(service.num_rows(), NEW_ROWS);
    let metrics = service.shutdown();
    assert_eq!(
        metrics.served,
        (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "every admitted request answered"
    );
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.shed, 0);
    assert_eq!(metrics.swaps, 1);
    assert_eq!(metrics.epoch, 1);
}

#[test]
fn snapshot_cold_start_and_snapshot_swap() {
    // Cold start: prepare collection A's shards once, persist each, and
    // assemble the service purely from loaded snapshots.
    let backend: Arc<dyn TopKBackend> = Arc::new(CpuTopK::new(2));
    let a = collection_a();
    const SHARDS: usize = 2;

    let saved: Vec<(usize, Vec<u8>)> =
        PreparedMatrix::prepare_row_shards(backend.as_ref(), &a, SHARDS)
            .expect("prepare shards")
            .into_iter()
            .map(|shard| {
                let mut buf = Vec::new();
                shard
                    .matrix()
                    .save(backend.as_ref(), &mut buf)
                    .expect("shard saves");
                (shard.start_row(), buf)
            })
            .collect();

    let loaded: Vec<MatrixShard> = saved
        .iter()
        .map(|(start_row, bytes)| {
            let matrix = PreparedMatrix::load(backend.as_ref(), bytes.as_slice())
                .expect("shard snapshot loads");
            MatrixShard::new(*start_row, matrix)
        })
        .collect();

    let service = TopKService::builder(Arc::clone(&backend))
        .batch_policy(BatchPolicy::immediate())
        .build_from_shards(loaded)
        .expect("service cold-starts from snapshots");
    assert_eq!(service.num_shards(), SHARDS);
    assert_eq!(service.num_rows(), OLD_ROWS);

    // Served answers equal the direct unsharded reference.
    let x = DenseVector::from_values(vec![1.0; DIM]);
    let direct = {
        let prepared = backend.prepare(&a).expect("prepare");
        backend.query(&prepared, &x, 5).expect("direct query").topk
    };
    let served = service.query(x.clone(), 5).expect("served");
    assert_eq!(served.topk, direct);

    // Rolling update, also through snapshots: persist B's shards, load,
    // swap. New admissions land in B's row space.
    let b = collection_b();
    let new_shards: Vec<MatrixShard> =
        PreparedMatrix::prepare_row_shards(backend.as_ref(), &b, SHARDS)
            .expect("prepare B shards")
            .into_iter()
            .map(|shard| {
                let mut buf = Vec::new();
                shard
                    .matrix()
                    .save(backend.as_ref(), &mut buf)
                    .expect("B shard saves");
                let matrix =
                    PreparedMatrix::load(backend.as_ref(), buf.as_slice()).expect("B shard loads");
                MatrixShard::new(shard.start_row(), matrix)
            })
            .collect();
    assert_eq!(service.swap_shards(new_shards).expect("swap"), 1);
    let after = service.query(x, 5).expect("served after swap");
    assert_eq!(classify(&after.topk.indices()), AnsweredBy::New);
    let metrics = service.shutdown();
    assert_eq!(metrics.swaps, 1);
    assert_eq!(metrics.served, 2);
}
