//! Counting-allocator proof that the packet hot path is zero-allocation
//! in steady state: streaming a matrix with 10x the packets through a
//! warm [`BatchScratch`] must cost exactly the same number of heap
//! allocations, i.e. the per-packet decode→accumulate→top-k loop —
//! stage clock included — never touches the allocator; and a cold
//! scratch sizes its buffers in a packet-count-independent number of
//! allocations.
//!
//! Ignored by default because the `#[global_allocator]` swap is global
//! to this test binary (which is why the test lives alone in it); CI
//! runs it explicitly with `cargo test --release --test zero_alloc --
//! --ignored --test-threads=1` (one thread: the counter is shared by
//! every test in the binary).

// The one sanctioned unsafe block in the workspace: implementing
// `GlobalAlloc` for the counting allocator requires it. Library code
// stays under `unsafe_code = "forbid"` via the workspace lint table.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tkspmv::{quantize_vector, run_core_batch_with_scratch, BatchScratch, Fidelity};
use tkspmv_fixed::Q1_19;
use tkspmv_sparse::gen::{query_vector, NnzDistribution, SyntheticConfig};
use tkspmv_sparse::{BsCsr, Csr, PacketLayout};

/// Passes every request through to the system allocator, counting
/// allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn synthetic(rows: usize, seed: u64) -> Csr {
    SyntheticConfig {
        num_rows: rows,
        num_cols: 1024,
        avg_nnz_per_row: 20,
        distribution: NnzDistribution::table3_gamma(),
        seed,
    }
    .generate()
}

/// Allocation calls made while running `f`, minimised over a few trials
/// so an unrelated one-off (e.g. lazy runtime init) cannot inflate it.
fn allocations_during<R>(mut f: impl FnMut() -> R) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        std::hint::black_box(f());
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        min = min.min(after - before);
    }
    min
}

/// The observability recording path a request completion touches —
/// counter bump, latency histogram record, span-ring write — must be
/// allocation-free, or the metrics refactor would smuggle allocations
/// back onto the hot path it was built to clean up.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn obs_recording_path_is_allocation_free() {
    use std::time::Duration;
    use tkspmv_obs::{Registry, SpanRecord, SpanRing, Stage, TraceId};

    let registry = Registry::new();
    let counter = registry.counter("test_requests_total", "test");
    let hist = registry.histogram("test_latency_seconds", "test");
    let ring = SpanRing::new(64);
    let mut rec = SpanRecord::new(TraceId::generate(), 1_000);
    rec.push(Stage::Queue, 0, 100);
    rec.push(Stage::Score, 100, 800);
    rec.push(Stage::Merge, 900, 100);

    // Warm: the first records pin each thread's histogram stripe.
    counter.inc();
    hist.record(Duration::from_micros(250));
    ring.record(&rec);

    let allocs = allocations_during(|| {
        for i in 0..100u32 {
            counter.inc();
            hist.record(Duration::from_micros(u64::from(i) * 37 + 1));
            ring.record(&rec);
        }
    });
    assert_eq!(
        allocs, 0,
        "metrics/span recording allocates on the completion path ({allocs} calls per 100 records)"
    );
}

/// The prune pass's warm scoring loop must be allocation-free: scoring
/// 10x the rows through [`tkspmv_sparse::PruneIndex::score_rows`] into a
/// caller-owned output slice must cost exactly zero allocation calls.
/// (This caught a real bug: `score_rows` used to build a saturated copy
/// of the query per call.)
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn prune_scoring_loop_is_allocation_free() {
    use tkspmv_fixed::PruneBits;
    use tkspmv_sparse::PruneIndex;

    let small = synthetic(1_500, 3);
    let large = synthetic(20_000, 4);
    let small_idx = PruneIndex::build(&small, PruneBits::Eight).unwrap();
    let large_idx = PruneIndex::build(&large, PruneBits::Eight).unwrap();
    let q = small_idx.quantize_query(query_vector(1024, 9).as_slice());
    let mut small_out = vec![0u64; small.num_rows()];
    let mut large_out = vec![0u64; large.num_rows()];

    // Warm once (nothing to warm — score_rows owns no scratch — but
    // keep the measurement shape identical to the other tests).
    small_idx.score_rows(0, &q, &mut small_out);

    let small_allocs = allocations_during(|| small_idx.score_rows(0, &q, &mut small_out));
    let large_allocs = allocations_during(|| large_idx.score_rows(0, &q, &mut large_out));
    assert_eq!(
        (small_allocs, large_allocs),
        (0, 0),
        "prune scoring allocates ({small_allocs} / {large_allocs} calls)"
    );
}

/// A warm connection's frame encode path must reuse its buffer:
/// encoding a response-sized frame into an already-sized `Vec` via
/// [`tkspmv_fabric::wire::encode_frame_into`] costs zero allocations.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn wire_frame_encode_reuse_is_allocation_free() {
    use tkspmv_fabric::wire::{encode_frame_into, FrameKind};
    use tkspmv_fabric::WIRE_VERSION;

    let body = vec![0xa5u8; 4096];
    let mut buf = Vec::new();
    // Warm: the first encode sizes the buffer.
    encode_frame_into(&mut buf, WIRE_VERSION, FrameKind::TopK, &body);

    let allocs = allocations_during(|| {
        for _ in 0..100 {
            encode_frame_into(&mut buf, WIRE_VERSION, FrameKind::TopK, &body);
        }
        buf.len()
    });
    assert_eq!(
        allocs, 0,
        "warm frame encode allocates ({allocs} calls per 100 frames)"
    );
}

/// The modules these allocation proofs exercise must be declared hot in
/// `crates/check/hot_paths.txt`, so the static lint
/// (`cargo run -p tkspmv_check -- --alloc`) holds the same line on
/// every path the counting allocator can only spot-check.
#[test]
fn exercised_modules_are_declared_hot() {
    let listing = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../crates/check/hot_paths.txt"
    ))
    .expect("hot-path listing exists");
    for module in [
        "crates/core/src/engine/core_model.rs",
        "crates/core/src/topk.rs",
        "crates/sparse/src/packet.rs",
        "crates/sparse/src/prune.rs",
        "crates/obs/src/metrics.rs",
        "crates/obs/src/trace.rs",
    ] {
        assert!(
            listing.lines().any(|l| l.trim() == module),
            "{module} is exercised by tests/zero_alloc.rs but not declared \
             hot in crates/check/hot_paths.txt"
        );
    }
}

#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn warm_batch_scratch_is_allocation_free_across_packet_count_and_batch_size() {
    let layout = PacketLayout::solve(1024, 20).unwrap();
    let small = BsCsr::encode::<Q1_19>(&synthetic(1_500, 3), layout);
    let large = BsCsr::encode::<Q1_19>(&synthetic(20_000, 4), layout);
    assert!(
        large.num_packets() >= 10 * small.num_packets(),
        "need a 10x packet-count spread ({} vs {})",
        large.num_packets(),
        small.num_packets()
    );
    let queries: Vec<Vec<Q1_19>> = (0..32)
        .map(|seed| quantize_vector::<Q1_19>(query_vector(1024, seed).as_slice()))
        .collect();
    let k = 8;
    let faithful = Fidelity::Faithful { rows_per_packet: 2 };

    // Cold: a first call through a fresh scratch sizes each buffer once
    // up front, so its allocation count must not depend on the packet
    // count (`run_multicore` builds a fresh scratch per participant per
    // query: growth-by-push here would be a per-query cost).
    let cold = |matrix: &BsCsr| {
        allocations_during(|| {
            let mut fresh = BatchScratch::<Q1_19>::new();
            run_core_batch_with_scratch(matrix, &queries[..1], k, faithful, &mut fresh).len()
        })
    };
    assert_eq!(
        cold(&small),
        cold(&large),
        "a cold call's allocation count depends on the packet count"
    );

    // Warm on the large stream at the largest batch size, so lanes,
    // outputs and every chunk buffer are at final capacity.
    let mut scratch = BatchScratch::<Q1_19>::new();
    let warm = run_core_batch_with_scratch(&large, &queries, k, faithful, &mut scratch);
    assert_eq!(warm.len(), 32);
    assert_eq!(warm[0].stats.packets, large.num_packets() as u64);

    // Every (stream, B, fidelity) combination — the single-query call
    // is B = 1 — must cost the same number of allocation calls on the
    // warm scratch: zero per packet AND zero per lane, with the stage
    // clock running. Batching amortises decode without touching the
    // heap.
    let mut counts = Vec::new();
    for matrix in [&small, &large] {
        for b in [1usize, 4, 32] {
            for fidelity in [faithful, Fidelity::Reference] {
                let allocs = allocations_during(|| {
                    run_core_batch_with_scratch(matrix, &queries[..b], k, fidelity, &mut scratch)
                        .len()
                });
                let stages = scratch.stage_times();
                assert!(
                    !stages.decode.is_zero() && !stages.score.is_zero(),
                    "{stages:?}"
                );
                counts.push((matrix.num_packets(), b, allocs));
            }
        }
    }
    let baseline = counts[0].2;
    for &(packets, b, allocs) in &counts {
        assert_eq!(
            allocs, baseline,
            "allocation count depends on stream/batch shape \
             ({packets} packets, B={b}: {allocs} vs {baseline})"
        );
    }
    assert!(
        baseline <= 2,
        "warm batch pass unexpectedly allocates: {baseline} calls"
    );
}
