//! The one holder of the query path's allocation rule: once warm, a
//! query allocates nothing that grows with the stream or the
//! collection, and nothing that depends on which thread ran what. A
//! counting global allocator measures each path at run time:
//!
//! - the per-packet decode→accumulate→top-k loop on a warm
//!   [`BatchScratch`] (`tkspmv::engine`, `tkspmv_sparse::packet`), stage
//!   clock included, costs the same on 10x the packets at every batch
//!   shape, and a cold scratch sizes its buffers in a
//!   packet-count-independent number of allocations;
//! - a warm accelerator query (the engine's fan-out and per-thread
//!   scratch shelf) and a warm `CpuTopK` query on one thread or two
//!   allocate only per-call results;
//! - a compute-pool fan-out (`tkspmv::fanout`) costs the same whether a
//!   helper walked its ticket or the caller withdrew it;
//! - a warm fabric node query (`tkspmv_fabric::DeltaCollection`) keeps
//!   O(k) of its delta shard;
//! - the exact Top-K selection (`tkspmv::topk`) keeps O(k) memory, the
//!   prune pass's scoring loop, metric and span recording (`tkspmv_obs`)
//!   and a warm frame encode allocate nothing.
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
/// allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they request.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// The largest single request since the last reset.
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    LARGEST.fetch_max(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Allocation calls and bytes requested while running `f`, minimised
/// over a few trials so an unrelated one-off (e.g. lazy runtime init)
/// cannot inflate them.
fn allocations_and_bytes_during<R>(mut f: impl FnMut() -> R) -> (u64, u64) {
    let mut min = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        let before = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        std::hint::black_box(f());
        let after = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        min = min.min((after.0 - before.0, after.1 - before.1));
    }
    min
}

/// The largest single allocation request made while running `f` once.
fn largest_allocation_during<R>(f: impl FnOnce() -> R) -> u64 {
    LARGEST.store(0, Ordering::Relaxed);
    std::hint::black_box(f());
    LARGEST.load(Ordering::Relaxed)
}

/// Allocation calls made while running `f` (see
/// [`allocations_and_bytes_during`]).
fn allocations_during<R>(f: impl FnMut() -> R) -> u64 {
    allocations_and_bytes_during(f).0
}

/// The exact selector keeps O(k) memory: `TopKResult::merge_pairs` over
/// 100x the input pairs requests the same allocations, byte for byte —
/// one k-bounded heap, not a copy of the input.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn merge_pairs_memory_is_bounded_by_k_not_by_the_input() {
    use tkspmv::TopKResult;

    let select = |n: u32| {
        allocations_and_bytes_during(|| {
            let pairs = (0..n).map(|i| (i, f64::from(i.wrapping_mul(2_654_435_761) >> 8)));
            TopKResult::merge_pairs(pairs, 100).len()
        })
    };
    let (small, large) = (select(1_000), select(100_000));
    assert_eq!(
        small, large,
        "merge_pairs allocation (calls, bytes) grows with the input: {small:?} vs {large:?}"
    );
}

/// The observability recording path a request completion touches —
/// counter bump, latency histogram record, span-record layout and
/// span-ring write — must be allocation-free, or the metrics refactor
/// would smuggle allocations back onto the hot path it was built to
/// clean up.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn obs_recording_path_is_allocation_free() {
    use std::time::Duration;
    use tkspmv_obs::{Registry, SpanRing, Stage, Stages, TraceId};

    let registry = Registry::new();
    let counter = registry.counter("test_requests_total", "test");
    let hist = registry.histogram("test_latency_seconds", "test");
    let ring = SpanRing::new(64);
    let trace_id = TraceId::generate();
    let mut stages = Stages::default();
    stages.add(Stage::Queue, Duration::from_micros(100));
    stages.add(Stage::Score, Duration::from_micros(800));
    stages.add(Stage::Merge, Duration::from_micros(100));
    let total = Duration::from_micros(1_000);

    // Warm: the first records pin each thread's histogram stripe.
    counter.inc();
    hist.record(Duration::from_micros(250));
    ring.record(&stages.to_span_record(trace_id, total));

    // Laying the stages out as a span record is part of the measured
    // path: every served request and every traced node reply builds one.
    let allocs = allocations_during(|| {
        for i in 0..100u32 {
            counter.inc();
            hist.record(Duration::from_micros(u64::from(i) * 37 + 1));
            ring.record(&stages.to_span_record(trace_id, total));
        }
    });
    assert_eq!(
        allocs, 0,
        "metrics/span recording allocates on the completion path ({allocs} calls per 100 records)"
    );
}

/// Looking up a labelled series that already exists — as the service
/// does for its tier series on every batch — must not allocate: the
/// registry compares label pairs and renders a label set only when it
/// registers a new series.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn labelled_series_hit_is_allocation_free() {
    use std::time::Duration;
    use tkspmv_obs::Registry;

    let registry = Registry::new();
    let labels = [("tier", "exact"), ("outcome", "served")];
    // Register both series, and pin this thread's histogram stripe.
    registry
        .counter_with("test_tier_requests_total", "test", &labels)
        .inc();
    registry
        .histogram_with("test_tier_latency_seconds", "test", &labels[..1])
        .record(Duration::from_micros(250));

    let allocs = allocations_during(|| {
        for _ in 0..100 {
            registry
                .counter_with("test_tier_requests_total", "test", &labels)
                .inc();
            registry
                .histogram_with("test_tier_latency_seconds", "test", &labels[..1])
                .record(Duration::from_micros(250));
        }
    });
    assert_eq!(
        allocs, 0,
        "a labelled series hit allocates ({allocs} calls per 100 lookups)"
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

#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn warm_batch_scratch_is_allocation_free_across_packet_count_and_batch_size() {
    use tkspmv_obs::Stage;

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
    // up front — the transposed lane blocks at B = 32 included — so its
    // allocation count must not depend on the packet count (a
    // thread's first partition walk sizes its shelved scratch this
    // way: growth-by-push here would make that first call's cost
    // depend on the stream).
    let cold = |matrix: &BsCsr, b: usize| {
        allocations_during(|| {
            let mut fresh = BatchScratch::<Q1_19>::new();
            run_core_batch_with_scratch(matrix, &queries[..b], k, faithful, &mut fresh).len()
        })
    };
    for b in [1, 32] {
        assert_eq!(
            cold(&small, b),
            cold(&large, b),
            "a cold B={b} call's allocation count depends on the packet count"
        );
    }

    // Warm on the large stream at the largest batch size, so lanes,
    // outputs and every chunk buffer are at final capacity.
    let mut scratch = BatchScratch::<Q1_19>::new();
    let warm = run_core_batch_with_scratch(&large, &queries, k, faithful, &mut scratch);
    assert_eq!(warm.len(), 32);
    assert_eq!(warm[0].stats.packets, large.num_packets() as u64);

    // Every (stream, B, fidelity) combination — B = 1 is the
    // single-query call, 8 one 8-lane block, 9 that block plus a lane,
    // 16 one 16-lane block, 17/24/25 that block plus a lane, an 8-lane
    // block, or both — must cost the same number of allocation calls on
    // the warm scratch: zero per packet AND zero per lane, with the
    // stage clock running. Batching amortises decode without touching
    // the heap.
    let mut counts = Vec::new();
    for matrix in [&small, &large] {
        for b in [1usize, 4, 8, 9, 16, 17, 24, 25, 32] {
            for fidelity in [faithful, Fidelity::Reference] {
                let allocs = allocations_during(|| {
                    run_core_batch_with_scratch(matrix, &queries[..b], k, fidelity, &mut scratch)
                        .len()
                });
                let stages = scratch.stage_times();
                assert!(
                    !stages.get(Stage::Decode).is_zero() && !stages.get(Stage::Score).is_zero(),
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

/// The resident compute pool keeps each participant's `BatchScratch`
/// across calls, so a warm accelerator `TopKBackend::query` (B = 1) and
/// `query_batch` (B = 32) allocate only per-call results: the same
/// calls and bytes on a stream with 10x the packets, and no single
/// request as large as a scratch buffer. At B = 1 the smallest
/// stream-sized buffers are one chunk's decoded values and column
/// indices; at B = 32 (whose results alone outgrow a chunk) it is the
/// transposed copy of the batch's lane blocks.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn warm_accelerator_query_allocates_no_scratch() {
    use tkspmv::backend::{PreparedMatrix, QueryBatch, TopKBackend};
    use tkspmv::Accelerator;

    let dim = 256;
    let collection = |rows: usize, seed: u64| {
        SyntheticConfig {
            num_rows: rows,
            num_cols: dim,
            avg_nnz_per_row: 20,
            distribution: NnzDistribution::table3_gamma(),
            seed,
        }
        .generate()
    };
    let acc = Accelerator::builder().cores(8).k(8).build().unwrap();
    let (layout, _) = acc.design_for(dim).unwrap();
    let value = std::mem::size_of::<Q1_19>();
    let chunk_values = BsCsr::CHUNK_PACKETS * layout.entries_per_packet() as usize * value;
    let small = acc.prepare(&collection(1_500, 3)).unwrap();
    let large = acc.prepare(&collection(20_000, 4)).unwrap();
    let batch = QueryBatch::random(32, dim, 11);
    let x = query_vector(dim, 5);
    let k = 50;

    // Warm every participant's shelf at the largest batch on the large
    // stream, a few times over so each participant walks partitions.
    for _ in 0..20 {
        acc.query_batch(&large, &batch, k).unwrap();
        acc.query(&large, &x, k).unwrap();
    }

    let b1 = |m: &PreparedMatrix| acc.query(m, &x, k).unwrap().topk.len();
    let b32 = |m: &PreparedMatrix| acc.query_batch(m, &batch, k).unwrap().len();
    let check = |b: usize, run: &dyn Fn(&PreparedMatrix) -> usize, scratch_sized: usize| {
        let (small_calls, large_calls) = (
            allocations_and_bytes_during(|| run(&small)),
            allocations_and_bytes_during(|| run(&large)),
        );
        assert_eq!(
            small_calls, large_calls,
            "a warm B={b} query's allocation (calls, bytes) depends on the packet count"
        );
        let largest = (0..3)
            .map(|_| largest_allocation_during(|| run(&large)))
            .min()
            .unwrap();
        assert!(
            largest < scratch_sized as u64,
            "a warm B={b} query requests {largest} B at once, as much as a \
             {scratch_sized} B scratch buffer"
        );
    };
    check(1, &b1, chunk_values);
    check(32, &b32, dim * 32 * value);
}

/// `CpuTopK`, the exact scorer of every fabric node, keeps no per-query
/// buffer that grows with the collection: a warm query on one thread,
/// and on two (one fan-out over the compute pool), costs the same calls
/// and bytes on 1,500 rows as on 20,000.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn warm_cpu_query_allocates_nothing_that_grows_with_the_collection() {
    use tkspmv::backend::{PreparedMatrix, TopKBackend};
    use tkspmv_baselines::cpu::CpuTopK;

    let x = query_vector(1024, 9);
    let k = 50;
    for threads in [1, 2] {
        let cpu = CpuTopK::new(threads);
        let small = cpu.prepare(&synthetic(1_500, 3)).unwrap();
        let large = cpu.prepare(&synthetic(20_000, 4)).unwrap();
        for _ in 0..5 {
            cpu.query(&large, &x, k).unwrap();
        }
        let run = |m: &PreparedMatrix| {
            allocations_and_bytes_during(|| cpu.query(m, &x, k).unwrap().topk.len())
        };
        let (small_calls, large_calls) = (run(&small), run(&large));
        assert_eq!(
            small_calls, large_calls,
            "a warm CpuTopK::new({threads}) query's allocation (calls, bytes) depends on the \
             collection size"
        );
    }
}

/// A fabric node's query keeps O(k) of its delta shard: the largest
/// single allocation of a warm `DeltaCollection::query` is the same
/// with 64 delta rows as with 4,096, so neither the delta's scores nor
/// the final merge are copied whole.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn a_node_query_allocates_nothing_that_grows_with_the_delta() {
    use std::sync::Arc;
    use tkspmv::backend::Query;
    use tkspmv_baselines::cpu::CpuTopK;
    use tkspmv_fabric::DeltaCollection;
    use tkspmv_serve::{BatchPolicy, TopKService};

    let base = synthetic(1_500, 3);
    let extra = synthetic(4_096, 4);
    let x = query_vector(1024, 9);
    let query = Query::new(50);
    let largest = |delta_rows: usize| {
        let service = TopKService::builder(Arc::new(CpuTopK::new(1)))
            .shards(1)
            .batch_policy(BatchPolicy::immediate())
            .build(&base)
            .unwrap();
        let node = DeltaCollection::new(service, base.clone(), 0);
        let rows: Vec<_> = (0..delta_rows)
            .map(|r| extra.row(r).unzip::<u32, f32, Vec<_>, Vec<_>>())
            .collect();
        node.append(&rows).unwrap();
        let run = || node.query(x.clone(), &query).unwrap().0.len();
        for _ in 0..5 {
            run();
        }
        (0..3)
            .map(|_| largest_allocation_during(run))
            .min()
            .unwrap()
    };
    let (small, large) = (largest(64), largest(4_096));
    assert_eq!(
        small, large,
        "a warm node query's largest allocation grows with the delta: {small} B with 64 rows, \
         {large} B with 4,096"
    );
}

/// A compute-pool fan-out allocates the same whether a helper walked its
/// ticket or the caller withdrew it, so no count above depends on how a
/// call's claims fell. Both shapes are forced, without sleeps: the
/// ticket is withdrawn while another fan-out holds every helper, and it
/// is walked when task 0 waits until task 1 has started, which only a
/// second participant can do. A one-CPU host has no helper, so no
/// ticket to withdraw or walk.
#[test]
#[ignore = "global-allocator accounting; run explicitly (CI does) with --ignored"]
fn a_fan_out_allocates_the_same_whether_its_ticket_is_withdrawn_or_walked() {
    use std::sync::{Arc, Condvar, Mutex};
    use tkspmv::fanout::{fork_join, host_parallelism};

    let host = host_parallelism();
    if host == 1 {
        eprintln!("skipped: one CPU, so the compute pool has no helper");
        return;
    }

    /// How many tasks have started, and whether they may finish.
    #[derive(Default)]
    struct Gate {
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }
    impl Gate {
        fn update(&self, f: impl FnOnce(&mut (usize, bool))) {
            f(&mut self.state.lock().unwrap());
            self.changed.notify_all();
        }
        fn wait_until(&self, done: impl Fn(&(usize, bool)) -> bool) {
            let state = self.state.lock().unwrap();
            drop(self.changed.wait_while(state, |s| !done(s)).unwrap());
        }
    }

    // Two tasks on two participants; with `pair`, task 0 waits until
    // task 1 has started. One closure type for both shapes, so the two
    // jobs are the same size.
    let gate = Arc::new(Gate::default());
    let fan_out = |pair: bool| {
        gate.update(|s| *s = (0, false));
        let gate = Arc::clone(&gate);
        fork_join(
            2,
            2,
            || (),
            move |(), task| {
                if task == 1 {
                    gate.update(|s| s.0 += 1);
                } else if pair {
                    gate.wait_until(|s| s.0 == 1);
                }
                task
            },
        )
        .0
        .len()
    };
    fan_out(true);

    // Every participant of this fan-out blocks in its first task, so
    // once `host` tasks have started, every helper is inside one.
    let blocker_gate = Arc::new(Gate::default());
    let blocker = {
        let gate = Arc::clone(&blocker_gate);
        std::thread::spawn(move || {
            fork_join(
                host,
                host,
                || (),
                move |(), _| {
                    gate.update(|s| s.0 += 1);
                    gate.wait_until(|s| s.1);
                },
            )
            .0
            .len()
        })
    };
    blocker_gate.wait_until(|s| s.0 == host);
    let withdrawn = allocations_and_bytes_during(|| fan_out(false));
    blocker_gate.update(|s| s.1 = true);
    assert_eq!(blocker.join().unwrap(), host);

    let walked = allocations_and_bytes_during(|| fan_out(true));
    assert_eq!(
        withdrawn, walked,
        "a fan-out's allocation (calls, bytes) depends on whether a helper took its ticket"
    );
}
