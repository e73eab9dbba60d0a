//! Service observability: latency percentiles, per-stage time
//! attribution, batch-size shape, throughput and shedding counters.
//!
//! Built on `tkspmv_obs` primitives: counters are atomics and latency
//! percentiles come from fixed log-bucket histograms, so the request
//! completion path records without taking the metrics lock and
//! [`MetricsShared::snapshot`] does O(buckets) work — the old design
//! cloned and sorted a 65 536-sample reservoir *under the metrics
//! mutex* on every snapshot, stalling request completions, and its
//! percentiles silently aged out under sustained load. The only mutex
//! left guards the small batch-size vectors and the tier-slot list,
//! both O(1)-ish per touch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tkspmv_obs::{
    Counter, Gauge, Histogram, Registry, SpanRecord, SpanRing, Stage, Stages, TraceId,
};

/// Completed queries whose stage spans are kept for the slowest-N
/// trace view (a preallocated ring; recording is a slot memcpy).
const SPAN_RING_CAPACITY: usize = 512;

/// Per-precision-tier serving statistics, one entry per tier observed.
///
/// Tiers are identified by their label (`exact`, `pruned-c4`, ...), so a
/// service that mixes shortlist factors reports each separately.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TierMetrics {
    /// The tier label (`QueryTier::label`).
    pub tier: String,
    /// Requests answered successfully at this tier.
    pub served: u64,
    /// Requests that failed at this tier.
    pub failed: u64,
    /// Median end-to-end latency at this tier.
    pub latency_p50: Duration,
    /// 95th-percentile end-to-end latency at this tier.
    pub latency_p95: Duration,
    /// 99th-percentile end-to-end latency at this tier.
    pub latency_p99: Duration,
}

/// Where one answered request spent its time, stage by stage.
///
/// `queue`, `coalesce`, `engine` and `merge` are exact wall intervals
/// measured on the serving path. `engine_stages` subdivides the engine
/// interval: it is the [`Stages`] the backend call that answered this
/// request measured and returned with its result (from the slowest
/// shard), so it is exact per request however many batches run
/// concurrently, and never exceeds `engine`. For a batched request,
/// `engine` is the whole batch's engine wall time (the request really
/// was in the engine that long), and so is the accelerator's
/// decode/score split. [`StageBreakdown::stages`] puts all of it in one
/// [`Stages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StageBreakdown {
    /// Submission-queue wait: admission until the batcher took it,
    /// including any time the batcher spent running earlier batches.
    pub queue: Duration,
    /// Batcher coalescing: taken until the batch dispatched.
    pub coalesce: Duration,
    /// Engine wall time for the batch: the slowest shard's backend
    /// call, since a batch runs its shards concurrently.
    pub engine: Duration,
    /// The backend's own split of `engine` (decode/score on the exact
    /// path, prune/rescore on the staged one).
    pub engine_stages: Stages,
    /// Cross-shard top-k merge for this request.
    pub merge: Duration,
}

impl StageBreakdown {
    /// The request's time per stage, covering the engine interval
    /// exactly: whatever part of `engine` the backend attributed to no
    /// stage (all of it, for backends that report none) counts as
    /// [`Stage::Score`].
    pub fn stages(&self) -> Stages {
        let mut stages = self.engine_stages;
        let remainder = self.engine.saturating_sub(stages.total());
        stages.add(Stage::Queue, self.queue);
        stages.add(Stage::Coalesce, self.coalesce);
        stages.add(Stage::Score, remainder);
        stages.add(Stage::Merge, self.merge);
        stages
    }
}

/// Aggregate view of one pipeline stage across all completed requests.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StageStat {
    /// The stage ([`Stage::name`] is its label).
    pub stage: Stage,
    /// Requests that recorded a non-zero duration for this stage.
    pub count: u64,
    /// Sum of the stage's durations across those requests.
    pub total: Duration,
    /// Mean stage duration.
    pub mean: Duration,
    /// 95th-percentile stage duration.
    pub p95: Duration,
}

/// A point-in-time snapshot of a service's behaviour since start-up.
///
/// Taken with `TopKService::metrics` (cheap: O(histogram buckets), no
/// sample sort, no long-held lock) and returned by
/// `TopKService::shutdown` as the final account.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServiceMetrics {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests that entered the queue but came back with an error
    /// (engine failure, backend panic).
    pub failed: u64,
    /// Requests shed at submission because the queue was full.
    pub shed: u64,
    /// Backend batches dispatched.
    pub batches: u64,
    /// Total time spent inside the backend's batch call, summed across
    /// shards and batches. End-to-end latency hides this behind queue
    /// wait; this field isolates the engine's share.
    pub engine_time_total: Duration,
    /// Mean backend time per dispatched batch.
    pub mean_engine_time_per_batch: Duration,
    /// `(batch_size, mean_engine_time)` for every batch size observed,
    /// ascending — aligned with `batch_size_histogram`. This is the
    /// batch-amortisation curve: with a matrix-major engine the mean
    /// grows far slower than linearly in the batch size.
    pub engine_time_by_size: Vec<(usize, Duration)>,
    /// Median end-to-end latency (submission to response). Histogram
    /// percentiles: quantised to the containing log-bucket's upper
    /// bound (relative error ≤ 1/16), never aged out.
    pub latency_p50: Duration,
    /// 95th-percentile end-to-end latency.
    pub latency_p95: Duration,
    /// 99th-percentile end-to-end latency.
    pub latency_p99: Duration,
    /// Mean queries per dispatched batch.
    pub mean_batch_size: f64,
    /// `(batch_size, count)` pairs for every batch size observed, in
    /// ascending size order.
    pub batch_size_histogram: Vec<(usize, u64)>,
    /// Served requests per second of service uptime.
    pub throughput_qps: f64,
    /// Time since the service started.
    pub uptime: Duration,
    /// Collection epoch currently being served (0 until the first
    /// hot swap; each `TopKService::swap_collection` increments it).
    pub epoch: u64,
    /// Hot swaps performed since start-up.
    pub swaps: u64,
    /// Times the batcher thread has woken up (seeded a batch or returned
    /// from a condvar wait). Bounded by a small multiple of the request
    /// count — the regression guard against the batcher busy-spinning
    /// (e.g. under a zero `max_wait` policy).
    pub batcher_wakeups: u64,
    /// Per-precision-tier counts and latency percentiles, sorted by tier
    /// label. Empty until the first request completes.
    pub tiers: Vec<TierMetrics>,
    /// Per-stage time attribution across completed requests, pipeline
    /// order, non-zero stages only. The per-stage breakdown table the
    /// serve/fabric benches print comes from here.
    pub stages: Vec<StageStat>,
}

/// One tier's cached metric handles (so recording a request touches
/// the tier mutex only for a short label scan, not the registry).
struct TierSlot {
    label: String,
    served: Arc<Counter>,
    failed: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// Batch-shape vectors: tiny, O(1) per record, still mutex-guarded —
/// but never sorted and never scanned while holding any lock a
/// completion path waits on for long.
#[derive(Default)]
struct BatchShape {
    /// `batch_hist[s]` = batches dispatched holding exactly `s` queries.
    batch_hist: Vec<u64>,
    /// `engine_us_by_size[s]` = total backend µs spent on batches of
    /// exactly `s` queries (parallel to `batch_hist`).
    engine_us_by_size: Vec<u64>,
}

/// The service's metric state. Recording served/failed/shed and
/// latencies is lock-free (atomics + striped histograms); only the
/// batch-shape vectors and the tier-slot list take a short mutex.
pub(crate) struct MetricsShared {
    started: Instant,
    registry: Registry,
    served: Arc<Counter>,
    failed: Arc<Counter>,
    shed: Arc<Counter>,
    batches: Arc<Counter>,
    engine_us_total: Arc<Counter>,
    swaps: Arc<Counter>,
    epoch: Arc<Gauge>,
    wakeups_gauge: Arc<Gauge>,
    latency: Arc<Histogram>,
    /// One histogram per stage, in [`Stage::ALL`] order.
    stage_hists: [Arc<Histogram>; Stage::COUNT],
    spans: SpanRing,
    batch_shape: Mutex<BatchShape>,
    tiers: Mutex<Vec<TierSlot>>,
    /// Current epoch id mirrored for the snapshot (gauge is i64).
    epoch_raw: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsShared {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let served = registry.counter_with(
            "tkspmv_serve_requests_total",
            "Requests by outcome.",
            &[("outcome", "served")],
        );
        let failed = registry.counter_with(
            "tkspmv_serve_requests_total",
            "Requests by outcome.",
            &[("outcome", "failed")],
        );
        let shed = registry.counter_with(
            "tkspmv_serve_requests_total",
            "Requests by outcome.",
            &[("outcome", "shed")],
        );
        let batches = registry.counter("tkspmv_serve_batches_total", "Backend batches dispatched.");
        let engine_us_total = registry.counter(
            "tkspmv_serve_engine_microseconds_total",
            "Backend batch-call time summed across shards and batches.",
        );
        let swaps = registry.counter("tkspmv_serve_swaps_total", "Collection hot swaps.");
        let epoch = registry.gauge("tkspmv_serve_epoch", "Collection epoch being served.");
        let wakeups_gauge = registry.gauge(
            "tkspmv_serve_batcher_wakeups",
            "Batcher thread wake-ups since start-up.",
        );
        let latency = registry.histogram(
            "tkspmv_serve_latency_seconds",
            "End-to-end request latency (admission to response).",
        );
        let stage_hists = Stage::ALL.map(|s| {
            registry.histogram_with(
                "tkspmv_serve_stage_seconds",
                "Per-request stage durations.",
                &[("stage", s.name())],
            )
        });
        Self {
            started: Instant::now(),
            registry,
            served,
            failed,
            shed,
            batches,
            engine_us_total,
            swaps,
            epoch,
            wakeups_gauge,
            latency,
            stage_hists,
            spans: SpanRing::new(SPAN_RING_CAPACITY),
            batch_shape: Mutex::new(BatchShape::default()),
            tiers: Mutex::new(Vec::new()),
            epoch_raw: AtomicU64::new(0),
        }
    }

    /// Cached per-tier handles (get-or-create; a handful of tiers at
    /// most, so a linear label scan beats map overhead).
    fn tier_slot(&self, label: &str) -> (Arc<Counter>, Arc<Counter>, Arc<Histogram>) {
        let mut tiers = lock(&self.tiers);
        if let Some(t) = tiers.iter().find(|t| t.label == label) {
            return (
                Arc::clone(&t.served),
                Arc::clone(&t.failed),
                Arc::clone(&t.latency),
            );
        }
        let slot = TierSlot {
            label: label.to_string(),
            served: self.registry.counter_with(
                "tkspmv_serve_tier_requests_total",
                "Requests by tier and outcome.",
                &[("tier", label), ("outcome", "served")],
            ),
            failed: self.registry.counter_with(
                "tkspmv_serve_tier_requests_total",
                "Requests by tier and outcome.",
                &[("tier", label), ("outcome", "failed")],
            ),
            latency: self.registry.histogram_with(
                "tkspmv_serve_tier_latency_seconds",
                "End-to-end latency by tier.",
                &[("tier", label)],
            ),
        };
        let out = (
            Arc::clone(&slot.served),
            Arc::clone(&slot.failed),
            Arc::clone(&slot.latency),
        );
        tiers.push(slot);
        out
    }

    pub(crate) fn record_served(&self, latency: Duration, tier: &str) {
        self.served.inc();
        self.latency.record(latency);
        let (served, _, tier_latency) = self.tier_slot(tier);
        served.inc();
        tier_latency.record(latency);
    }

    pub(crate) fn record_failed(&self, requests: u64, tier: &str) {
        self.failed.add(requests);
        let (_, failed, _) = self.tier_slot(tier);
        failed.add(requests);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.inc();
    }

    pub(crate) fn record_batch(&self, size: usize, engine_time: Duration) {
        self.batches.inc();
        let us = u64::try_from(engine_time.as_micros()).unwrap_or(u64::MAX);
        self.engine_us_total.add(us);
        let mut shape = lock(&self.batch_shape);
        if shape.batch_hist.len() <= size {
            shape.batch_hist.resize(size + 1, 0);
            shape.engine_us_by_size.resize(size + 1, 0);
        }
        shape.batch_hist[size] += 1;
        shape.engine_us_by_size[size] = shape.engine_us_by_size[size].saturating_add(us);
    }

    pub(crate) fn record_swap(&self, new_epoch: u64) {
        self.swaps.inc();
        // ordering: reporting-only copy of the epoch; the authoritative
        // value is published under the epoch mutex in service.rs.
        self.epoch_raw.store(new_epoch, Ordering::Relaxed);
        self.epoch.set(i64::try_from(new_epoch).unwrap_or(i64::MAX));
    }

    /// Records one completed request's stages: per-stage histograms
    /// plus a slot in the slowest-N span ring.
    pub(crate) fn record_stages(&self, stages: &Stages, total: Duration, trace_id: TraceId) {
        for (hist, (_, d)) in self.stage_hists.iter().zip(stages.iter()) {
            if !d.is_zero() {
                hist.record(d);
            }
        }
        self.spans.record(&stages.to_span_record(trace_id, total));
    }

    /// The slowest-`n` recorded queries' span records, descending by
    /// end-to-end latency.
    pub(crate) fn slowest_spans(&self, n: usize) -> Vec<SpanRecord> {
        self.spans.slowest(n)
    }

    /// Renders every serve metric in Prometheus plaintext exposition
    /// format.
    pub(crate) fn render(&self, batcher_wakeups: u64) -> String {
        self.wakeups_gauge
            .set(i64::try_from(batcher_wakeups).unwrap_or(i64::MAX));
        self.registry.render()
    }

    pub(crate) fn snapshot(&self, batcher_wakeups: u64) -> ServiceMetrics {
        let uptime = self.started.elapsed();
        let served = self.served.get();
        let batches = self.batches.get();
        let engine_us = self.engine_us_total.get();
        let latency = self.latency.snapshot();
        let (batch_size_histogram, engine_time_by_size, weighted) = {
            let shape = lock(&self.batch_shape);
            let hist: Vec<(usize, u64)> = shape
                .batch_hist
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(size, &count)| (size, count))
                .collect();
            let by_size: Vec<(usize, Duration)> = hist
                .iter()
                .map(|&(size, count)| {
                    (
                        size,
                        Duration::from_micros(shape.engine_us_by_size[size] / count),
                    )
                })
                .collect();
            let weighted: u64 = hist.iter().map(|&(size, count)| size as u64 * count).sum();
            (hist, by_size, weighted)
        };
        let tiers = {
            let slots = lock(&self.tiers);
            let mut tiers: Vec<TierMetrics> = slots
                .iter()
                .map(|t| {
                    let snap = t.latency.snapshot();
                    TierMetrics {
                        tier: t.label.clone(),
                        served: t.served.get(),
                        failed: t.failed.get(),
                        latency_p50: snap.percentile(0.50),
                        latency_p95: snap.percentile(0.95),
                        latency_p99: snap.percentile(0.99),
                    }
                })
                .collect();
            tiers.sort_by(|a, b| a.tier.cmp(&b.tier));
            tiers
        };
        let stages = Stage::ALL
            .into_iter()
            .zip(&self.stage_hists)
            .filter_map(|(stage, h)| {
                let snap = h.snapshot();
                (snap.count > 0).then(|| StageStat {
                    stage,
                    count: snap.count,
                    total: Duration::from_micros(snap.sum_us),
                    mean: snap.mean(),
                    p95: snap.percentile(0.95),
                })
            })
            .collect();
        ServiceMetrics {
            served,
            failed: self.failed.get(),
            shed: self.shed.get(),
            batches,
            engine_time_total: Duration::from_micros(engine_us),
            mean_engine_time_per_batch: Duration::from_micros(
                engine_us.checked_div(batches).unwrap_or(0),
            ),
            engine_time_by_size,
            latency_p50: latency.percentile(0.50),
            latency_p95: latency.percentile(0.95),
            latency_p99: latency.percentile(0.99),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                weighted as f64 / batches as f64
            },
            batch_size_histogram,
            throughput_qps: if uptime.is_zero() {
                0.0
            } else {
                served as f64 / uptime.as_secs_f64()
            },
            uptime,
            // ordering: reporting-only epoch copy; see record_swap.
            epoch: self.epoch_raw.load(Ordering::Relaxed),
            swaps: self.swaps.get(),
            batcher_wakeups,
            tiers,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Histogram percentiles land on the containing log-bucket's upper
    /// bound: within 1/8 above the exact value (1/16 bucket width plus
    /// integer slack).
    fn assert_close(got: Duration, exact_us: u64, what: &str) {
        let got = got.as_micros() as u64;
        assert!(
            got >= exact_us && got <= exact_us + exact_us / 8 + 1,
            "{what}: got {got}µs, exact {exact_us}µs"
        );
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = MetricsShared::new();
        for us in [100u64, 200, 300, 400] {
            m.record_served(Duration::from_micros(us), "exact");
        }
        m.record_failed(2, "exact");
        m.record_shed();
        m.record_batch(1, Duration::from_micros(90));
        m.record_batch(3, Duration::from_micros(120));
        m.record_batch(3, Duration::from_micros(180));
        let s = m.snapshot(0);
        assert_eq!(s.served, 4);
        assert_eq!(s.failed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.batches, 3);
        assert_close(s.latency_p50, 200, "p50");
        assert!(s.latency_p50 <= s.latency_p95 && s.latency_p95 <= s.latency_p99);
        assert_eq!(s.batch_size_histogram, vec![(1, 1), (3, 2)]);
        assert!((s.mean_batch_size - 7.0 / 3.0).abs() < 1e-12);
        assert!(s.throughput_qps > 0.0);
        // Engine time: totals, per-batch mean, and the per-size
        // amortisation curve (mean over the two size-3 batches).
        assert_eq!(s.engine_time_total, Duration::from_micros(390));
        assert_eq!(s.mean_engine_time_per_batch, Duration::from_micros(130));
        assert_eq!(
            s.engine_time_by_size,
            vec![
                (1, Duration::from_micros(90)),
                (3, Duration::from_micros(150)),
            ]
        );
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = MetricsShared::new().snapshot(0);
        assert_eq!(s.served, 0);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.latency_p99, Duration::ZERO);
        assert!(s.batch_size_histogram.is_empty());
        assert!(s.tiers.is_empty());
        assert!(s.stages.is_empty());
        assert_eq!(s.engine_time_total, Duration::ZERO);
        assert_eq!(s.mean_engine_time_per_batch, Duration::ZERO);
        assert!(s.engine_time_by_size.is_empty());
    }

    #[test]
    fn tiers_are_accounted_separately_and_sorted() {
        let m = MetricsShared::new();
        m.record_served(Duration::from_micros(900), "pruned-c4");
        m.record_served(Duration::from_micros(100), "exact");
        m.record_served(Duration::from_micros(200), "exact");
        m.record_failed(1, "pruned-c4");
        let s = m.snapshot(0);
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 1);
        let labels: Vec<&str> = s.tiers.iter().map(|t| t.tier.as_str()).collect();
        assert_eq!(labels, ["exact", "pruned-c4"]);
        let exact = &s.tiers[0];
        assert_eq!((exact.served, exact.failed), (2, 0));
        assert_close(exact.latency_p50, 100, "exact p50");
        let pruned = &s.tiers[1];
        assert_eq!((pruned.served, pruned.failed), (1, 1));
        assert_close(pruned.latency_p99, 900, "pruned p99");
    }

    #[test]
    fn nothing_ages_out_under_sustained_load() {
        // The old reservoir overwrote its oldest samples, so a burst of
        // early slow requests vanished from the percentiles. Histograms
        // keep everything: 100 slow samples stay visible as the p99
        // even after 100k fast ones.
        let m = MetricsShared::new();
        for _ in 0..100 {
            m.record_served(Duration::from_millis(80), "exact");
        }
        for _ in 0..100_000 {
            m.record_served(Duration::from_micros(150), "exact");
        }
        let s = m.snapshot(0);
        assert_close(s.latency_p50, 150, "p50 is the fast mode");
        // p99.95 rank falls in the slow tail.
        assert!(
            m.latency.snapshot().percentile(0.9995) >= Duration::from_millis(80),
            "slow burst must never age out"
        );
    }

    /// Satellite regression: snapshot cost is O(buckets), independent
    /// of how many samples were ever recorded. The old implementation
    /// cloned + sorted its reservoir under the metrics mutex, so its
    /// snapshot cost grew with (bounded) sample count and stalled
    /// recorders; the histogram snapshot reads a fixed number of
    /// atomics whether 10k or 1M samples were recorded.
    #[test]
    fn snapshot_work_is_independent_of_sample_count() {
        let timed_snapshot = |m: &MetricsShared| {
            let mut best = Duration::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                std::hint::black_box(m.snapshot(0));
                best = best.min(t.elapsed());
            }
            best
        };
        let m = MetricsShared::new();
        for i in 0..10_000u64 {
            m.record_served(Duration::from_micros(i % 1000), "exact");
        }
        let small = timed_snapshot(&m);
        for i in 0..1_000_000u64 {
            m.record_served(Duration::from_micros(i % 1000), "exact");
        }
        let large = timed_snapshot(&m);
        // Identical work modulo noise; a sort-the-samples design would
        // scale with the retained sample count. Generous bound to stay
        // robust on a loaded CI box.
        assert!(
            large < small * 20 + Duration::from_millis(2),
            "snapshot scaled with sample count: {small:?} -> {large:?}"
        );
    }

    /// Satellite regression: concurrent snapshots must not inflate the
    /// percentiles other threads observe. (The old reservoir snapshot
    /// held the metrics mutex through a 65k-element sort; this test
    /// hammers snapshots from one thread while another records a
    /// constant latency, and p99 must stay at that constant.)
    #[test]
    fn concurrent_snapshots_do_not_inflate_p99() {
        let m = Arc::new(MetricsShared::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let storm = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(m.snapshot(0));
                    snaps += 1;
                }
                snaps
            })
        };
        for _ in 0..50_000 {
            m.record_served(Duration::from_micros(400), "exact");
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = storm.join().expect("snapshot storm thread");
        assert!(snaps > 0);
        let s = m.snapshot(0);
        assert_eq!(s.served, 50_000);
        assert_close(s.latency_p99, 400, "p99 under snapshot storm");
    }

    /// The engine interval is covered exactly: the 80 µs the backend
    /// attributed to no stage ride on `score`.
    #[test]
    fn unattributed_engine_time_lands_on_score() {
        let mut engine_stages = Stages::default();
        engine_stages.add(Stage::Decode, Duration::from_micros(120));
        engine_stages.add(Stage::Score, Duration::from_micros(200));
        let b = StageBreakdown {
            queue: Duration::from_micros(100),
            coalesce: Duration::from_micros(50),
            engine: Duration::from_micros(400),
            engine_stages,
            merge: Duration::from_micros(30),
        };
        assert_eq!(b.stages().get(Stage::Score), Duration::from_micros(280));
    }

    #[test]
    fn stage_records_populate_histograms_and_ring() {
        let m = MetricsShared::new();
        let b = StageBreakdown {
            queue: Duration::from_micros(120),
            engine: Duration::from_micros(300),
            merge: Duration::from_micros(40),
            ..Default::default()
        };
        m.record_stages(&b.stages(), Duration::from_micros(500), TraceId::generate());
        let s = m.snapshot(0);
        let stages: Vec<Stage> = s.stages.iter().map(|st| st.stage).collect();
        assert!(stages.contains(&Stage::Queue));
        assert!(stages.contains(&Stage::Merge));
        // Nothing attributed: the whole engine interval lands on score.
        assert!(stages.contains(&Stage::Score));
        assert_eq!(m.slowest_spans(5).len(), 1);
        assert_eq!(m.slowest_spans(5)[0].total_us, 500);
    }

    #[test]
    fn render_is_valid_exposition_with_core_series() {
        let m = MetricsShared::new();
        m.record_served(Duration::from_micros(250), "exact");
        m.record_batch(1, Duration::from_micros(100));
        m.record_swap(3);
        let page = m.render(7);
        let names = tkspmv_obs::validate_exposition(&page).expect("valid exposition");
        for want in [
            "tkspmv_serve_requests_total",
            "tkspmv_serve_batches_total",
            "tkspmv_serve_latency_seconds_bucket",
            "tkspmv_serve_latency_seconds_count",
            "tkspmv_serve_epoch",
            "tkspmv_serve_batcher_wakeups",
        ] {
            assert!(
                names.iter().any(|n| n == want),
                "missing series {want} in:\n{page}"
            );
        }
        assert!(page.contains("outcome=\"served\""));
        assert!(page.contains("tier=\"exact\""));
    }
}
