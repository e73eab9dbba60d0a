//! Service observability: one `tkspmv_obs` registry holds every count,
//! latency histogram and stage histogram the service keeps, beside a
//! span ring of recent requests.
//!
//! Counters are atomics and latency percentiles come from fixed
//! log-bucket histograms, so the request completion path records
//! without a lock of its own and [`MetricsShared::snapshot`] does
//! O(buckets) work. [`ServiceMetrics`] is the typed view of the
//! service-wide figures; the per-tier, per-stage and engine-time series
//! are read from the rendered `/metrics` page.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tkspmv_obs::{
    Counter, Gauge, Histogram, Registry, SpanRecord, SpanRing, Stage, Stages, TraceId,
};

/// Completed queries whose stage spans are kept for the slowest-N
/// trace view (a preallocated ring; recording is a slot memcpy).
const SPAN_RING_CAPACITY: usize = 512;

/// Where one answered request spent its time, stage by stage.
///
/// `queue`, `coalesce`, `engine` and `merge` are exact wall intervals
/// measured on the serving path. `engine_stages` subdivides the engine
/// interval: it is the sum of the [`Stages`] this request's shard calls
/// measured and returned with their results. The calls run one after
/// another, so the sum is exact per request and never exceeds `engine`.
/// For a batched request, `engine` is the whole batch's engine wall
/// time (the request really was in the engine that long), and so is
/// the accelerator's decode/score split. [`StageBreakdown::stages`] puts
/// all of it in one [`Stages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StageBreakdown {
    /// Submission-queue wait: admission until the batcher took it,
    /// including any time the batcher spent running earlier batches.
    pub queue: Duration,
    /// Batcher coalescing: taken until the batch dispatched.
    pub coalesce: Duration,
    /// Engine wall time for the batch: its shards' backend calls, which
    /// run one after another.
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

/// A point-in-time snapshot of a service's behaviour since start-up.
///
/// Taken with `TopKService::metrics` (cheap: O(histogram buckets), no
/// sample sort, no lock) and returned by `TopKService::shutdown` as the
/// final account. Per-tier counts and latency
/// (`tkspmv_serve_tier_*`), per-stage durations
/// (`tkspmv_serve_stage_seconds`) and the engine's time
/// (`tkspmv_serve_engine_microseconds_total`) are on the page
/// `TopKService::render_metrics` returns.
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
}

const TIER_REQUESTS: &str = "tkspmv_serve_tier_requests_total";
const TIER_REQUESTS_HELP: &str = "Requests by tier and outcome.";

/// The service's metric state: handles into one registry, the
/// batch-size table and the span ring. Every record is lock-free
/// (atomics and striped histograms) except the span-ring slot copy and
/// the per-batch lookup of the batch's tier series in the registry (a
/// `/metrics` scrape holds that lock only while it copies the handles).
pub(crate) struct MetricsShared {
    started: Instant,
    registry: Registry,
    served: Arc<Counter>,
    failed: Arc<Counter>,
    shed: Arc<Counter>,
    batches: Arc<Counter>,
    engine_us_total: Arc<Counter>,
    swaps: Arc<Counter>,
    wakeups: Arc<Counter>,
    epoch: Arc<Gauge>,
    latency: Arc<Histogram>,
    /// One histogram per stage, in [`Stage::ALL`] order.
    stage_hists: [Arc<Histogram>; Stage::COUNT],
    /// `batch_sizes[s - 1]` counts the batches dispatched holding `s`
    /// queries, for every `s` up to the policy's `max_batch_size`.
    batch_sizes: Box<[Counter]>,
    spans: SpanRing<SpanRecord>,
}

impl MetricsShared {
    /// Metrics for a service whose batches hold at most
    /// `max_batch_size` queries.
    pub(crate) fn new(max_batch_size: usize) -> Self {
        let registry = Registry::new();
        let requests = |outcome| {
            registry.counter_with(
                "tkspmv_serve_requests_total",
                "Requests by outcome.",
                &[("outcome", outcome)],
            )
        };
        let (served, failed, shed) = (requests("served"), requests("failed"), requests("shed"));
        let batches = registry.counter("tkspmv_serve_batches_total", "Backend batches dispatched.");
        let engine_us_total = registry.counter(
            "tkspmv_serve_engine_microseconds_total",
            "Backend batch-call time summed across shards and batches.",
        );
        let swaps = registry.counter("tkspmv_serve_swaps_total", "Collection hot swaps.");
        let wakeups = registry.counter(
            "tkspmv_serve_batcher_wakeups_total",
            "Batcher thread wake-ups since start-up.",
        );
        let epoch = registry.gauge("tkspmv_serve_epoch", "Collection epoch being served.");
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
            wakeups,
            epoch,
            latency,
            stage_hists,
            batch_sizes: (0..max_batch_size.max(1)).map(|_| Counter::new()).collect(),
            spans: SpanRing::new(SPAN_RING_CAPACITY),
        }
    }

    /// Records one batch's answered requests, all at `tier` (a batch
    /// never mixes tiers, so the tier's series are looked up once):
    /// each request's latency, stage histograms and span-ring slot.
    pub(crate) fn record_served(
        &self,
        tier: &str,
        requests: impl IntoIterator<Item = (Duration, Stages, TraceId)>,
    ) {
        let tier_served = self.registry.counter_with(
            TIER_REQUESTS,
            TIER_REQUESTS_HELP,
            &[("tier", tier), ("outcome", "served")],
        );
        let tier_latency = self.registry.histogram_with(
            "tkspmv_serve_tier_latency_seconds",
            "End-to-end latency by tier.",
            &[("tier", tier)],
        );
        for (latency, stages, trace_id) in requests {
            self.served.inc();
            self.latency.record(latency);
            tier_served.inc();
            tier_latency.record(latency);
            for (hist, (_, d)) in self.stage_hists.iter().zip(stages.iter()) {
                if !d.is_zero() {
                    hist.record(d);
                }
            }
            self.spans.record(&stages.to_span_record(trace_id, latency));
        }
    }

    /// Records a failed batch of `requests` requests at `tier`.
    pub(crate) fn record_failed(&self, tier: &str, requests: u64) {
        self.failed.add(requests);
        self.registry
            .counter_with(
                TIER_REQUESTS,
                TIER_REQUESTS_HELP,
                &[("tier", tier), ("outcome", "failed")],
            )
            .add(requests);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.inc();
    }

    /// Records one dispatched batch of `size` queries (at most the
    /// policy's `max_batch_size`; a larger one counts in the last slot).
    pub(crate) fn record_batch(&self, size: usize, engine_time: Duration) {
        self.batches.inc();
        self.engine_us_total
            .add(u64::try_from(engine_time.as_micros()).unwrap_or(u64::MAX));
        let last = self.batch_sizes.len() - 1;
        self.batch_sizes[size.saturating_sub(1).min(last)].inc();
    }

    pub(crate) fn record_swap(&self, new_epoch: u64) {
        self.swaps.inc();
        self.epoch.set(i64::try_from(new_epoch).unwrap_or(i64::MAX));
    }

    pub(crate) fn record_wakeup(&self) {
        self.wakeups.inc();
    }

    /// The slowest-`n` recorded queries' span records, descending by
    /// end-to-end latency.
    pub(crate) fn slowest_spans(&self, n: usize) -> Vec<SpanRecord> {
        self.spans.slowest(n)
    }

    /// Renders every serve metric in Prometheus plaintext exposition
    /// format.
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }

    pub(crate) fn snapshot(&self) -> ServiceMetrics {
        let uptime = self.started.elapsed();
        let served = self.served.get();
        let batches = self.batches.get();
        let latency = self.latency.snapshot();
        let batch_size_histogram: Vec<(usize, u64)> = (1..)
            .zip(self.batch_sizes.iter().map(Counter::get))
            .filter(|&(_, count)| count > 0)
            .collect();
        let weighted: u64 = batch_size_histogram
            .iter()
            .map(|&(size, count)| size as u64 * count)
            .sum();
        ServiceMetrics {
            served,
            failed: self.failed.get(),
            shed: self.shed.get(),
            batches,
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
            epoch: u64::try_from(self.epoch.get()).unwrap_or(0),
            swaps: self.swaps.get(),
            batcher_wakeups: self.wakeups.get(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::BatchPolicy;

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

    /// The value of the sample `series` (name and label set, as
    /// rendered) on an exposition page, after checking the page is
    /// valid exposition.
    pub(crate) fn sample(page: &str, series: &str) -> Option<f64> {
        tkspmv_obs::validate_exposition(page).expect("valid exposition");
        page.lines().find_map(|line| {
            let value = line.strip_prefix(series)?.strip_prefix(' ')?;
            Some(value.parse().expect("numeric sample"))
        })
    }

    /// Records one batch of requests at `tier` with these latencies and
    /// no stage split.
    fn served(m: &MetricsShared, tier: &str, latencies_us: impl IntoIterator<Item = u64>) {
        m.record_served(
            tier,
            latencies_us
                .into_iter()
                .map(|us| (Duration::from_micros(us), Stages::default(), TraceId::ZERO)),
        );
    }

    fn metrics() -> MetricsShared {
        MetricsShared::new(BatchPolicy::default().max_batch_size)
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = metrics();
        served(&m, "exact", [100, 200, 300, 400]);
        m.record_failed("exact", 2);
        m.record_shed();
        m.record_batch(1, Duration::from_micros(90));
        m.record_batch(3, Duration::from_micros(120));
        m.record_batch(3, Duration::from_micros(180));
        let s = m.snapshot();
        assert_eq!(s.served, 4);
        assert_eq!(s.failed, 2);
        assert_eq!(s.shed, 1);
        assert_eq!(s.batches, 3);
        assert_close(s.latency_p50, 200, "p50");
        assert!(s.latency_p50 <= s.latency_p95 && s.latency_p95 <= s.latency_p99);
        assert_eq!(s.batch_size_histogram, vec![(1, 1), (3, 2)]);
        assert!((s.mean_batch_size - 7.0 / 3.0).abs() < 1e-12);
        assert!(s.throughput_qps > 0.0);
        // Engine time, summed across batches, is on the page.
        let page = m.render();
        assert_eq!(
            sample(&page, "tkspmv_serve_engine_microseconds_total"),
            Some(390.0)
        );
    }

    /// The size table has one slot per size up to the policy's
    /// `max_batch_size`: a full batch lands in its last slot, and so
    /// does every batch of an unbatched (`immediate`) policy.
    #[test]
    fn full_batches_land_in_the_last_slot_of_the_size_table() {
        let coalescing = BatchPolicy::coalescing(4, Duration::from_millis(1));
        let m = MetricsShared::new(coalescing.max_batch_size);
        m.record_batch(4, Duration::from_micros(10));
        m.record_batch(4, Duration::from_micros(10));
        m.record_batch(2, Duration::from_micros(10));
        assert_eq!(m.batch_sizes.len(), 4);
        assert_eq!(m.snapshot().batch_size_histogram, vec![(2, 1), (4, 2)]);
        assert!((m.snapshot().mean_batch_size - 10.0 / 3.0).abs() < 1e-12);

        let m = MetricsShared::new(BatchPolicy::immediate().max_batch_size);
        m.record_batch(1, Duration::from_micros(10));
        assert_eq!(m.batch_sizes.len(), 1);
        assert_eq!(m.snapshot().batch_size_histogram, vec![(1, 1)]);
        assert_eq!(m.snapshot().mean_batch_size, 1.0);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let m = metrics();
        let s = m.snapshot();
        assert_eq!(s.served, 0);
        assert_eq!(s.mean_batch_size, 0.0);
        assert_eq!(s.latency_p99, Duration::ZERO);
        assert!(s.batch_size_histogram.is_empty());
        assert_eq!((s.epoch, s.batcher_wakeups), (0, 0));
        let page = m.render();
        // No tier has been seen, no stage recorded, no engine time spent.
        assert!(!page.contains("tkspmv_serve_tier_"), "{page}");
        for stage in Stage::ALL {
            let series = format!(
                "tkspmv_serve_stage_seconds_count{{stage=\"{}\"}}",
                stage.name()
            );
            assert_eq!(sample(&page, &series), Some(0.0), "{series}");
        }
        assert_eq!(
            sample(&page, "tkspmv_serve_engine_microseconds_total"),
            Some(0.0)
        );
        assert_eq!(
            sample(&page, "tkspmv_serve_batcher_wakeups_total"),
            Some(0.0)
        );
    }

    #[test]
    fn tiers_are_accounted_separately_and_sorted() {
        let m = metrics();
        served(&m, "pruned-c4", [900]);
        served(&m, "exact", [100, 200]);
        m.record_failed("pruned-c4", 1);
        let s = m.snapshot();
        assert_eq!(s.served, 3);
        assert_eq!(s.failed, 1);
        let page = m.render();
        let tier = |series: &str, tier: &str, outcome: &str| {
            let labels = if outcome.is_empty() {
                format!("{{tier=\"{tier}\"}}")
            } else {
                format!("{{tier=\"{tier}\",outcome=\"{outcome}\"}}")
            };
            sample(&page, &format!("tkspmv_serve_tier_{series}{labels}"))
        };
        assert_eq!(tier("requests_total", "exact", "served"), Some(2.0));
        assert_eq!(tier("requests_total", "exact", "failed"), None);
        assert_eq!(tier("requests_total", "pruned-c4", "served"), Some(1.0));
        assert_eq!(tier("requests_total", "pruned-c4", "failed"), Some(1.0));
        // Per-tier latency: the exact tier's two requests sum to 300 µs,
        // the pruned tier's one to 900 µs. The exact p50 (100 µs) and the
        // pruned p99 (900 µs) land in the log buckets ending at 103 µs
        // and 927 µs.
        assert_eq!(tier("latency_seconds_count", "exact", ""), Some(2.0));
        assert_eq!(tier("latency_seconds_sum", "exact", ""), Some(0.0003));
        assert_eq!(tier("latency_seconds_count", "pruned-c4", ""), Some(1.0));
        assert_eq!(tier("latency_seconds_sum", "pruned-c4", ""), Some(0.0009));
        let bucket = |tier: &str, le: &str| {
            format!("tkspmv_serve_tier_latency_seconds_bucket{{tier=\"{tier}\",le=\"{le}\"}}")
        };
        assert_eq!(sample(&page, &bucket("exact", "0.000103")), Some(1.0));
        assert_eq!(sample(&page, &bucket("pruned-c4", "0.000927")), Some(1.0));
    }

    #[test]
    fn nothing_ages_out_under_sustained_load() {
        // The old reservoir overwrote its oldest samples, so a burst of
        // early slow requests vanished from the percentiles. Histograms
        // keep everything: 100 slow samples stay visible as the p99
        // even after 100k fast ones.
        let m = metrics();
        served(&m, "exact", std::iter::repeat_n(80_000, 100));
        served(&m, "exact", std::iter::repeat_n(150, 100_000));
        let s = m.snapshot();
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
                std::hint::black_box(m.snapshot());
                best = best.min(t.elapsed());
            }
            best
        };
        let m = metrics();
        served(&m, "exact", (0..10_000u64).map(|i| i % 1000));
        let small = timed_snapshot(&m);
        served(&m, "exact", (0..1_000_000u64).map(|i| i % 1000));
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
        use std::sync::atomic::{AtomicBool, Ordering};

        let m = Arc::new(metrics());
        let stop = Arc::new(AtomicBool::new(false));
        let storm = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(m.snapshot());
                    snaps += 1;
                }
                snaps
            })
        };
        for _ in 0..50 {
            served(&m, "exact", std::iter::repeat_n(400, 1_000));
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = storm.join().expect("snapshot storm thread");
        assert!(snaps > 0);
        let s = m.snapshot();
        assert_eq!(s.served, 50_000);
        assert_close(s.latency_p99, 400, "p99 under snapshot storm");
    }

    /// Batches recorded while another thread renders the page in a loop
    /// lose no count: each batch finds its tier series in the registry
    /// whether or not a scrape is copying the handles.
    #[test]
    fn no_count_is_lost_while_scrapes_render() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let m = Arc::new(metrics());
        let stop = Arc::new(AtomicBool::new(false));
        let renders = Arc::new(AtomicU64::new(0));
        let scraper = {
            let (m, stop, renders) = (Arc::clone(&m), Arc::clone(&stop), Arc::clone(&renders));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(m.render());
                    renders.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        // The batches start once the scraper is rendering.
        while renders.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for _ in 0..1_000 {
            served(&m, "exact", [100]);
            m.record_failed("exact", 1);
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scrape thread");
        let page = m.render();
        let exact = |series: &str, labels: &str| {
            sample(
                &page,
                &format!("tkspmv_serve_tier_{series}{{tier=\"exact\"{labels}}}"),
            )
        };
        assert_eq!(
            exact("requests_total", ",outcome=\"served\""),
            Some(1_000.0)
        );
        assert_eq!(
            exact("requests_total", ",outcome=\"failed\""),
            Some(1_000.0)
        );
        assert_eq!(exact("latency_seconds_count", ""), Some(1_000.0));
        let s = m.snapshot();
        assert_eq!((s.served, s.failed), (1_000, 1_000));
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
        let m = metrics();
        let b = StageBreakdown {
            queue: Duration::from_micros(120),
            engine: Duration::from_micros(300),
            merge: Duration::from_micros(40),
            ..Default::default()
        };
        m.record_served(
            "exact",
            [(Duration::from_micros(500), b.stages(), TraceId::generate())],
        );
        let page = m.render();
        let stage = |name: &str, series: &str| {
            sample(
                &page,
                &format!("tkspmv_serve_stage_seconds_{series}{{stage=\"{name}\"}}"),
            )
        };
        // Nothing attributed: the whole engine interval lands on score.
        for (name, us) in [("queue", 120.0), ("score", 300.0), ("merge", 40.0)] {
            assert_eq!(stage(name, "count"), Some(1.0), "{name}");
            assert_eq!(stage(name, "sum"), Some(us / 1e6), "{name}");
        }
        for name in ["coalesce", "decode", "prune", "rescore", "wire", "fanout"] {
            assert_eq!(stage(name, "count"), Some(0.0), "{name}");
        }
        assert_eq!(m.slowest_spans(5).len(), 1);
        assert_eq!(m.slowest_spans(5)[0].total_us, 500);
    }

    #[test]
    fn render_is_valid_exposition_with_core_series() {
        let m = metrics();
        served(&m, "exact", [250]);
        m.record_batch(1, Duration::from_micros(100));
        m.record_swap(3);
        for _ in 0..7 {
            m.record_wakeup();
        }
        let page = m.render();
        let names = tkspmv_obs::validate_exposition(&page).expect("valid exposition");
        for want in [
            "tkspmv_serve_requests_total",
            "tkspmv_serve_batches_total",
            "tkspmv_serve_latency_seconds_bucket",
            "tkspmv_serve_latency_seconds_count",
            "tkspmv_serve_epoch",
            "tkspmv_serve_batcher_wakeups_total",
        ] {
            assert!(
                names.iter().any(|n| n == want),
                "missing series {want} in:\n{page}"
            );
        }
        assert!(page.contains("outcome=\"served\""));
        assert!(page.contains("tier=\"exact\""));
        assert_eq!(
            sample(&page, "tkspmv_serve_batcher_wakeups_total"),
            Some(7.0)
        );
        // The snapshot reads the epoch and the wake-ups from the same
        // registry series the page renders.
        let s = m.snapshot();
        assert_eq!((s.epoch, s.batcher_wakeups), (3, 7));
    }
}
