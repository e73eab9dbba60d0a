//! Lock-cheap metric primitives and the registry that renders them in
//! Prometheus plaintext exposition format.
//!
//! Counters and gauges are single atomics. Histograms are fixed
//! log-linear bucket arrays (identity below 16, then 16 sub-buckets per
//! power of two, so the relative quantisation error is at most 1/16)
//! striped across a few shards to keep concurrent recorders off each
//! other's cache lines. Recording is a couple of atomic adds — no lock,
//! no allocation — and a snapshot reads a fixed number of atomics
//! instead of cloning and sorting a sample reservoir.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter (atomic, lock-free).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: monotonic scrape counter; no data is published
        // under it and readers tolerate arbitrarily stale values.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ordering: point-in-time scrape read; staleness is fine.
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (atomic, lock-free).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        // ordering: last-writer-wins scrape gauge; nothing hangs off it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        // ordering: point-in-time scrape read; staleness is fine.
        self.value.load(Ordering::Relaxed)
    }
}

/// Identity buckets below this value (exact to the microsecond).
const LINEAR_CUTOFF: u64 = 16;

/// Sub-buckets per power of two above the linear cutoff.
const SUBS_PER_OCTAVE: usize = 16;

/// Largest octave covered before clamping into the overflow bucket:
/// 2^35 µs ≈ 9.5 hours, far beyond any request latency.
const MAX_OCTAVE: usize = 35;

/// Number of histogram buckets. Fixed at compile time so a snapshot is
/// provably O(buckets) work, independent of how many samples were ever
/// recorded.
const NUM_BUCKETS: usize = (MAX_OCTAVE - 3) * SUBS_PER_OCTAVE + SUBS_PER_OCTAVE;

/// Stripes a histogram's buckets are split across; concurrent recorders
/// on different threads usually land on different stripes.
const STRIPES: usize = 4;

/// Bucket index for a microsecond value: identity below 16, then
/// log-linear (16 sub-buckets per octave, relative error ≤ 1/16).
#[inline]
fn bucket_index(us: u64) -> usize {
    if us < LINEAR_CUTOFF {
        us as usize
    } else {
        let octave = 63 - us.leading_zeros() as usize;
        let sub = ((us >> (octave - 4)) & 0xF) as usize;
        ((octave - 3) * SUBS_PER_OCTAVE + sub).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of the values bucket `idx` holds.
fn bucket_upper_us(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let octave = idx / SUBS_PER_OCTAVE + 3;
        let sub = (idx % SUBS_PER_OCTAVE) as u64;
        (1u64 << octave) + (sub + 1) * (1u64 << (octave - 4)) - 1
    }
}

#[derive(Debug)]
struct Stripe {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Stripe {
    // alloc-ok(fn): one-time bucket array at construction.
    fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

static STRIPE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread picks a stripe once (round-robin) and sticks to it.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_stripe() -> usize {
    MY_STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            // ordering: round-robin stripe ticket; uniqueness comes
            // from fetch_add's atomicity, no ordering needed.
            let v = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
            v
        }
    })
}

/// A fixed log-bucket latency histogram.
///
/// Recording a sample is two atomic adds and a bucket increment on the
/// calling thread's stripe — no lock, no allocation, and nothing ever
/// ages out. [`Histogram::snapshot`] sums the stripes in O(buckets).
#[derive(Debug)]
pub struct Histogram {
    stripes: Vec<Stripe>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (allocates its buckets once, up front).
    // alloc-ok(fn): one-time stripe allocation at construction.
    pub fn new() -> Self {
        Self {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records a duration (quantised to microseconds).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records a raw microsecond value.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let stripe = &self.stripes[my_stripe()];
        // ordering: independent monotonic stripe counters; snapshot
        // tolerates tearing between them (see HistogramSnapshot docs).
        stripe.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        // ordering: same tearing-tolerant stripe counters as above.
        stripe.count.fetch_add(1, Ordering::Relaxed);
        // ordering: same tearing-tolerant stripe counters as above.
        stripe.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Point-in-time view: stripe-summed bucket counts. O(buckets),
    /// regardless of how many samples were recorded.
    // alloc-ok(fn): scrape-time summary, off the record path.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut count = 0u64;
        let mut sum_us = 0u64;
        for stripe in &self.stripes {
            for (acc, b) in buckets.iter_mut().zip(&stripe.buckets) {
                // ordering: scrape-time read; a snapshot may be off by
                // in-flight samples, documented on HistogramSnapshot.
                *acc += b.load(Ordering::Relaxed);
            }
            // ordering: scrape-time read, tearing-tolerant as above.
            count += stripe.count.load(Ordering::Relaxed);
            // ordering: scrape-time read, tearing-tolerant as above.
            sum_us = sum_us.saturating_add(stripe.sum_us.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            buckets,
            count,
            sum_us,
        }
    }
}

/// A consistent-enough point-in-time view of a [`Histogram`].
///
/// (Stripes are read without stopping writers, so a snapshot taken
/// mid-record may be off by the in-flight sample — bounded by the
/// number of concurrently recording threads, never by history.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, one per log-linear bucket (a count
    /// fixed at compile time).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values, in microseconds (saturating).
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile, reported as the upper bound of the
    /// bucket holding that rank (relative quantisation error ≤ 1/16).
    /// `Duration::ZERO` for an empty histogram.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        // Same slop-guarded nearest-rank arithmetic the reservoir
        // implementation used: ceil(q*n) clamped into 1..=n.
        let rank = ((q * self.count as f64 - 1e-9).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_micros(bucket_upper_us(i));
            }
        }
        Duration::from_micros(bucket_upper_us(NUM_BUCKETS - 1))
    }

    /// Mean of all recorded values.
    pub fn mean(&self) -> Duration {
        match self.sum_us.checked_div(self.count) {
            Some(mean_us) => Duration::from_micros(mean_us),
            None => Duration::ZERO,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Child {
    /// The label pairs, as registered — empty for unlabeled.
    pairs: Vec<(String, String)>,
    /// Rendered label set, e.g. `tier="exact"` — empty for unlabeled.
    labels: String,
    metric: MetricHandle,
}

impl Child {
    /// A new child, its label set rendered once.
    // alloc-ok(fn): registration path, once per (name, labels).
    fn new(labels: &[(&str, &str)], metric: MetricHandle) -> Child {
        Child {
            pairs: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            labels: render_labels(labels),
            metric,
        }
    }

    /// Whether this child carries exactly `labels`, in order.
    fn has(&self, labels: &[(&str, &str)]) -> bool {
        self.pairs.len() == labels.len()
            && self
                .pairs
                .iter()
                .zip(labels)
                .all(|((k, v), &(lk, lv))| k == lk && v == lv)
    }
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    children: Vec<Child>,
}

/// A named collection of metrics rendered together as one plaintext
/// exposition page.
///
/// The registry mutex guards registration (get-or-create of a family
/// child) and a scrape's copy of the handles; the returned `Arc`
/// handles record without ever touching the registry again, so the hot
/// path is lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // alloc-ok(fn): registration path, first call per (name, labels)
    // only; a hit compares label pairs and allocates nothing.
    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(f) = families.iter_mut().find(|f| f.name == name) {
            assert!(
                f.kind == kind,
                "metric `{name}` registered twice with different kinds"
            );
            if let Some(c) = f.children.iter().find(|c| c.has(labels)) {
                return c.metric.clone();
            }
            let metric = make();
            f.children.push(Child::new(labels, metric.clone()));
            return metric;
        }
        let metric = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            children: vec![Child::new(labels, metric.clone())],
        });
        metric
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create a counter child with the given label pairs.
    // alloc-ok(fn): registration path; hot callers cache the Arc.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, MetricKind::Counter, labels, || {
            MetricHandle::Counter(Arc::new(Counter::new()))
        }) {
            MetricHandle::Counter(c) => c,
            #[expect(
                clippy::unreachable,
                reason = "invariant: get_or_insert returns the kind it was given"
            )]
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    // alloc-ok(fn): registration path; hot callers cache the Arc.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, MetricKind::Gauge, &[], || {
            MetricHandle::Gauge(Arc::new(Gauge::new()))
        }) {
            MetricHandle::Gauge(g) => g,
            #[expect(
                clippy::unreachable,
                reason = "invariant: get_or_insert returns the kind it was given"
            )]
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Get-or-create an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get-or-create a histogram child with the given label pairs.
    // alloc-ok(fn): registration path; hot callers cache the Arc.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, MetricKind::Histogram, labels, || {
            MetricHandle::Histogram(Arc::new(Histogram::new()))
        }) {
            MetricHandle::Histogram(h) => h,
            #[expect(
                clippy::unreachable,
                reason = "invariant: get_or_insert returns the kind it was given"
            )]
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Renders every registered metric in Prometheus plaintext
    /// exposition format (`# HELP` / `# TYPE` comments plus one sample
    /// line per child; histograms as cumulative `_bucket`/`_sum`/
    /// `_count` series over their non-empty buckets).
    ///
    /// The lock registrations take is held only while the families and
    /// their handles are copied; the page is formatted after it is
    /// released, so a scrape does not hold up a caller looking up a
    /// series.
    // alloc-ok(fn): scrape-time rendering, off the record path.
    pub fn render(&self) -> String {
        let families = self
            .families
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut out = String::new();
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            for c in &f.children {
                match &c.metric {
                    MetricHandle::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", f.name, brace(&c.labels), v.get());
                    }
                    MetricHandle::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {}", f.name, brace(&c.labels), v.get());
                    }
                    MetricHandle::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (i, &n) in snap.buckets.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            cum += n;
                            let le = bucket_upper_us(i) as f64 / 1e6;
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                f.name,
                                brace_with(&c.labels, &format!("le=\"{le}\"")),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            brace_with(&c.labels, "le=\"+Inf\""),
                            snap.count
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            brace(&c.labels),
                            snap.sum_us as f64 / 1e6
                        );
                        let _ =
                            writeln!(out, "{}_count{} {}", f.name, brace(&c.labels), snap.count);
                    }
                }
            }
        }
        out
    }
}

// alloc-ok(fn): registration/scrape-time label rendering.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out
}

// alloc-ok(fn): scrape-time label rendering.
fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

// alloc-ok(fn): scrape-time label rendering.
fn brace_with(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{labels},{extra}}}")
    }
}

/// Validates Prometheus plaintext exposition syntax and returns the
/// sample names seen (e.g. `tkspmv_serve_requests_total`,
/// `tkspmv_serve_latency_seconds_bucket`).
///
/// Checks the subset of the format this workspace emits: `# HELP` /
/// `# TYPE` comment lines with a known metric kind, and sample lines of
/// the shape `name{label="value",...} <float>`. Used by the scrape
/// tests, CI, and `examples/cluster.rs` to prove the endpoints serve
/// well-formed pages.
// alloc-ok(fn): validation helper for tests and examples, never on the
// record path.
pub fn validate_exposition(text: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", lineno + 1));
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(body) = rest.strip_prefix("TYPE ") {
                let mut it = body.split_whitespace();
                let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                    return err("malformed TYPE line");
                };
                if !valid_metric_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return err("unknown metric kind in TYPE");
                }
            } else if let Some(body) = rest.strip_prefix("HELP ") {
                let Some(name) = body.split_whitespace().next() else {
                    return err("malformed HELP line");
                };
                if !valid_metric_name(name) {
                    return err("bad metric name in HELP");
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return err("bad sample metric name");
        }
        let mut rest = &line[name_end..];
        if let Some(after) = rest.strip_prefix('{') {
            let Some(close) = after.find('}') else {
                return err("unterminated label set");
            };
            let labels = &after[..close];
            if !labels.is_empty() {
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without '='");
                    };
                    if !valid_label_name(k) {
                        return err("bad label name");
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return err("label value not quoted");
                    }
                }
            }
            rest = &after[close + 1..];
        }
        let value = rest.trim();
        if value.is_empty() {
            return err("sample has no value");
        }
        let ok = value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value);
        if !ok {
            return err("unparseable sample value");
        }
        names.push(name.to_string());
    }
    Ok(names)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_tight() {
        let mut prev = 0;
        for us in 0..100_000u64 {
            let idx = bucket_index(us);
            assert!(idx >= prev, "bucket index went backwards at {us}");
            prev = idx;
            assert!(
                bucket_upper_us(idx) >= us,
                "upper bound below value at {us}"
            );
            // Relative quantisation error ≤ 1/16 above the cutoff.
            if us >= LINEAR_CUTOFF {
                assert!(
                    bucket_upper_us(idx) - us <= us / 8,
                    "bucket too wide at {us}: upper {}",
                    bucket_upper_us(idx)
                );
            } else {
                assert_eq!(bucket_upper_us(idx), us);
            }
        }
    }

    #[test]
    fn overflow_values_clamp_into_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        let h = Histogram::new();
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_match_nearest_rank_within_bucket_width() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.record_us(us);
        }
        let s = h.snapshot();
        // Exact nearest-rank answers are 50/95/99; histogram answers
        // are the containing bucket's upper bound.
        for (q, exact) in [(0.50, 50u64), (0.95, 95), (0.99, 99)] {
            let got = s.percentile(q).as_micros() as u64;
            assert!(got >= exact && got <= exact + exact / 8 + 1, "q={q}: {got}");
        }
        assert!(s.percentile(0.5) <= s.percentile(0.95));
        assert!(s.percentile(0.95) <= s.percentile(0.99));
        assert_eq!(Histogram::new().snapshot().percentile(0.99), Duration::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for us in [3u64, 3, 7, 12] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), Duration::from_micros(3));
        assert_eq!(s.percentile(1.0), Duration::from_micros(12));
        assert_eq!(s.mean(), Duration::from_micros(6));
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("tk_test_total", "help");
        let b = reg.counter("tk_test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let t1 = reg.counter_with("tk_tier_total", "h", &[("tier", "exact")]);
        let t2 = reg.counter_with("tk_tier_total", "h", &[("tier", "pruned-c4")]);
        t1.inc();
        t2.add(5);
        assert_eq!(t1.get(), 1);
        assert_eq!(t2.get(), 5);
    }

    #[test]
    fn render_output_validates_and_contains_series() {
        let reg = Registry::new();
        reg.counter("tk_requests_total", "Requests.").add(7);
        reg.gauge("tk_epoch", "Epoch.").set(3);
        let h = reg.histogram_with("tk_latency_seconds", "Latency.", &[("tier", "exact")]);
        h.record(Duration::from_micros(250));
        h.record(Duration::from_millis(3));
        let page = reg.render();
        let names = validate_exposition(&page).expect("render must be valid exposition");
        assert!(names.contains(&"tk_requests_total".to_string()));
        assert!(names.contains(&"tk_epoch".to_string()));
        assert!(names.contains(&"tk_latency_seconds_bucket".to_string()));
        assert!(names.contains(&"tk_latency_seconds_count".to_string()));
        assert!(page.contains("le=\"+Inf\""));
        assert!(page.contains("tier=\"exact\""));
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        assert!(validate_exposition("9bad_name 1").is_err());
        assert!(validate_exposition("name{unquoted=value} 1").is_err());
        assert!(validate_exposition("name notafloat").is_err());
        assert!(validate_exposition("# TYPE x nonsense").is_err());
        assert!(validate_exposition("ok_name{a=\"b\"} 1.5\n# random comment\n").is_ok());
    }

    /// A scrape holds the registry lock only while it copies the
    /// handles, so a lookup made while the page is being formatted
    /// waits for the copy, not for the page.
    #[test]
    fn a_lookup_does_not_wait_for_a_render_to_format() {
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let r = Arc::new(Registry::new());
        // A page of about 150,000 lines: each of the 600 histograms
        // fills about 250 buckets.
        for i in 0..600 {
            let h = r.histogram_with("tk_wide_seconds", "Wide page.", &[("i", &i.to_string())]);
            let mut us = 1.0f64;
            while us < 1e7 {
                h.record_us(us as u64);
                us = us * 1.05 + 1.0;
            }
        }
        let rendering = Arc::new(AtomicBool::new(true));
        let scraper = {
            let (r, rendering) = (Arc::clone(&r), Arc::clone(&rendering));
            std::thread::spawn(move || {
                let started = Instant::now();
                std::hint::black_box(r.render());
                rendering.store(false, Ordering::SeqCst);
                started.elapsed()
            })
        };
        let mut slowest = Duration::ZERO;
        while rendering.load(Ordering::SeqCst) {
            let started = Instant::now();
            std::hint::black_box(r.counter_with("tk_lookups_total", "Lookups.", &[]));
            slowest = slowest.max(started.elapsed());
        }
        let render = scraper.join().unwrap();
        assert!(
            slowest < render / 2,
            "a lookup waited {slowest:?} during a {render:?} render"
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_us(t * 1_000 + i % 97);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 80_000);
        assert_eq!(
            h.snapshot().buckets.iter().sum::<u64>(),
            80_000,
            "bucket counts must sum to the sample count"
        );
    }
}
