//! Per-query stage spans, the preallocated ring they are recorded
//! into, and the cross-node trace tree a router assembles from them.
//!
//! A *stage span* says "this query spent `dur_us` in stage S starting
//! `start_us` after the query began". The serve layer records a flat,
//! bounded set of spans per query into a [`SpanRing`] — a ring whose
//! slots are reserved up front, so recording is a short memcpy under a
//! mutex with no allocation. The fabric layer propagates a 16-byte
//! [`TraceId`] over the wire and the router reassembles the per-node
//! spans into one [`QueryTrace`] tree, kept in a ring of its own and
//! rendered as JSON by the `tkspmv_trace` dump tool.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// The pipeline stages a query passes through, across all layers.
///
/// The discriminant is the stable on-wire encoding (fabric frames carry
/// spans as `(stage u8, start_us u32, dur_us u32)` triples), so
/// variants must never be renumbered — append only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Waiting in the submission queue before the batcher takes it.
    #[default]
    Queue = 0,
    /// Held by the batcher while it coalesces company for the batch.
    Coalesce = 1,
    /// BS-CSR packet decode inside the engine (chunk → flat arrays). A
    /// one-lane batch whose sums cannot saturate has no flat arrays: it
    /// slices each packet straight into products and running sums, and
    /// that whole pass is timed here.
    Decode = 2,
    /// Exact scoring: gather–multiply–accumulate plus top-k offers.
    /// The engine's select step (the floor-filtered offers and the
    /// Top-K drain) is timed here too; it has no stage of its own.
    Score = 3,
    /// Low-bit prune pass of the staged two-phase pipeline.
    Prune = 4,
    /// Exact rescore of the pruned shortlist.
    Rescore = 5,
    /// Cross-shard (or delta) top-k merge.
    Merge = 6,
    /// Wire time: encode + network round-trip as seen by the caller.
    Wire = 7,
    /// Router fan-out: dispatching the query to every shard. No layer
    /// records it yet; the discriminant is reserved for it.
    Fanout = 8,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Queue,
        Stage::Coalesce,
        Stage::Decode,
        Stage::Score,
        Stage::Prune,
        Stage::Rescore,
        Stage::Merge,
        Stage::Wire,
        Stage::Fanout,
    ];

    /// Number of stages (`Stage::ALL.len()`).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase name, used as the `stage` metric label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Coalesce => "coalesce",
            Stage::Decode => "decode",
            Stage::Score => "score",
            Stage::Prune => "prune",
            Stage::Rescore => "rescore",
            Stage::Merge => "merge",
            Stage::Wire => "wire",
            Stage::Fanout => "fanout",
        }
    }

    /// Decodes a wire discriminant; `None` for unknown values (a newer
    /// peer may send stages this build does not know about).
    pub fn from_u8(b: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| *s as u8 == b)
    }
}

/// Time spent in each [`Stage`], carried by value.
///
/// The one stage-timing type of every layer: the engine fills
/// decode/score, the pruned tier prune/rescore, and the serve layer
/// adds queue/coalesce/merge around them. Each call measures its own
/// stages into one of these and returns it beside its result, so the
/// attribution is exact per call however many calls run concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stages([Duration; Stage::COUNT]);

impl Stages {
    /// Time recorded for `stage`.
    #[inline]
    pub fn get(&self, stage: Stage) -> Duration {
        self.0[stage as usize]
    }

    /// Adds `d` to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.0[stage as usize] += d;
    }

    /// Sum over every stage.
    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }

    /// `(stage, duration)` for every stage, in [`Stage::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Duration)> + '_ {
        Stage::ALL.into_iter().zip(self.0)
    }

    /// Lays the stages out as sequential spans, in [`Stage::ALL`]
    /// order, inside a query of `total` — truncated so the record never
    /// escapes `[0, total]` and span durations always sum to at most
    /// the total. Zero-length stages leave no span.
    pub fn to_span_record(&self, trace_id: TraceId, total: Duration) -> SpanRecord {
        let total_us = u32::try_from(total.as_micros()).unwrap_or(u32::MAX);
        let mut rec = SpanRecord::new(trace_id, total_us);
        let mut cursor: u64 = 0;
        for (stage, d) in self.iter() {
            let dur = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
            let start = cursor.min(u64::from(total_us));
            let dur = dur.min(u64::from(total_us) - start);
            rec.push(stage, start as u32, dur as u32);
            cursor = start + dur;
        }
        rec
    }
}

/// A 16-byte query trace id, carried across the fabric wire so every
/// node's spans can be stitched back into one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub [u8; 16]);

/// Process-local sequence mixed into generated ids.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    /// The all-zero id, meaning "not traced".
    pub const ZERO: TraceId = TraceId([0u8; 16]);

    /// Generates a unique-enough id from the wall clock, a process-wide
    /// sequence number, and a thread-dependent address — no external
    /// randomness source needed (std-only crate).
    pub fn generate() -> TraceId {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // ordering: uniqueness ticket; only fetch_add's atomicity
        // matters, no cross-thread data is published under it.
        let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        // SplitMix64 finalisers decorrelate the two words.
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&splitmix(nanos ^ seq.rotate_left(32)).to_le_bytes());
        bytes[8..]
            .copy_from_slice(&splitmix(seq.wrapping_add(0x9E37_79B9_7F4A_7C15)).to_le_bytes());
        TraceId(bytes)
    }

    /// True for the all-zero ("not traced") id.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 16]
    }

    /// Lowercase hex rendering (32 chars).
    // alloc-ok(fn): export/log formatting, never on the record path.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One stage interval inside a query, offsets relative to the query's
/// start on the recording node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSpan {
    /// Which stage (defaults to [`Stage::Queue`] in empty slots).
    pub stage: Stage,
    /// Microseconds from query start to stage start.
    pub start_us: u32,
    /// Stage duration in microseconds.
    pub dur_us: u32,
}

/// Spans a single [`SpanRecord`] can hold — enough for every stage plus
/// headroom, fixed so ring slots never allocate.
pub const MAX_SPANS_PER_RECORD: usize = 16;

/// A completed query's flat span set, sized for ring storage (no heap).
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The query's trace id ([`TraceId::ZERO`] when untraced).
    pub trace_id: TraceId,
    /// End-to-end latency in microseconds.
    pub total_us: u32,
    /// Number of valid entries in `spans`, at most
    /// [`MAX_SPANS_PER_RECORD`]: private, so [`SpanRecord::spans`] never
    /// slices past the array.
    len: u8,
    /// The stage spans (only `spans[..len]` are meaningful).
    spans: [StageSpan; MAX_SPANS_PER_RECORD],
}

impl SpanRecord {
    /// An empty record for `trace_id` with the given total latency.
    pub fn new(trace_id: TraceId, total_us: u32) -> Self {
        Self {
            trace_id,
            total_us,
            len: 0,
            spans: [StageSpan::default(); MAX_SPANS_PER_RECORD],
        }
    }

    /// Appends a span; silently drops once full (bounded by design) and
    /// skips zero-duration spans to keep records readable.
    pub fn push(&mut self, stage: Stage, start_us: u32, dur_us: u32) {
        if dur_us != 0 {
            self.push_span(StageSpan {
                stage,
                start_us,
                dur_us,
            });
        }
    }

    /// Appends `span` as it is, a zero-duration one included (the wire
    /// decoder keeps what a peer sent); silently drops once full.
    pub fn push_span(&mut self, span: StageSpan) {
        if let Some(slot) = self.spans.get_mut(usize::from(self.len)) {
            *slot = span;
            self.len += 1;
        }
    }

    /// The valid spans.
    pub fn spans(&self) -> &[StageSpan] {
        &self.spans[..self.len as usize]
    }
}

/// Equal ids, totals and valid spans; the unused slots do not count.
impl PartialEq for SpanRecord {
    fn eq(&self, other: &Self) -> bool {
        self.trace_id == other.trace_id
            && self.total_us == other.total_us
            && self.spans() == other.spans()
    }
}

impl Eq for SpanRecord {}

/// A record a [`SpanRing`] keeps: it knows its query's end-to-end
/// latency, the order [`SpanRing::slowest`] ranks by.
pub trait RingRecord: Clone {
    /// End-to-end latency in microseconds.
    fn total_us(&self) -> u64;
}

impl RingRecord for SpanRecord {
    fn total_us(&self) -> u64 {
        u64::from(self.total_us)
    }
}

impl RingRecord for QueryTrace {
    fn total_us(&self) -> u64 {
        self.total_us
    }
}

struct RingInner<T> {
    /// Reserved at full capacity up front; filled by push, then
    /// overwritten in place.
    slots: Vec<T>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

/// A bounded ring of the most recent queries' records: serve keeps
/// [`SpanRecord`]s, the router assembled [`QueryTrace`]s.
///
/// The slots are reserved at construction, so recording a
/// [`SpanRecord`] is one fixed-size copy under a mutex with no
/// allocation, safe on the request completion path. `slowest` scans the
/// ring (O(capacity)) off the hot path.
pub struct SpanRing<T> {
    inner: Mutex<RingInner<T>>,
}

impl<T> std::fmt::Debug for SpanRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("SpanRing")
            .field("capacity", &inner.capacity)
            .field("filled", &inner.slots.len())
            .finish()
    }
}

impl<T: RingRecord> SpanRing<T> {
    /// A ring with `capacity` reserved slots (min 1).
    // alloc-ok(fn): one-time slot reservation at construction —
    // record() then fills and overwrites slots in place.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(RingInner {
                slots: Vec::with_capacity(capacity),
                capacity,
                next: 0,
            }),
        }
    }

    /// Records a completed query (overwrites the oldest slot once full).
    pub fn record(&self, rec: &T) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.slots.len() < inner.capacity {
            inner.slots.push(rec.clone());
        } else {
            let at = inner.next;
            inner.slots[at] = rec.clone();
            inner.next = (at + 1) % inner.capacity;
        }
    }

    /// The `n` slowest recorded queries, descending by total latency.
    // alloc-ok(fn): scrape/debug-time copy out of the ring; the copy
    // also keeps the sort outside the ring mutex.
    pub fn slowest(&self, n: usize) -> Vec<T> {
        let mut filled = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .clone();
        filled.sort_by_key(|r| std::cmp::Reverse(r.total_us()));
        filled.truncate(n);
        filled
    }
}

/// One node of an assembled trace tree: a named interval with its
/// stage spans and child nodes (e.g. the router span with one child
/// per fabric node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Human-readable owner, e.g. `router` or `node:127.0.0.1:4400`.
    pub name: String,
    /// Microseconds from the *root* query start to this interval.
    pub start_us: u32,
    /// Interval duration in microseconds.
    pub dur_us: u32,
    /// Flat stage spans inside this interval (offsets relative to the
    /// interval's own start).
    pub stages: Vec<StageSpan>,
    /// Child intervals (offsets relative to this interval's start).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leafless node covering `[start_us, start_us + dur_us)`.
    // alloc-ok(fn): trace-tree assembly, only for traced (sampled)
    // queries; the empty vecs allocate on first push.
    pub fn new(name: impl Into<String>, start_us: u32, dur_us: u32) -> Self {
        Self {
            name: name.into(),
            start_us,
            dur_us,
            stages: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Checks the structural invariants of this subtree:
    /// every child interval lies inside its parent, every stage span
    /// lies inside its node, and the per-node stage durations sum to at
    /// most the node's duration (stages are disjoint pipeline phases).
    pub fn is_well_formed(&self) -> bool {
        let end = u64::from(self.start_us) + u64::from(self.dur_us);
        let stage_sum: u64 = self.stages.iter().map(|s| u64::from(s.dur_us)).sum();
        if stage_sum > u64::from(self.dur_us) {
            return false;
        }
        for s in &self.stages {
            if u64::from(s.start_us) + u64::from(s.dur_us) > u64::from(self.dur_us) {
                return false;
            }
        }
        self.children.iter().all(|c| {
            u64::from(c.start_us) + u64::from(c.dur_us) <= end - u64::from(self.start_us)
                && c.is_well_formed()
        })
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":{},\"start_us\":{},\"dur_us\":{},\"stages\":[",
            json_string(&self.name),
            self.start_us,
            self.dur_us
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                s.stage.name(),
                s.start_us,
                s.dur_us
            );
        }
        out.push_str("],\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// A fully assembled per-query trace: the root interval (the caller's
/// view) plus everything reported underneath it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The id every participating node stamped its spans with.
    pub trace_id: TraceId,
    /// End-to-end latency as measured at the root, microseconds.
    pub total_us: u64,
    /// The root interval (its `start_us` is 0 by construction).
    pub root: SpanNode,
}

impl QueryTrace {
    /// Structural well-formedness of the whole tree (see
    /// [`SpanNode::is_well_formed`]), plus the root fitting the
    /// measured end-to-end latency.
    pub fn is_well_formed(&self) -> bool {
        self.root.start_us == 0
            && u64::from(self.root.dur_us) <= self.total_us
            && self.root.is_well_formed()
    }

    /// Renders the trace as a single JSON object (no trailing newline).
    // alloc-ok(fn): export-time rendering, never on the record path.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"total_us\":{},\"root\":",
            self.trace_id.to_hex(),
            self.total_us
        );
        self.root.write_json(&mut out);
        out.push('}');
        out
    }
}

// alloc-ok(fn): export-time rendering, never on the record path.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_distinct_and_hex_renders() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert!(!a.is_zero());
        assert!(TraceId::ZERO.is_zero());
        assert_eq!(a.to_hex().len(), 32);
        assert!(a.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn stage_wire_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
        assert_eq!(Stage::from_u8(200), None);
    }

    #[test]
    fn stage_breakdown_spans_stay_inside_the_query() {
        let mut b = Stages::default();
        b.add(Stage::Queue, Duration::from_micros(100));
        b.add(Stage::Coalesce, Duration::from_micros(50));
        b.add(Stage::Decode, Duration::from_micros(120));
        b.add(Stage::Score, Duration::from_micros(280));
        b.add(Stage::Merge, Duration::from_micros(30));
        let span = |rec: &SpanRecord, stage: Stage| {
            let s = rec.spans().iter().find(|s| s.stage == stage);
            s.map(|s| (s.start_us, s.dur_us))
        };
        // Stages are laid end to end: merge starts where score ends.
        let rec = b.to_span_record(TraceId::ZERO, Duration::from_micros(600));
        assert_eq!(span(&rec, Stage::Decode), Some((150, 120)));
        assert_eq!(span(&rec, Stage::Score), Some((270, 280)));
        assert_eq!(span(&rec, Stage::Merge), Some((550, 30)));
        // A total shorter than the stages truncates; it never escapes.
        let rec = b.to_span_record(TraceId::ZERO, Duration::from_micros(300));
        let sum: u64 = rec.spans().iter().map(|s| u64::from(s.dur_us)).sum();
        assert_eq!(sum, 300);
        for s in rec.spans() {
            assert!(u64::from(s.start_us) + u64::from(s.dur_us) <= 300);
        }
        assert_eq!(span(&rec, Stage::Score), Some((270, 30)));
        assert_eq!(span(&rec, Stage::Merge), None);
    }

    /// Every stage gets a span, contiguous and in [`Stage::ALL`] order:
    /// the order wire frames carry and trace readers lay out.
    #[test]
    fn every_stage_is_laid_out_contiguously_in_pipeline_order() {
        let mut b = Stages::default();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            b.add(stage, Duration::from_micros(10 * i as u64 + 7));
        }
        assert_eq!(b.total(), Duration::from_micros(423));
        let rec = b.to_span_record(TraceId::ZERO, b.total());
        let laid: Vec<Stage> = rec.spans().iter().map(|s| s.stage).collect();
        assert_eq!(laid, Stage::ALL);
        let mut cursor = 0;
        for (s, (_, d)) in rec.spans().iter().zip(b.iter()) {
            assert_eq!((s.start_us, u128::from(s.dur_us)), (cursor, d.as_micros()));
            cursor += s.dur_us;
        }
        assert_eq!(cursor, rec.total_us);
    }

    #[test]
    fn span_record_bounds_and_skips_zero() {
        let mut r = SpanRecord::new(TraceId::generate(), 1000);
        r.push(Stage::Queue, 0, 0); // zero-duration: dropped
        for i in 0..(MAX_SPANS_PER_RECORD as u32 + 4) {
            r.push(Stage::Decode, i, 1);
        }
        assert_eq!(r.spans().len(), MAX_SPANS_PER_RECORD);
    }

    #[test]
    fn push_span_keeps_zero_durations_up_to_the_cap() {
        let mut r = SpanRecord::new(TraceId::ZERO, 1000);
        let span = |start_us| StageSpan {
            stage: Stage::Wire,
            start_us,
            dur_us: 0,
        };
        for i in 0..(MAX_SPANS_PER_RECORD as u32 + 4) {
            r.push_span(span(i));
        }
        let kept: Vec<StageSpan> = (0..MAX_SPANS_PER_RECORD as u32).map(span).collect();
        assert_eq!(r.spans(), kept);
    }

    #[test]
    fn ring_overwrites_oldest_and_finds_slowest() {
        fn check<T: RingRecord>(record: impl Fn(u32) -> T) {
            let ring = SpanRing::new(4);
            assert!(ring.slowest(1).is_empty());
            for total in [10u32, 50, 30, 20, 40] {
                ring.record(&record(total));
            }
            // Capacity 4: the first record (10) was overwritten.
            let slowest: Vec<u64> = ring.slowest(2).iter().map(T::total_us).collect();
            assert_eq!(slowest, vec![50, 40]);
            let all: Vec<u64> = ring.slowest(100).iter().map(T::total_us).collect();
            assert_eq!(all, vec![50, 40, 30, 20]);
        }
        check(|total| SpanRecord::new(TraceId::generate(), total));
        check(|total| QueryTrace {
            trace_id: TraceId::generate(),
            total_us: u64::from(total),
            root: SpanNode::new("router", 0, total),
        });
    }

    #[test]
    fn well_formedness_catches_escaping_children() {
        let mut root = SpanNode::new("router", 0, 100);
        root.stages.push(StageSpan {
            stage: Stage::Fanout,
            start_us: 0,
            dur_us: 10,
        });
        let mut child = SpanNode::new("node:a", 10, 80);
        child.stages.push(StageSpan {
            stage: Stage::Queue,
            start_us: 0,
            dur_us: 40,
        });
        root.children.push(child);
        let trace = QueryTrace {
            trace_id: TraceId::generate(),
            total_us: 120,
            root: root.clone(),
        };
        assert!(trace.is_well_formed());

        // A child extending past its parent is rejected.
        let mut bad = root.clone();
        bad.children[0].dur_us = 200;
        assert!(!bad.is_well_formed());

        // Stage durations summing past the node are rejected.
        let mut bad = root;
        bad.stages.push(StageSpan {
            stage: Stage::Merge,
            start_us: 0,
            dur_us: 95,
        });
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let mut root = SpanNode::new("node \"x\"", 0, 5);
        root.stages.push(StageSpan {
            stage: Stage::Merge,
            start_us: 1,
            dur_us: 2,
        });
        let t = QueryTrace {
            trace_id: TraceId([0xAB; 16]),
            total_us: 7,
            root,
        };
        let json = t.to_json();
        assert!(json.starts_with("{\"trace_id\":\"abababab"));
        assert!(json.contains("\"stage\":\"merge\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.ends_with("\"children\":[]}}"));
    }
}
