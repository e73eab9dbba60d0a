//! Spans recorded by the benchmark's own code around each call into a
//! layer, kept in memory during the traced run and written out as JSON
//! lines when it ends; plus the per-workload layer waterfall derived
//! from them. Spans *inside* the program are a later issue.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.engine.partition`.
    pub name: &'static str,
    /// The op (request) this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the span that caused this one, `None` for an op's root.
    pub parent: Option<u32>,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: u64,
}

/// In-memory span store for one traced workload run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records `[start, end]` and returns the span's index, to be used
    /// as the `parent` of the spans it caused.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            op,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Records a span given as an offset and length in microseconds
    /// from `base` — how service- and router-reported stage intervals
    /// (which arrive as durations, not instants) enter the trace.
    pub fn record_offset(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        base: Instant,
        offset_us: u64,
        dur_us: u64,
    ) -> u32 {
        let start_us = self.us(base) + offset_us;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us + dur_us,
        });
        (self.spans.len() - 1) as u32
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.op, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Where the traced ops' time went, layer by layer. A layer's entry is
/// its self time: its spans minus the part their children cover.
#[derive(Debug, Clone, Default)]
pub struct Waterfall {
    /// Decomposed ops behind the totals.
    pub ops: u64,
    /// Summed root-span time of those ops, seconds.
    pub total_s: f64,
    /// `(layer, self seconds)` in first-seen (pipeline) order.
    pub layers: Vec<(&'static str, f64)>,
}

impl Waterfall {
    /// Opens one decomposed op of `root_s` seconds.
    pub fn op(&mut self, root_s: f64) {
        self.ops += 1;
        self.total_s += root_s;
    }

    /// Attributes `secs` of self time to `layer`.
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        match self.layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, total)) => *total += secs,
            None => self.layers.push((layer, secs)),
        }
    }

    /// Seconds attributed to `layer`.
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s)
    }

    /// `layer`'s share of the traced op time.
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_s > 0.0 {
            self.layer_s(layer) / self.total_s
        } else {
            0.0
        }
    }

    /// Share of the traced op time no layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        let attributed: f64 = self.layers.iter().map(|(_, s)| s).sum();
        ((self.total_s - attributed) / self.total_s).max(0.0)
    }

    /// Prints the waterfall for `workload`.
    pub fn print(&self, workload: &str) {
        println!(
            "waterfall {workload}: {} decomposed ops, {:.3} ms mean",
            self.ops,
            1e3 * self.total_s / self.ops.max(1) as f64
        );
        for (layer, secs) in &self.layers {
            println!(
                "  {layer:<28} {:>10.3} ms/op {:>6.1} %",
                1e3 * secs / self.ops.max(1) as f64,
                100.0 * secs / self.total_s.max(f64::MIN_POSITIVE)
            );
        }
        println!(
            "  {:<28} {:>10} {:>8.1} %",
            "(unattributed)",
            "",
            100.0 * self.unattributed_share()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_and_op_and_serialise_one_per_line() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.record("client.op", 7, None, t0, t0 + Duration::from_micros(900));
        let child = t.record_offset("serve.queue", 7, Some(root), t0, 100, 250);
        assert_eq!((root, child), (0, 1));
        let s = &t.spans()[1];
        assert_eq!((s.op, s.parent), (7, Some(0)));
        assert_eq!(s.end_us - s.start_us, 250);
        assert_eq!(s.start_us - t.spans()[0].start_us, 100);

        let dir = std::env::temp_dir().join(format!("tkspmv-bench-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads back");
        std::fs::remove_dir_all(&dir).expect("cleans up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = crate::json::parse(line).expect("each line is JSON");
            assert!(v.get("name").is_some() && v.get("op").is_some());
        }
    }

    #[test]
    fn waterfall_self_times_sum_to_the_total_or_show_the_gap() {
        let mut w = Waterfall::default();
        w.op(0.010);
        w.add("serve.queue", 0.002);
        w.add("core.engine", 0.005);
        w.op(0.010);
        w.add("serve.queue", 0.001);
        w.add("core.engine", 0.006);
        assert_eq!(w.ops, 2);
        assert!((w.layer_s("serve.queue") - 0.003).abs() < 1e-12);
        assert!((w.share("core.engine") - 0.55).abs() < 1e-9);
        assert!((w.unattributed_share() - 0.30).abs() < 1e-9);
        // Over-attribution clamps at zero rather than going negative.
        w.add("core.engine", 1.0);
        assert_eq!(w.unattributed_share(), 0.0);
        assert_eq!(Waterfall::default().unattributed_share(), 0.0);
    }
}
