//! The ledger's definitions: workload names, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` at the repo root is
//! rendered from these tables (`spec` subcommand) and a unit test keeps
//! the two identical, so the file and the binary cannot drift.

use crate::json;

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates, recall).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers do the work here and which do none.
    pub why: &'static str,
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, as printed and as keyed in results.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// End-to-end only: the share of the base's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

/// The four workloads, in round-robin order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "direct_b1",
        why: "closed loop, 1 caller, TopKBackend::query on the 32-core paper design: chunk decode and the per-query 32-thread fan-out do the work; serve, fabric and prune do none",
    },
    WorkloadSpec {
        name: "direct_b32",
        why: "same caller, query_batch of 32 on a snapshot-loaded index: decode is amortised 32x so lane replay dominates and fan-out is a few percent; set-up is the snapshot-load path",
    },
    WorkloadSpec {
        name: "served_open",
        why: "open loop, 60 qps Poisson arrivals into a 2-shard coalescing TopKService: the only workload where queue wait, coalesce wait and per-shard dispatch are on the path",
    },
    WorkloadSpec {
        name: "routed_rw",
        why: "2 closed-loop callers via Router over 2 loopback NodeServers (CpuTopK + 8-bit prune, delta shards), both tiers, appends and compactions beside reads; the accelerator engine does none",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported for every workload by an untraced run.
///
/// Bounds are shares of the base median (the driver's definition). The
/// time-based ones sit at the widest a bound may be, a little over
/// twice the widest seed-to-seed spread measured on the sizing host
/// (README, "Measured on the sizing host"). Two of the
/// issue's seven could not carry a bound and are per-layer metrics
/// instead: `failed_share` is 0 on every healthy run, and the p95's
/// spread on `served_open` (0.20–0.35 of its median) is wider than any
/// bound a metric may have.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_qps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.25),
    e2e("recall_at_k", "ratio", Better::Higher, 0.01),
];

/// A run is incorrect below this recall, whatever the base was.
pub const RECALL_FLOOR: f64 = 0.95;
/// A run is incorrect above this share of failed calls.
pub const FAILED_SHARE_BOUND: f64 = 0.001;
/// A traced run is incorrect when more than this share of traced op
/// time lands in no named layer.
pub const UNATTRIBUTED_BOUND: f64 = 0.15;
/// `host.calib_spread_pct` above this marks a run `disturbed`.
pub const DISTURBED_SPREAD_PCT: f64 = 5.0;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, reported by a traced run. Probe metrics time one
/// layer's public functions in isolation and read the same on every
/// workload; observed metrics come from the traced workload itself and
/// read 0 where the layer is not on that workload's path.
pub const PER_LAYER: [MetricSpec; 78] = [
    // fixed
    layer("fixed.quantize_ns_per_elem", "ns", Lower),
    // sparse
    layer("sparse.layout_solve_us", "us", Lower),
    layer("sparse.encode_ns_per_nnz", "ns", Lower),
    layer("sparse.bscsr_bytes_per_nnz", "B", Lower),
    layer("sparse.snapshot_save_ms", "ms", Lower),
    layer("sparse.snapshot_load_ms", "ms", Lower),
    layer("sparse.snapshot_bytes", "B", Lower),
    layer("sparse.prune_build_ms", "ms", Lower),
    layer("sparse.prune_score_ns_per_nnz", "ns", Lower),
    layer("sparse.prune_bytes_per_nnz", "B", Lower),
    // core.engine
    layer("core.engine.serial_b1_ns_per_nnz", "ns", Lower),
    layer("core.engine.serial_b32_ns_per_nnz_lane", "ns", Lower),
    layer("core.engine.decode_ns_per_nnz", "ns", Lower),
    layer("core.engine.replay_ns_per_nnz_lane", "ns", Lower),
    layer("core.engine.decode_share_b1", "ratio", Lower),
    layer("core.engine.decode_share_b32", "ratio", Lower),
    layer("core.engine.packets_per_query", "count", Lower),
    layer("core.engine.entries_per_query", "count", Lower),
    layer("core.engine.rows_dropped_share", "ratio", Lower),
    layer("core.engine.tracker_accept_rate", "ratio", Lower),
    layer("core.engine.partition_skew", "ratio", Lower),
    layer("core.engine.fanout_wait_ms", "ms", Lower),
    layer("core.engine.fanout_wait_share", "ratio", Lower),
    layer("core.engine.stream_gbps", "GB/s", Higher),
    layer("core.engine.stream_efficiency", "ratio", Higher),
    // core.topk
    layer("core.topk.insert_ns", "ns", Lower),
    layer("core.topk.merge_us", "us", Lower),
    // core.pruned
    layer("core.pruned.query_ms", "ms", Lower),
    layer("core.pruned.rescore_ms", "ms", Lower),
    layer("core.pruned.recall_at_k", "ratio", Higher),
    layer("core.pruned.speedup_vs_exact", "ratio", Higher),
    // baselines
    layer("baselines.cpu.query_ms", "ms", Lower),
    layer("baselines.cpu.ns_per_nnz", "ns", Lower),
    // serve
    layer("serve.queue_wait_mean_us", "us", Lower),
    layer("serve.coalesce_wait_mean_us", "us", Lower),
    layer("serve.score_mean_us", "us", Lower),
    layer("serve.merge_mean_us", "us", Lower),
    layer("serve.mean_batch_size", "count", Higher),
    layer("serve.batches_total", "count", Lower),
    layer("serve.shed_total", "count", Lower),
    layer("serve.failed_total", "count", Lower),
    layer("serve.batcher_wakeups_per_request", "ratio", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.build_ms", "ms", Lower),
    layer("serve.closed32_qps", "1/s", Higher),
    layer("serve.generator_late_max_ms", "ms", Lower),
    // fabric
    layer("fabric.wire.query_roundtrip_us", "us", Lower),
    layer("fabric.wire.bytes_per_query", "B", Lower),
    layer("fabric.node.ping_rtt_us", "us", Lower),
    layer("fabric.node.query_ms", "ms", Lower),
    layer("fabric.router.overhead_us", "us", Lower),
    layer("fabric.router.hedged_sends_total", "count", Lower),
    layer("fabric.router.failovers_total", "count", Lower),
    layer("fabric.router.deadline_expiries_total", "count", Lower),
    layer("fabric.router.incomplete_coverage_total", "count", Lower),
    layer("fabric.trace.wire_share", "ratio", Lower),
    layer("fabric.trace.queue_share", "ratio", Lower),
    layer("fabric.trace.score_share", "ratio", Lower),
    layer("fabric.trace.merge_share", "ratio", Lower),
    layer("fabric.delta.append_p50_ms", "ms", Lower),
    layer("fabric.delta.compact_p50_ms", "ms", Lower),
    layer("fabric.delta.rows_appended", "count", Higher),
    layer("fabric.delta.rows_folded", "count", Higher),
    layer("fabric.delta.max_delta_rows", "count", Lower),
    // obs
    layer("obs.record_ns", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // host, client and ledger quality
    layer("host.stream_gbps.resident", "GB/s", Higher),
    layer("host.stream_gbps.dram", "GB/s", Higher),
    layer("host.stream_resident_mib", "MiB", Lower),
    layer("host.stream_dram_mib", "MiB", Lower),
    layer("host.calib_spread_pct", "%", Lower),
    layer("host.steal_pct", "%", Lower),
    layer("process.peak_rss_mib", "MiB", Lower),
    layer("client.latency_p95_ms", "ms", Lower),
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_samples", "count", Higher),
    layer("ledger.unattributed_share", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
];

/// Seconds one driver run measures for; also `run`'s per-workload time.
pub const RUN_SECONDS: u64 = 24;

/// The driver's command line, up to the `--workload ...` it appends.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json`.
pub fn render_benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.label()),
                json::number(m.bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up carries the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is checked in");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .expect("key present")
                .items()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("named")
                        .to_string()
                })
                .collect()
        };
        let table = |specs: &[MetricSpec]| -> Vec<String> {
            specs.iter().map(|m| m.name.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        assert_eq!(
            names("workloads"),
            WORKLOADS.map(|w| w.name.to_string()).to_vec()
        );
        // And byte for byte, so bounds, units and the command agree too.
        assert_eq!(text, render_benchmark_json());
    }
}
