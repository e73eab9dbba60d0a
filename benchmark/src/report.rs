//! Output: the `name workload value unit` lines, the driver's one-line
//! JSON result, the result file `run --out` writes, and `compare`.

use crate::host::Fingerprint;
use crate::json::{self, Value};
use crate::ledger::{Plan, WorkloadResult};
use crate::spec::{Better, END_TO_END};

/// Prints every metric of `result` as `name workload value unit`.
pub fn print_metrics(result: &WorkloadResult) {
    for (name, value, unit) in &result.metrics {
        println!("{name} {} {value} {unit}", result.workload);
    }
    if result.disturbed {
        println!("# {}: \"disturbed\": true", result.workload);
    }
}

fn metrics_object(result: &WorkloadResult) -> String {
    let members: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn driver_line(result: &WorkloadResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics_object(result)
    )
}

/// The result file of one `run`: host fingerprint, plan, and every
/// workload's metrics.
pub fn result_file(fingerprint: &Fingerprint, plan: &Plan, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"disturbed\": {}, \"metrics\": {}}}",
                json::quote(r.workload),
                r.correct,
                r.attempted,
                r.failed,
                r.disturbed,
                metrics_object(r)
            )
        })
        .collect();
    format!(
        "{{\n  \"fingerprint\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}},\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"claim\": null,\n  \"workloads\": [\n{}\n  ]\n}}\n",
        fingerprint.nproc,
        json::quote(&fingerprint.cpu_model),
        json::quote(&fingerprint.rustc),
        json::quote(&fingerprint.git_rev),
        plan.seed,
        json::number(plan.seconds),
        plan.traced,
        workloads.join(",\n")
    )
}

/// How one (metric, workload) pair moved between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Cannot be told: a side is missing the value.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` under `bound`, a share of `base`.
pub fn judge(base: f64, new: f64, better: Better, bound: f64) -> Verdict {
    if !(base.is_finite() && new.is_finite()) || base <= 0.0 {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Higher => (new - base) / base,
        Better::Lower => (base - new) / base,
    };
    if gain > bound {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Base value.
    pub base: f64,
    /// New value.
    pub new: f64,
    /// How it moved under the metric's bound.
    pub verdict: Verdict,
    /// A side's run was flagged `disturbed`: read the verdict knowing
    /// the host changed speed under it.
    pub disturbed: bool,
}

fn workload_metrics(doc: &Value) -> Vec<(String, bool, &Value)> {
    doc.get("workloads")
        .map_or(&[][..], Value::items)
        .iter()
        .filter_map(|w| {
            Some((
                w.get("name")?.as_str()?.to_string(),
                w.get("disturbed") == Some(&Value::Bool(true)),
                w.get("metrics")?,
            ))
        })
        .collect()
}

/// Compares two result files: one row per (end-to-end metric, workload)
/// of the base, under the bounds the benchmark fixes.
pub fn compare(base: &Value, new: &Value) -> Vec<Row> {
    let news = workload_metrics(new);
    let mut rows = Vec::new();
    for (workload, base_disturbed, base_metrics) in workload_metrics(base) {
        let other = news.iter().find(|(name, _, _)| *name == workload);
        for spec in &END_TO_END {
            let value = |metrics: &Value| {
                metrics
                    .get(spec.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let b = value(base_metrics);
            let n = other.and_then(|(_, _, metrics)| value(metrics));
            let verdict = match (b, n) {
                (Some(b), Some(n)) => judge(b, n, spec.better, spec.bound),
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name,
                base: b.unwrap_or(f64::NAN),
                new: n.unwrap_or(f64::NAN),
                verdict,
                disturbed: base_disturbed || other.is_some_and(|(_, d, _)| *d),
            });
        }
    }
    rows
}

/// Prints a comparison; every ratio is given with its base.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for r in rows {
        println!(
            "{:<12} {:<18} {:>14.6} {:>14.6} {:>8.4}  {}{}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.verdict.label(),
            if r.disturbed { " (disturbed)" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Scale;

    fn result(workload: &'static str, qps: f64, p50: f64, disturbed: bool) -> WorkloadResult {
        WorkloadResult {
            workload,
            metrics: vec![
                ("throughput_qps", qps, "1/s"),
                ("latency_p50_ms", p50, "ms"),
            ],
            attempted: 10,
            failed: 0,
            correct: true,
            disturbed,
        }
    }

    fn file(results: &[WorkloadResult]) -> Value {
        let plan = Plan {
            seed: 1,
            scale: Scale::Quick,
            seconds: 6.0,
            traced: false,
        };
        let fingerprint = Fingerprint {
            nproc: 2,
            cpu_model: "test \"cpu\"".to_string(),
            rustc: "rustc".to_string(),
            git_rev: "unknown".to_string(),
        };
        json::parse(&result_file(&fingerprint, &plan, results)).expect("result file is JSON")
    }

    #[test]
    fn judge_respects_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 120.0, Higher, 0.1), Verdict::Improved);
        assert_eq!(judge(100.0, 105.0, Higher, 0.1), Verdict::Unchanged);
        assert_eq!(judge(100.0, 85.0, Higher, 0.1), Verdict::Regressed);
        assert_eq!(judge(10.0, 12.0, Lower, 0.1), Verdict::Regressed);
        assert_eq!(judge(10.0, 8.0, Lower, 0.1), Verdict::Improved);
        assert_eq!(judge(10.0, 10.5, Lower, 0.1), Verdict::Unchanged);
        assert_eq!(judge(0.0, 1.0, Lower, 0.1), Verdict::Unresolved);
        assert_eq!(judge(f64::NAN, 1.0, Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_walks_every_pair_and_flags_what_it_cannot_tell() {
        let base = file(&[
            result("direct_b1", 100.0, 10.0, false),
            result("routed_rw", 500.0, 3.0, false),
            result("served_open", 60.0, 12.0, true),
        ]);
        let new = file(&[
            result("direct_b1", 130.0, 10.2, false),
            result("routed_rw", 300.0, 3.0, false),
            result("served_open", 60.0, 20.0, false),
        ]);
        let rows = compare(&base, &new);
        assert_eq!(rows.len(), 3 * END_TO_END.len());
        let verdict = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .expect("row present")
                .verdict
        };
        assert_eq!(verdict("direct_b1", "throughput_qps"), Verdict::Improved);
        assert_eq!(verdict("direct_b1", "latency_p50_ms"), Verdict::Unchanged);
        assert_eq!(verdict("routed_rw", "throughput_qps"), Verdict::Regressed);
        // A metric a file does not hold is unresolved; a disturbed side
        // is flagged on its rows but judged all the same.
        assert_eq!(verdict("direct_b1", "setup_s"), Verdict::Unresolved);
        assert_eq!(verdict("served_open", "throughput_qps"), Verdict::Unchanged);
        assert_eq!(verdict("served_open", "latency_p50_ms"), Verdict::Regressed);
        let flagged: Vec<&str> = rows
            .iter()
            .filter(|r| r.disturbed)
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(flagged, vec!["served_open"; END_TO_END.len()]);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&result("direct_b1", 100.0, 10.0, false));
        let v = json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let qps = v
            .get("metrics")
            .and_then(|m| m.get("throughput_qps"))
            .expect("metric present");
        assert_eq!(qps.get("value").and_then(Value::as_f64), Some(100.0));
        assert_eq!(qps.get("unit").and_then(Value::as_str), Some("1/s"));
        assert!(!line.contains('\n'));
    }
}
