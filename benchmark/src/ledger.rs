//! The runner: sets every requested workload up (timed, repeated),
//! verifies it, then measures in rounds interleaved round-robin across
//! the workloads with all state kept warm, and turns what the rounds
//! produced into the named metrics.
//!
//! Rates are medians over rounds, latencies are pooled over rounds and
//! set-up is repeated before every round: the sizing host's speed flips
//! by a quarter for seconds at a time, and sampling every quantity at
//! many moments of a run is what keeps two runs of the same code close.

use std::time::{Duration, Instant};

use crate::input::{Inputs, Scale};
use crate::probes::{self, Probes};
use crate::spec::{
    DISTURBED_SPREAD_PCT, END_TO_END, FAILED_SHARE_BOUND, PER_LAYER, RECALL_FLOOR,
    UNATTRIBUTED_BOUND,
};
use crate::workload::{self, Verified, Workload};
use crate::{host, ledger_dir, stats};

/// Measured rounds per workload (after one untimed warm-up round).
pub const ROUNDS: usize = 6;
/// Set-up repetitions timed before each measured round, on a second
/// instance of the workload, so that set-up sees the host at as many
/// moments as the rounds do.
const SETUP_REPS_PER_ROUND: usize = 3;
/// Repetitions of each workload's set-up; `setup_s` is their median.
/// The first builds the instance the rounds run on.
pub const SETUP_REPS: usize = 1 + SETUP_REPS_PER_ROUND * ROUNDS;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed for collection, query pool, arrival schedule and op mix.
    pub seed: u64,
    /// Full Table-III shape or the 1/20 smoke cut.
    pub scale: Scale,
    /// Measured seconds per workload, split into [`ROUNDS`] rounds.
    pub seconds: f64,
    /// Traced run: half the rounds record spans, probes run, and the
    /// result holds the per-layer metrics instead of the end-to-end.
    pub traced: bool,
}

/// One workload's result.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// `(metric, value, unit)`: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Calls attempted in the measured rounds.
    pub attempted: u64,
    /// Calls that errored, were shed or failed their answer check.
    pub failed: u64,
    /// Every answer check held, recall and failed share are inside
    /// their limits, and (traced) the waterfall accounts for the time.
    pub correct: bool,
    /// The calibration kernel's timings spread more than 5 %: the host
    /// changed speed under the run.
    pub disturbed: bool,
}

/// Per-workload accumulators across the interleaved rounds.
struct Slot {
    workload: Box<dyn Workload>,
    /// A second instance whose only job is to have its set-up timed
    /// (untraced runs only; a traced run does not report `setup_s`).
    setup_probe: Option<Box<dyn Workload>>,
    setup_s: Vec<f64>,
    verified: Verified,
    qps: [Vec<f64>; 2],
    cpu_ms_per_query: Vec<f64>,
    latencies_ms: Vec<f64>,
    calib_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// One timed repetition of `workload`'s set-up.
fn timed_setup(workload: &mut dyn Workload, inputs: &Inputs) -> Result<f64, String> {
    let started = Instant::now();
    workload.setup(inputs)?;
    Ok(started.elapsed().as_secs_f64())
}

/// Runs the workloads named in `names` under `plan`.
///
/// # Errors
///
/// An unknown workload name, or a set-up / verification step of the
/// program under test returning an error (a *wrong* answer is not an
/// error: it is counted and makes the result incorrect).
pub fn run(plan: &Plan, names: &[&str]) -> Result<Vec<WorkloadResult>, String> {
    let inputs = Inputs::generate(plan.seed, plan.scale);
    println!(
        "# inputs: {} x {}, {} nnz, seed {:#x}",
        inputs.csr.num_rows(),
        inputs.csr.num_cols(),
        inputs.csr.nnz(),
        plan.seed
    );

    let mut slots = Vec::with_capacity(names.len());
    for name in names {
        let build = || workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"));
        let mut workload = build()?;
        workload.prepare_inputs(&inputs)?;
        let mut setup_probe = if plan.traced { None } else { Some(build()?) };
        if let Some(probe) = &mut setup_probe {
            probe.prepare_inputs(&inputs)?;
        }
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        setup_s.push(timed_setup(workload.as_mut(), &inputs)?);
        let verified = workload.verify(&inputs)?;
        println!(
            "# {name}: verified {} reference answers, {} mismatches, recall@K {:.4}",
            verified.checked, verified.mismatches, verified.recall
        );
        slots.push(Slot {
            workload,
            setup_probe,
            setup_s,
            verified,
            qps: [Vec::new(), Vec::new()],
            cpu_ms_per_query: Vec::new(),
            latencies_ms: Vec::new(),
            calib_s: Vec::new(),
            attempted: 0,
            failed: 0,
        });
    }

    let mut probes = if plan.traced {
        Some(probes::run(&inputs)?)
    } else {
        None
    };

    let round_time = Duration::from_secs_f64(plan.seconds / ROUNDS as f64);
    let steal_before = host::machine_ticks();
    for slot in &mut slots {
        slot.workload
            .round(&inputs, round_time.min(Duration::from_secs(1)), false);
    }
    for r in 0..ROUNDS {
        // A traced run mixes untraced and traced rounds (U T T U U T,
        // which cancels a steady drift), so the two throughputs it
        // compares saw the same host.
        let traced = plan.traced && matches!(r % 4, 1 | 2);
        for slot in &mut slots {
            if let Some(probe) = &mut slot.setup_probe {
                for _ in 0..SETUP_REPS_PER_ROUND {
                    slot.setup_s.push(timed_setup(probe.as_mut(), &inputs)?);
                    probe.teardown();
                }
            }
            slot.calib_s.push(host::calibration_kernel().as_secs_f64());
            let cpu_before = host::cpu_time();
            let round = slot.workload.round(&inputs, round_time, traced);
            let cpu = host::cpu_time().saturating_sub(cpu_before);
            slot.attempted += round.calls;
            slot.failed += round.failed;
            slot.qps[usize::from(traced)].push(round.qps());
            let cpu_ms = cpu.as_secs_f64() * 1e3 / round.queries_ok.max(1) as f64;
            let mut sorted = round.latencies_ms.clone();
            stats::sort_samples(&mut sorted);
            println!(
                "# {} round {r}{}: {:.2} qps, p50 {:.3} ms, p95 {:.3} ms, cpu {:.3} ms/query, {} samples, calib {:.2} ms",
                slot.workload.spec().name,
                if traced { " (traced)" } else { "" },
                round.qps(),
                stats::percentile_sorted(&sorted, 0.5).unwrap_or(0.0),
                stats::percentile_sorted(&sorted, 0.95).unwrap_or(0.0),
                cpu_ms,
                sorted.len(),
                slot.calib_s.last().copied().unwrap_or(0.0) * 1e3,
            );
            if !traced {
                if round.queries_ok > 0 {
                    slot.cpu_ms_per_query.push(cpu_ms);
                }
                slot.latencies_ms.extend(round.latencies_ms);
            }
        }
    }
    let host = HostReadings {
        steal_pct: host::steal_pct(steal_before, host::machine_ticks()),
        peak_rss_mib: host::peak_rss_mib(),
    };
    if let Some(probes) = &mut probes {
        probes.metrics.extend(probes::dram_stream(plan.scale));
    }

    slots
        .into_iter()
        .map(|slot| finish(slot, plan, &inputs, probes.as_ref(), host))
        .collect()
}

/// Whole-run host readings, taken when the measured rounds end.
#[derive(Clone, Copy)]
struct HostReadings {
    steal_pct: f64,
    peak_rss_mib: f64,
}

fn finish(
    mut slot: Slot,
    plan: &Plan,
    inputs: &Inputs,
    probes: Option<&Probes>,
    host: HostReadings,
) -> Result<WorkloadResult, String> {
    let steal_pct = host.steal_pct;
    let name = slot.workload.spec().name;
    let mut latencies = std::mem::take(&mut slot.latencies_ms);
    stats::sort_samples(&mut latencies);
    let pct = |q: f64| stats::percentile_sorted(&latencies, q).unwrap_or(0.0);
    let calib_spread_pct = stats::spread_pct(&slot.calib_s);
    let failed_share = slot.failed as f64 / slot.attempted.max(1) as f64;
    let mut correct = slot.verified.mismatches == 0
        && slot.verified.recall >= RECALL_FLOOR
        && failed_share <= FAILED_SHARE_BOUND;

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if let Some(probes) = probes {
        let observed = slot.workload.observed(inputs, probes);
        let waterfall = slot.workload.waterfall();
        waterfall.print(name);
        let path = ledger_dir()?.join(format!("trace-{name}.jsonl"));
        slot.workload
            .tracer()
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {name}: {} spans written to {}",
            slot.workload.tracer().spans().len(),
            path.display()
        );
        let untraced = stats::mean(&slot.qps[0]);
        let traced = stats::mean(&slot.qps[1]);
        let unattributed = waterfall.unattributed_share();
        correct &= unattributed <= UNATTRIBUTED_BOUND;
        values.extend(probes.metrics.iter().copied());
        values.extend(observed);
        values.extend([
            (
                "trace.overhead_pct",
                100.0 * (1.0 - traced / untraced.max(f64::MIN_POSITIVE)),
            ),
            ("host.calib_spread_pct", calib_spread_pct),
            ("host.steal_pct", steal_pct),
            ("process.peak_rss_mib", host.peak_rss_mib),
            ("client.latency_p95_ms", pct(0.95)),
            ("client.latency_p99_ms", pct(0.99)),
            ("client.latency_samples", latencies.len() as f64),
            ("ledger.unattributed_share", unattributed),
            ("failed_share", failed_share),
        ]);
    } else {
        values.extend([
            ("setup_s", stats::median(&slot.setup_s).unwrap_or(0.0)),
            ("throughput_qps", stats::median(&slot.qps[0]).unwrap_or(0.0)),
            ("latency_p50_ms", pct(0.50)),
            (
                "cpu_ms_per_query",
                stats::median(&slot.cpu_ms_per_query).unwrap_or(0.0),
            ),
            ("recall_at_k", slot.verified.recall),
        ]);
        println!(
            "# {name}: {} latency samples over {ROUNDS} rounds, calibration spread {calib_spread_pct:.1} %, steal {steal_pct:.2} %",
            latencies.len()
        );
    }

    let (checked, mismatches) = slot.workload.finish(inputs)?;
    if checked > 0 {
        println!("# {name}: final check, {checked} answers, {mismatches} mismatches");
    }
    correct &= mismatches == 0;

    // Every defined metric is reported, in definition order; a layer
    // that is not on this workload's path reads 0.
    let defined: &[crate::spec::MetricSpec] = if plan.traced { &PER_LAYER } else { &END_TO_END };
    let metrics = defined
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map_or(0.0, |(_, v)| *v);
            (spec.name, value, spec.unit)
        })
        .collect();
    Ok(WorkloadResult {
        workload: name,
        metrics,
        attempted: slot.attempted,
        failed: slot.failed,
        correct,
        disturbed: calib_spread_pct > DISTURBED_SPREAD_PCT,
    })
}
