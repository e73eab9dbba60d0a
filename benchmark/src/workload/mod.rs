//! The four workloads and what they share.
//!
//! A workload is set up (timed, repeated), verified against reference
//! answers (untimed), then measured in rounds. The runner in
//! [`crate::ledger`] owns the schedule; a workload owns its state, its
//! load generator and its answer checks.

use std::time::Duration;

use tkspmv::Accelerator;

use crate::input::Inputs;
use crate::probes::Probes;
use crate::span::{Tracer, Waterfall};
use crate::spec::WorkloadSpec;

pub mod direct;
pub mod routed;
pub mod served;

/// The paper's accelerator design: 32 cores, k = 8, Q1.19.
pub fn paper_design() -> Accelerator {
    Accelerator::builder()
        .build()
        .expect("the paper design (32 cores, k = 8, Q1.19) always builds")
}

/// What one measured round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time the load ran for.
    pub elapsed: Duration,
    /// Part of `elapsed` the harness spent on its own tracing work
    /// (replaying an op's constituent calls); taken out of rates.
    pub excluded: Duration,
    /// Calls attempted (a query, a batch, an append, a compaction).
    pub calls: u64,
    /// Calls that errored, were shed, or failed their answer check.
    pub failed: u64,
    /// Queries answered and verified correct (a 32-batch counts 32).
    pub queries_ok: u64,
    /// Latency of every verified query call, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl Round {
    /// Verified queries per second of load time.
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.saturating_sub(self.excluded).as_secs_f64();
        if secs > 0.0 {
            self.queries_ok as f64 / secs
        } else {
            0.0
        }
    }
}

/// Outcome of the pre-timing verification pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verified {
    /// Mean recall@K of the workload's answers against the oracle.
    pub recall: f64,
    /// Comparisons made.
    pub checked: u64,
    /// Comparisons that did not hold bit for bit.
    pub mismatches: u64,
}

/// Per-layer metrics a workload observed in its traced rounds.
pub type Observed = Vec<(&'static str, f64)>;

/// One workload. Methods are called in the order set up → verify →
/// rounds → (observed) → finish; `setup` may be called several times
/// and each call replaces the state of the one before.
pub trait Workload {
    /// Name and rationale.
    fn spec(&self) -> &'static WorkloadSpec;

    /// Work the set-up needs that is not the program's set-up path
    /// (writing the snapshot `direct_b32` loads). Untimed, called once.
    fn prepare_inputs(&mut self, _inputs: &Inputs) -> Result<(), String> {
        Ok(())
    }

    /// Stops what the last `setup` started. Untimed; called before
    /// every repeated `setup` and by `finish`.
    fn teardown(&mut self) {}

    /// The program's set-up path, from inputs in hand to first answer
    /// possible. The runner times this call.
    fn setup(&mut self, inputs: &Inputs) -> Result<(), String>;

    /// Builds the reference answers and checks the workload's path
    /// against them on the reference queries, before any timing.
    fn verify(&mut self, inputs: &Inputs) -> Result<Verified, String>;

    /// Generates load for `duration`; with `traced`, records spans.
    fn round(&mut self, inputs: &Inputs, duration: Duration, traced: bool) -> Round;

    /// Per-layer metrics observed in the traced rounds.
    fn observed(&mut self, inputs: &Inputs, probes: &Probes) -> Observed;

    /// The spans recorded so far.
    fn tracer(&self) -> &Tracer;

    /// Where the traced ops' time went.
    fn waterfall(&self) -> &Waterfall;

    /// Final answer checks and shutdown. Returns `(checked, mismatches)`.
    fn finish(&mut self, inputs: &Inputs) -> Result<(u64, u64), String>;
}

/// Builds the workload named `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "direct_b1" => Some(Box::new(direct::Direct::new(direct::Mode::Single))),
        "direct_b32" => Some(Box::new(direct::Direct::new(direct::Mode::Batch))),
        "served_open" => Some(Box::new(served::ServedOpen::new())),
        "routed_rw" => Some(Box::new(routed::RoutedRw::new())),
        _ => None,
    }
}
