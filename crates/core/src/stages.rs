//! Per-batch engine stage times, carried by value.
//!
//! The serve layer attributes a request's engine interval to pipeline
//! stages: packet decode vs. scoring on the exact path, prune pass vs.
//! exact rescore on the staged path. Each engine call measures its own
//! stages into plain locals ([`crate::BatchScratch`] accumulates the
//! decode/score split per chunk; `PrunedBackend` times its two phases)
//! and returns them in a [`StageTimes`] beside its result, so the
//! attribution is exact per call however many calls run concurrently.

use std::time::Duration;

/// Time one backend call spent in each engine stage.
///
/// The four stages are disjoint: a staged query's `rescore` excludes
/// the `decode`/`score` its inner engine call reports, so
/// [`StageTimes::total`] never exceeds the call's wall time. A call that
/// fans out over participants reports `decode`/`score` of its busiest
/// participant, summed over the partitions that participant walked —
/// the one sequence of work that spans the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Packet decode: chunk → flat arrays + segment program.
    pub decode: Duration,
    /// Exact scoring: gather-multiply-accumulate and Top-K offers.
    pub score: Duration,
    /// Low-bit prune pass, shortlist cut and shortlist gather.
    pub prune: Duration,
    /// Shortlist rescore outside the inner engine's own stages (its
    /// `prepare` of the gathered rows, fan-out and merge).
    pub rescore: Duration,
}

impl StageTimes {
    /// Sum of the four stages.
    pub fn total(&self) -> Duration {
        self.decode + self.score + self.prune + self.rescore
    }
}
