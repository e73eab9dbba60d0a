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
/// The accelerator reports `decode`/`score`; a staged query reports
/// `prune`/`rescore`, or the wrapped backend's stages when it falls
/// through to the exact path. A call that fans out over participants
/// reports `decode`/`score` of its busiest participant, summed over the
/// partitions that participant walked — the one sequence of work that
/// spans the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Packet decode: a chunk's `idx`/`val` fields → flat arrays.
    pub decode: Duration,
    /// Exact scoring: lane replay's gather-multiply-accumulate and the
    /// select step's Top-K offers.
    pub score: Duration,
    /// Low-bit prune pass and shortlist cut.
    pub prune: Duration,
    /// Exact rescore of the shortlist.
    pub rescore: Duration,
}

impl StageTimes {
    /// Sum of the four stages.
    pub fn total(&self) -> Duration {
        self.decode + self.score + self.prune + self.rescore
    }
}
