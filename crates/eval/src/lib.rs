//! Evaluation harness: metrics, datasets and experiment drivers that
//! regenerate every table and figure of the paper.
//!
//! | Artifact | Driver | `run_all` section |
//! |----------|--------|-------------------|
//! | Table I (partition precision) | [`experiments::precision_table`] | `table1` |
//! | Table II (resources/clock/power) | [`experiments::resources_table`] | `table2` |
//! | Table III (evaluation matrices) | [`experiments::datasets_table`] | `table3` |
//! | Figure 3 (packing density) | [`experiments::packing`] | `fig3` |
//! | Figure 5 (speedup vs CPU) | [`experiments::speedup`] | `fig5` |
//! | Figure 6 (roofline) | [`experiments::roofline`] | `fig6` |
//! | Figure 7 (accuracy metrics) | [`experiments::accuracy`] | `fig7` |
//! | Power efficiency (§V-B) | [`experiments::power`] | `power` |
//! | `r` ablation (§IV-B) | [`experiments::ablation`] | `ablation_r` |
//! | Layout design space (§IV-C) | [`experiments::ablation`] | `ablation_layout` |
//!
//! Experiments accept an [`ExpConfig`] whose `scale_divisor` shrinks the
//! Table III matrix sizes (default 100×) so the suite runs on a laptop;
//! the performance models are scale-invariant (streaming designs are
//! linear in NNZ), so speedup and accuracy *shapes* are preserved. Run
//! with `scale_divisor = 1` to reproduce at full size.
//!
//! Engine-facing experiments do not hand-wire per-architecture code
//! paths: they enumerate `Box<dyn TopKBackend>` rosters from
//! [`backends`], so a new engine joins every figure by implementing one
//! trait.
//!
//! The binaries in `src/bin` print the tables: `run_all` (one section
//! per artifact above), `autotune` and `fabric_bench`; [`cli`] holds
//! the flags they share.

#![forbid(unsafe_code)]

pub mod autotune;
pub mod backends;
pub mod cli;
pub mod datasets;
mod error;
pub mod experiments;
pub mod metrics;
pub mod report;

pub use error::EvalError;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Divide Table III row counts by this factor (1 = paper scale).
    pub scale_divisor: usize,
    /// Queries averaged per measurement (the paper uses 30).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale_divisor: 100,
            queries: 5,
            seed: 0xDAC_2021,
        }
    }
}

impl ExpConfig {
    /// A tiny configuration for unit tests (1000× smaller, 2 queries).
    pub fn smoke_test() -> Self {
        Self {
            scale_divisor: 1000,
            queries: 2,
            seed: 7,
        }
    }
}
