//! Reduced-precision arithmetic substrate for approximate Top-K SpMV.
//!
//! The DAC'21 design ("Scaling up HBM Efficiency of Top-K SpMV for
//! Approximate Embedding Similarity on FPGAs") evaluates four numeric
//! configurations: unsigned fixed point `Q1.31` (32 bits), `Q1.24`
//! (25 bits), `Q1.19` (20 bits), and IEEE `binary32` floating point. The
//! GPU baseline additionally uses IEEE `binary16` (half precision).
//!
//! This crate provides bit-exact software implementations of all of them:
//!
//! - [`UFixed`]: unsigned fixed point with one integer bit and a
//!   const-generic total width (`UFixed<20>` = `Q1.19`, etc.);
//! - [`Half`]: software IEEE 754 binary16 with round-to-nearest-even,
//!   used to emulate the GPU half-precision baseline;
//! - [`SpmvScalar`]: the trait the SpMV engine is generic over, defining
//!   encode/decode to raw packet bits, multiplication into an accumulator
//!   domain, and accumulation semantics that mirror the hardware
//!   (wide saturating fixed-point accumulators, native float adders);
//! - [`Precision`]: a runtime tag naming the four FPGA configurations plus
//!   the GPU half-precision mode, used by configuration builders.
//!
//! # Example
//!
//! ```
//! use tkspmv_fixed::{Q1_19, SpmvScalar};
//!
//! let a = Q1_19::from_f64(0.25);
//! let b = Q1_19::from_f64(0.5);
//! let acc = Q1_19::mul(a, b);
//! assert!((Q1_19::acc_to_f64(acc) - 0.125).abs() < 1e-5);
//! ```

// A compute crate: no thread starts but the pool's (`tkspmv::fanout`).
#![cfg_attr(not(test), forbid(clippy::disallowed_methods))]

mod half;
mod precision;
mod scalar;
mod ufixed;

pub use half::Half;
pub use precision::{ParsePrecisionError, Precision, PruneBits};
pub use scalar::{SpmvScalar, F32};
pub use ufixed::{QFormat, UFixed};

/// Unsigned `Q1.3` fixed point (4 bits total), the candidate-generation
/// width of the staged prune + rescore pipeline. Like every [`UFixed`]
/// width: round-to-nearest, saturating to `[0, 2 - 2^-3]`, NaN and
/// negative inputs mapping to zero.
pub type Q1_3 = UFixed<4>;
/// Unsigned `Q1.7` fixed point (8 bits total), the finer prune width.
/// Same rounding/saturation semantics as [`Q1_3`].
pub type Q1_7 = UFixed<8>;
/// Unsigned `Q1.19` fixed point (20 bits total), the most compact format
/// evaluated by the paper.
pub type Q1_19 = UFixed<20>;
/// Unsigned `Q1.24` fixed point (25 bits total).
pub type Q1_24 = UFixed<25>;
/// Unsigned `Q1.31` fixed point (32 bits total).
pub type Q1_31 = UFixed<32>;
