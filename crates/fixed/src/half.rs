//! Software IEEE 754 binary16 ("half precision"), used to emulate the
//! GPU `F16` baseline bit-exactly.

use core::fmt;

/// An IEEE 754 binary16 value stored in its 16-bit interchange format.
///
/// Conversions use round-to-nearest-even, the default rounding mode on
/// NVIDIA GPUs, so software results match what cuSPARSE would produce with
/// `__half` arithmetic (each primitive operation computed exactly, then
/// rounded to binary16).
///
/// # Example
///
/// ```
/// use tkspmv_fixed::Half;
///
/// let x = Half::from_f32(0.1);
/// // binary16 has ~3 decimal digits of precision.
/// assert!((x.to_f32() - 0.1).abs() < 1e-4);
/// assert_eq!(Half::from_f32(1.0).to_bits(), 0x3C00);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Half(u16);

impl Half {
    /// Positive zero.
    pub const ZERO: Self = Half(0);
    /// One.
    pub const ONE: Self = Half(0x3C00);
    /// Largest finite value, `65504`.
    pub const MAX: Self = Half(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: Self = Half(0x7C00);

    /// Creates a `Half` from its raw bit pattern.
    pub fn from_bits(bits: u16) -> Self {
        Half(bits)
    }

    /// Returns the raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let x = value.to_bits();
        let sign = ((x >> 16) & 0x8000) as u16;
        let exp = ((x >> 23) & 0xFF) as i32;
        let mant = x & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN: preserve class (quiet NaN payload bit set).
            let nan_payload = if mant != 0 { 0x0200 } else { 0 };
            return Half(sign | 0x7C00 | nan_payload | ((mant >> 13) as u16 & 0x03FF));
        }

        // Unbiased exponent; binary16 bias is 15, binary32 bias is 127.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows to infinity.
            return Half(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range: keep 10 mantissa bits, round to nearest even.
            let half_exp = (unbiased + 15) as u32;
            let mant_with_round = mant + round_increment(mant, 13);
            if mant_with_round & 0x0080_0000 != 0 {
                // Mantissa rounding overflowed into the exponent.
                let half_exp = half_exp + 1;
                if half_exp >= 31 {
                    return Half(sign | 0x7C00);
                }
                return Half(sign | ((half_exp as u16) << 10));
            }
            return Half(sign | ((half_exp as u16) << 10) | ((mant_with_round >> 13) as u16));
        }
        if unbiased >= -25 {
            // Subnormal range: shift the (implicit-1-extended) mantissa.
            let full_mant = mant | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let rounded = (full_mant + round_increment(full_mant, shift)) >> shift;
            return Half(sign | rounded as u16);
        }
        // Underflows to zero.
        Half(sign)
    }

    /// Converts to `f32` (exact: every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign
            } else {
                // Subnormal: normalise so the leading bit becomes the
                // implicit one. mant = m * 2^-24 with the top set bit at
                // position p; shifting by (10 - p) puts it at bit 10.
                let shift = mant.leading_zeros() - 21;
                let exp = 113 - shift; // 127 - 24 + p
                let mant = (mant << shift) & 0x03FF;
                sign | (exp << 23) | (mant << 13)
            }
        } else if exp == 31 {
            sign | 0x7F80_0000 | (mant << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Converts from `f64` via `f32` (double rounding is acceptable for
    /// the embedding value ranges used here and matches a
    /// `double -> float -> __half` GPU upload path).
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Binary16 product: exact multiply in f32 (binary16 products are
    /// exactly representable in binary32), then round back to binary16.
    ///
    /// Kept as an inherent method (not `std::ops::Mul`) to make the
    /// per-operation rounding explicit at every call site.
    #[expect(
        clippy::should_implement_trait,
        reason = "an inherent method keeps the per-operation rounding explicit"
    )]
    #[must_use]
    pub fn mul(self, other: Self) -> Self {
        Self::from_f32(self.to_f32() * other.to_f32())
    }

    /// Binary16 sum: computed in f32, rounded back to binary16 — the
    /// behaviour of a native half-precision adder.
    ///
    /// Kept as an inherent method (not `std::ops::Add`) to make the
    /// per-operation rounding explicit at every call site.
    #[expect(
        clippy::should_implement_trait,
        reason = "an inherent method keeps the per-operation rounding explicit"
    )]
    #[must_use]
    pub fn add(self, other: Self) -> Self {
        Self::from_f32(self.to_f32() + other.to_f32())
    }

    /// Returns `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

/// Round-to-nearest-even increment for truncating `shift` low bits.
fn round_increment(mant: u32, shift: u32) -> u32 {
    let halfway = 1u32 << (shift - 1);
    let low = mant & ((1u32 << shift) - 1);
    let lsb = (mant >> shift) & 1;
    if low > halfway || (low == halfway && lsb == 1) {
        1 << shift
    } else {
        0
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Half({})", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<Half> for f32 {
    fn from(h: Half) -> f32 {
        h.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(Half::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(Half::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(Half::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f32(65504.0).to_bits(), 0x7BFF);
        // 0.1 in binary16 is 0x2E66 (nearest even).
        assert_eq!(Half::from_f32(0.1).to_bits(), 0x2E66);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert_eq!(Half::from_f32(1.0e6).to_bits(), 0x7C00);
        assert_eq!(Half::from_f32(-1.0e6).to_bits(), 0xFC00);
        // 65520 is exactly halfway between 65504 and the next step; rounds
        // to even which is infinity.
        assert_eq!(Half::from_f32(65520.0).to_bits(), 0x7C00);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(Half::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(Half::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal.
        let big_sub = Half::from_bits(0x03FF);
        assert_eq!(Half::from_f32(big_sub.to_f32()), big_sub);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(Half::from_f32(1.0e-10).to_bits(), 0x0000);
        assert_eq!(Half::from_f32(-1.0e-10).to_bits(), 0x8000);
    }

    #[test]
    fn nan_is_preserved() {
        let h = Half::from_f32(f32::NAN);
        assert!(h.is_nan());
        assert!(h.to_f32().is_nan());
        assert!(!Half::INFINITY.is_nan());
    }

    #[test]
    fn all_half_values_round_trip_through_f32() {
        // Exhaustive over all 65536 bit patterns.
        for bits in 0..=u16::MAX {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(Half::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    Half::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn arithmetic_rounds_each_step() {
        // 1.0 + 2^-11 is not representable in binary16 -> stays 1.0
        // (round to even).
        let one = Half::ONE;
        let eps = Half::from_f32((2.0f32).powi(-11));
        assert_eq!(one.add(eps), one);
        // But adding 2^-10 moves one ulp.
        let ulp = Half::from_f32((2.0f32).powi(-10));
        assert_eq!(one.add(ulp).to_bits(), 0x3C01);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 2048 + 1 = 2049 not representable (ulp at 2048 is 2);
        // ties round to even: 2049 -> 2048, 2051 -> 2052.
        assert_eq!(Half::from_f32(2049.0).to_f32(), 2048.0);
        assert_eq!(Half::from_f32(2051.0).to_f32(), 2052.0);
    }
}
