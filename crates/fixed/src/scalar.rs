//! The scalar abstraction the SpMV engine is generic over.

use crate::{Half, UFixed};

/// Arithmetic contract for a value type flowing through the Top-K SpMV
/// datapath.
///
/// The engine reads `VALUE_BITS`-wide raw values from BS-CSR packets,
/// multiplies them against query-vector entries, and accumulates per-row
/// partial sums. Each implementation mirrors what the corresponding
/// hardware does:
///
/// - fixed-point designs multiply exactly into a double-width register and
///   accumulate with saturation (a DSP cascade);
/// - `F32` uses native binary32 adders;
/// - [`Half`] rounds after every operation (a native half-precision FMA
///   pipeline without a wide accumulator), which is what makes the GPU
///   `F16` baseline lose accuracy in Figure 7.
///
/// # Example
///
/// ```
/// use tkspmv_fixed::{SpmvScalar, Q1_31};
///
/// let raw = Q1_31::encode(0.75);
/// let v = Q1_31::decode(raw);
/// assert_eq!(v.to_f64(), 0.75);
/// ```
pub trait SpmvScalar: Copy + core::fmt::Debug + Send + Sync + 'static {
    /// Accumulator type for per-row partial sums.
    type Acc: Copy + core::fmt::Debug + PartialOrd + Send + Sync;

    /// Width of the raw encoding in a BS-CSR packet, in bits.
    const VALUE_BITS: u32;

    /// Quantizes an `f64` into the raw packet encoding.
    fn encode(value: f64) -> u64;

    /// Reconstructs a value from its raw packet encoding.
    ///
    /// Only the low `VALUE_BITS` bits of `raw` are meaningful.
    fn decode(raw: u64) -> Self;

    /// Converts a value (not an accumulator) to `f64`.
    fn value_to_f64(self) -> f64;

    /// Multiplies two values into the accumulator domain.
    fn mul(a: Self, b: Self) -> Self::Acc;

    /// Adds two accumulator values (saturating for fixed point).
    fn acc_add(a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// The most products a sum may hold and still be proven never to
    /// reach the accumulator's saturation point: for every sum of at
    /// most this many [`mul`](Self::mul) results,
    /// [`acc_add_unsaturated`](Self::acc_add_unsaturated) equals
    /// [`acc_add`](Self::acc_add) bit for bit. 0 (the default) claims
    /// nothing, so the float designs always accumulate through
    /// `acc_add`.
    const UNSATURATED_TERMS: u64 = 0;

    /// [`acc_add`](Self::acc_add) without the saturation check, for sums
    /// of at most [`UNSATURATED_TERMS`](Self::UNSATURATED_TERMS)
    /// products, where the check can never fire. Defaults to `acc_add`.
    fn acc_add_unsaturated(a: Self::Acc, b: Self::Acc) -> Self::Acc {
        Self::acc_add(a, b)
    }

    /// The inverse of [`acc_add_unsaturated`](Self::acc_add_unsaturated):
    /// `acc_sub_unsaturated(acc_add_unsaturated(a, b), b) == a`. With
    /// both ops exact modulo the accumulator's width, the difference of
    /// two running sums is the sum of the terms between them whenever
    /// that sum holds at most
    /// [`UNSATURATED_TERMS`](Self::UNSATURATED_TERMS) products.
    ///
    /// Only a scalar whose `UNSATURATED_TERMS` is above 0 defines it; the
    /// engine never calls it for one whose bound is 0 (the float
    /// designs), which is what the default's panic states.
    #[expect(
        clippy::unreachable,
        reason = "invariant: callers check `UNSATURATED_TERMS > 0` first, and every scalar with a \
                  non-zero bound overrides this"
    )]
    fn acc_sub_unsaturated(_a: Self::Acc, _b: Self::Acc) -> Self::Acc {
        unreachable!("acc_sub_unsaturated on a scalar with UNSATURATED_TERMS = 0")
    }

    /// The accumulator additive identity.
    fn acc_zero() -> Self::Acc;

    /// Converts an accumulator value to `f64` for reporting.
    fn acc_to_f64(acc: Self::Acc) -> f64;
}

impl<const BITS: u32> SpmvScalar for UFixed<BITS> {
    /// Raw `u64` with `2 * (BITS - 1)` fractional bits; headroom mirrors
    /// the wide DSP accumulator in the RTL.
    type Acc = u64;

    const VALUE_BITS: u32 = BITS;

    fn encode(value: f64) -> u64 {
        Self::from_f64(value).raw() as u64
    }

    fn decode(raw: u64) -> Self {
        Self::from_raw((raw & ((1u64 << BITS) - 1)) as u32)
    }

    fn value_to_f64(self) -> f64 {
        self.to_f64()
    }

    fn mul(a: Self, b: Self) -> u64 {
        a.widening_mul(b)
    }

    fn acc_add(a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }

    /// A product is at most `RAW_MAX²`, so `n` of them sum to at most
    /// `n · RAW_MAX²`: no sum of up to `u64::MAX / RAW_MAX²` products
    /// reaches `u64::MAX`. That is 16,777,248 terms for Q1.19, 16,384
    /// for Q1.24 and 1 for Q1.31.
    const UNSATURATED_TERMS: u64 = u64::MAX / (Self::RAW_MAX as u64 * Self::RAW_MAX as u64);

    fn acc_add_unsaturated(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    fn acc_sub_unsaturated(a: u64, b: u64) -> u64 {
        a.wrapping_sub(b)
    }

    fn acc_zero() -> u64 {
        0
    }

    fn acc_to_f64(acc: u64) -> f64 {
        acc as f64 / (2.0f64).powi(2 * (BITS as i32 - 1))
    }
}

/// IEEE binary32 wrapper implementing [`SpmvScalar`] for the `F32` FPGA
/// design (and the GPU `F32` baseline).
///
/// A newtype is used instead of raw `f32` so that the packet codec can
/// state the encoding (`to_bits`) explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F32(pub f32);

impl SpmvScalar for F32 {
    type Acc = f32;

    const VALUE_BITS: u32 = 32;

    fn encode(value: f64) -> u64 {
        (value as f32).to_bits() as u64
    }

    fn decode(raw: u64) -> Self {
        F32(f32::from_bits(raw as u32))
    }

    fn value_to_f64(self) -> f64 {
        self.0 as f64
    }

    fn mul(a: Self, b: Self) -> f32 {
        a.0 * b.0
    }

    fn acc_add(a: f32, b: f32) -> f32 {
        a + b
    }

    fn acc_zero() -> f32 {
        0.0
    }

    fn acc_to_f64(acc: f32) -> f64 {
        acc as f64
    }
}

impl SpmvScalar for Half {
    /// Accumulation in binary16 itself: every partial sum is rounded,
    /// matching a GPU kernel that keeps the running dot product in
    /// `__half` registers.
    type Acc = Half;

    const VALUE_BITS: u32 = 16;

    fn encode(value: f64) -> u64 {
        Half::from_f64(value).to_bits() as u64
    }

    fn decode(raw: u64) -> Self {
        Half::from_bits(raw as u16)
    }

    fn value_to_f64(self) -> f64 {
        self.to_f64()
    }

    fn mul(a: Self, b: Self) -> Half {
        a.mul(b)
    }

    fn acc_add(a: Half, b: Half) -> Half {
        a.add(b)
    }

    fn acc_zero() -> Half {
        Half::ZERO
    }

    fn acc_to_f64(acc: Half) -> f64 {
        acc.to_f64()
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Q1_19, Q1_24, Q1_31};

    #[test]
    fn fixed_encode_decode_round_trip() {
        let raw = Q1_19::encode(0.625);
        assert_eq!(Q1_19::decode(raw).to_f64(), 0.625);
    }

    #[test]
    fn decode_masks_to_value_bits() {
        // High garbage bits beyond VALUE_BITS must be ignored.
        let raw = Q1_19::encode(0.5) | (0xFFu64 << 40);
        assert_eq!(Q1_19::decode(raw).to_f64(), 0.5);
    }

    #[test]
    fn fixed_dot_product_matches_f64() {
        let xs = [0.1, 0.2, 0.3, 0.4];
        let ys = [0.4, 0.3, 0.2, 0.1];
        let mut acc = Q1_31::acc_zero();
        for (&x, &y) in xs.iter().zip(&ys) {
            acc = Q1_31::acc_add(acc, Q1_31::mul(Q1_31::from_f64(x), Q1_31::from_f64(y)));
        }
        let exact: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((Q1_31::acc_to_f64(acc) - exact).abs() < 1e-8);
    }

    #[test]
    fn fixed_accumulator_saturates() {
        let max_acc = u64::MAX;
        let one = Q1_31::mul(Q1_31::ONE, Q1_31::ONE);
        assert_eq!(Q1_31::acc_add(max_acc, one), u64::MAX);
    }

    /// `UNSATURATED_TERMS` products of the largest raw value fit in the
    /// accumulator; one more overflows it. Returns the bound.
    fn tight_unsaturated_bound<const BITS: u32>() -> u64 {
        let max = UFixed::<BITS>::from_raw(UFixed::<BITS>::RAW_MAX);
        let max_product = UFixed::<BITS>::mul(max, max);
        let bound = UFixed::<BITS>::UNSATURATED_TERMS;
        assert!(bound.checked_mul(max_product).is_some(), "{BITS} bits");
        assert!(
            (bound + 1).checked_mul(max_product).is_none(),
            "{BITS} bits"
        );
        bound
    }

    #[test]
    fn unsaturated_terms_is_the_largest_sum_that_cannot_overflow() {
        tight_unsaturated_bound::<4>();
        tight_unsaturated_bound::<8>();
        assert_eq!(tight_unsaturated_bound::<20>(), 16_777_248);
        assert_eq!(tight_unsaturated_bound::<25>(), 16_384);
        assert_eq!(tight_unsaturated_bound::<32>(), 1);
        assert_eq!(F32::UNSATURATED_TERMS, 0);
        assert_eq!(Half::UNSATURATED_TERMS, 0);
    }

    #[test]
    fn unsaturated_add_equals_acc_add_up_to_the_bound_only() {
        let max = Q1_24::from_raw(Q1_24::RAW_MAX);
        let product = Q1_24::mul(max, max);
        let (mut saturating, mut unsaturated) = (0, 0);
        for _ in 0..Q1_24::UNSATURATED_TERMS {
            saturating = Q1_24::acc_add(saturating, product);
            unsaturated = Q1_24::acc_add_unsaturated(unsaturated, product);
        }
        assert_eq!(saturating, unsaturated);
        assert_ne!(saturating, u64::MAX);
        // One term past the bound, only `acc_add` is right.
        assert_eq!(Q1_24::acc_add(saturating, product), u64::MAX);
        assert_ne!(Q1_24::acc_add_unsaturated(unsaturated, product), u64::MAX);
    }

    /// `acc_sub_unsaturated` undoes `acc_add_unsaturated` for every pair
    /// drawn at and around the largest unsaturated sum, `bound =
    /// UNSATURATED_TERMS · RAW_MAX²`, including running sums that wrap
    /// past `u64::MAX`: the difference of two running sums is what was
    /// added between them.
    fn sub_undoes_unsaturated_add<const BITS: u32>() {
        let raw_max = UFixed::<BITS>::RAW_MAX as u64;
        let product = raw_max * raw_max;
        let bound = UFixed::<BITS>::UNSATURATED_TERMS * product;
        let near = |v: u64| [v.saturating_sub(1), v, v.saturating_add(1)];
        let mut values = vec![0, 1, u64::MAX - 1, u64::MAX];
        values.extend(near(product));
        values.extend(near(bound));
        values.extend(near(bound - product));
        values.extend(near(u64::MAX - bound));
        for &a in &values {
            for &b in &values {
                let sum = UFixed::<BITS>::acc_add_unsaturated(a, b);
                assert_eq!(
                    UFixed::<BITS>::acc_sub_unsaturated(sum, b),
                    a,
                    "{BITS} bits"
                );
                // `a` as the running sum before `b` was added to it.
                assert_eq!(
                    UFixed::<BITS>::acc_sub_unsaturated(sum, a),
                    b,
                    "{BITS} bits"
                );
            }
        }
    }

    #[test]
    fn unsaturated_sub_undoes_unsaturated_add_for_every_width() {
        sub_undoes_unsaturated_add::<4>();
        sub_undoes_unsaturated_add::<8>();
        sub_undoes_unsaturated_add::<20>();
        sub_undoes_unsaturated_add::<25>();
        sub_undoes_unsaturated_add::<32>();
    }

    #[test]
    fn f32_matches_native() {
        let raw = F32::encode(0.3);
        assert_eq!(F32::decode(raw).0, 0.3f32);
        assert_eq!(F32::mul(F32(0.5), F32(0.25)), 0.125);
    }

    #[test]
    fn half_accumulation_loses_precision() {
        // Summing 1000 copies of 0.001 in binary16 drifts visibly; the
        // same sum in f32 is near-exact. This asymmetry is the Figure 7
        // accuracy gap.
        let v = Half::from_f64(0.001);
        let mut acc_h = Half::acc_zero();
        for _ in 0..1000 {
            acc_h = Half::acc_add(acc_h, Half::mul(v, Half::ONE));
        }
        let err_h = (Half::acc_to_f64(acc_h) - 1.0).abs();
        let mut acc_f = F32::acc_zero();
        for _ in 0..1000 {
            acc_f = F32::acc_add(acc_f, F32::mul(F32(0.001), F32(1.0)));
        }
        let err_f = (F32::acc_to_f64(acc_f) - 1.0).abs();
        assert!(err_h > 10.0 * err_f, "err_h={err_h} err_f={err_f}");
    }

    #[test]
    fn value_bits_constants() {
        assert_eq!(<Q1_19 as SpmvScalar>::VALUE_BITS, 20);
        assert_eq!(<F32 as SpmvScalar>::VALUE_BITS, 32);
        assert_eq!(<Half as SpmvScalar>::VALUE_BITS, 16);
    }
}
