//! Numeric guard rails: always-on containment wrappers for the layers
//! whose math can go non-finite (DESIGN.md §11).
//!
//! Every guard is **exact identity on healthy inputs**: it repairs only
//! NaN/Inf (and, for layer norm, denormals), so the rails do not perturb a
//! healthy trajectory by a single bit — each wrapper's output on finite
//! data equals the raw op's (`safe_softmax(x)` is `x.softmax()`,
//! `safe_div(a, b)` is `a.div(b)`, …), which is what the tests compare
//! against. Only a value that has already gone pathological is repaired
//! in place.

use dar_tensor::Tensor;

/// Magnitude ±Inf is clamped to by the rails. Far above anything a healthy
/// f32 model produces, far below f32::MAX so downstream sums don't
/// immediately re-overflow.
pub const GUARD_BOUND: f32 = 1e30;

/// Always `true`: the rails have no off switch. Kept so run headers can
/// keep printing the setting.
pub fn guard_rails_enabled() -> bool {
    true
}

/// Repair non-finite values: NaN→0, ±Inf→±[`GUARD_BOUND`].
pub fn guard_finite(t: &Tensor) -> Tensor {
    t.finite_clamp(-GUARD_BOUND, GUARD_BOUND, 0.0)
}

/// Softmax with repaired inputs. Raw softmax max-subtracts, so any finite
/// row is safe — but a single ±Inf/NaN poisons the whole row (`Inf - Inf`);
/// the rails repair the logits first.
pub fn safe_softmax(t: &Tensor) -> Tensor {
    guard_finite(t).softmax()
}

/// Log-softmax with repaired inputs (see [`safe_softmax`]).
pub fn safe_log_softmax(t: &Tensor) -> Tensor {
    guard_finite(t).log_softmax()
}

/// Division with a repaired quotient: `x/0 → ±GUARD_BOUND`, `0/0 → 0`.
/// The denominator is untouched, so finite results are bit-identical to
/// `a.div(b)`.
pub fn safe_div(a: &Tensor, b: &Tensor) -> Tensor {
    guard_finite(&a.div(b))
}

/// Exponential with repaired input and output: NaN input exps to 1 (its
/// repaired value's exp), overflow lands on [`GUARD_BOUND`] instead of Inf.
pub fn safe_exp(t: &Tensor) -> Tensor {
    guard_finite(&guard_finite(t).exp())
}

/// Natural log with a repaired input (the raw `ln` already clamps its
/// argument at 1e-12, so only NaN/Inf need repair).
pub fn safe_ln(t: &Tensor) -> Tensor {
    guard_finite(t).ln()
}

/// Denormal-flushed input for layer norm: subnormal magnitudes become 0.
/// Normal, zero, and non-finite values pass through.
pub fn guard_denormals(t: &Tensor) -> Tensor {
    t.flush_denormals()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rails_are_identity_on_healthy_values() {
        let x = Tensor::new(vec![0.5, -3.0, 1e20, -1e20], &[1, 4]);
        let raw = x.softmax().to_vec();
        assert_eq!(
            safe_softmax(&x).to_vec(),
            raw,
            "rails changed a healthy softmax"
        );
    }

    #[test]
    fn rails_repair_poisoned_softmax_rows() {
        let x = Tensor::new(vec![f32::INFINITY, 0.0, f32::NAN, 1.0], &[2, 2]);
        let y = safe_softmax(&x).to_vec();
        assert!(y.iter().all(|v| v.is_finite()), "{y:?}");
        // Inf wins its row outright after repair to GUARD_BOUND.
        assert!((y[0] - 1.0).abs() < 1e-6);
        let raw = x.softmax().to_vec();
        assert!(raw.iter().any(|v| v.is_nan()), "raw op should propagate");
    }

    #[test]
    fn safe_div_contains_zero_denominators() {
        let a = Tensor::new(vec![1.0, 0.0, -2.0, 6.0], &[4]);
        let b = Tensor::new(vec![0.0, 0.0, 0.0, 3.0], &[4]);
        let y = safe_div(&a, &b).to_vec();
        assert_eq!(y, vec![GUARD_BOUND, 0.0, -GUARD_BOUND, 2.0]);
    }

    #[test]
    fn safe_exp_never_overflows() {
        let x = Tensor::new(vec![1000.0, f32::NAN, 0.0], &[3]);
        let y = safe_exp(&x).to_vec();
        assert!(y.iter().all(|v| v.is_finite()));
        assert_eq!(y[2], 1.0);
    }
}
