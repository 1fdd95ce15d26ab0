//! Unary differentiable ops: activations and pointwise math.

use crate::Tensor;

/// Build a unary op from a forward map and a backward map.
///
/// `backward(x, y, g)` returns the input gradient given input value `x`,
/// output value `y` and output gradient `g`.
fn unary(
    op: &'static str,
    t: &Tensor,
    fwd: impl Fn(f32) -> f32,
    bwd: impl Fn(f32, f32, f32) -> f32 + 'static,
) -> Tensor {
    let values: Vec<f32> = t.values().iter().map(|&x| fwd(x)).collect();
    Tensor::from_op(
        op,
        values,
        t.shape().to_vec(),
        vec![t.clone()],
        Box::new(move |g, out, parents| {
            let p = &parents[0];
            if !p.requires_grad() {
                return;
            }
            let xv = p.values();
            let grads: Vec<f32> = (0..g.len()).map(|i| bwd(xv[i], out[i], g[i])).collect();
            drop(xv);
            p.accumulate_grad(&grads);
        }),
    )
}

impl Tensor {
    /// Logistic sigmoid `1 / (1 + e^{-x})`, numerically stable on both tails.
    pub fn sigmoid(&self) -> Tensor {
        unary(
            "sigmoid",
            self,
            |x| {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            },
            |_, y, g| g * y * (1.0 - y),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        unary("tanh", self, f32::tanh, |_, y, g| g * (1.0 - y * y))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        unary(
            "relu",
            self,
            |x| x.max(0.0),
            |x, _, g| if x > 0.0 { g } else { 0.0 },
        )
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT).
    pub fn gelu(&self) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        unary(
            "gelu",
            self,
            |x| 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh()),
            |x, _, g| {
                let inner = C * (x + 0.044715 * x * x * x);
                let t = inner.tanh();
                let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
                g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
            },
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        unary("exp", self, f32::exp, |_, y, g| g * y)
    }

    /// Natural logarithm. Inputs are clamped to `1e-12` to keep the loss
    /// finite when probabilities underflow.
    pub fn ln(&self) -> Tensor {
        unary(
            "ln",
            self,
            |x| x.max(1e-12).ln(),
            |x, _, g| g / x.max(1e-12),
        )
    }

    /// Elementwise square root (clamped at zero).
    pub fn sqrt(&self) -> Tensor {
        unary(
            "sqrt",
            self,
            |x| x.max(0.0).sqrt(),
            |_, y, g| if y > 0.0 { g / (2.0 * y) } else { 0.0 },
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary("square", self, |x| x * x, |x, _, g| 2.0 * x * g)
    }

    /// Absolute value, with subgradient `sign(x)` (0 at the kink). Used by
    /// the sparsity/coherence regularizer of Eq. (3).
    pub fn abs(&self) -> Tensor {
        unary("abs", self, f32::abs, |x, _, g| {
            if x > 0.0 {
                g
            } else if x < 0.0 {
                -g
            } else {
                0.0
            }
        })
    }

    /// Clamp values into `[lo, hi]`; gradient is passed through inside the
    /// interval and zero outside (hard clamp).
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        unary(
            "clamp",
            self,
            move |x| x.clamp(lo, hi),
            move |x, _, g| if x >= lo && x <= hi { g } else { 0.0 },
        )
    }

    /// Repair non-finite values: NaN becomes `nan_to`, everything else is
    /// clamped into `[lo, hi]` (so ±Inf lands on the bound). With wide
    /// bounds (e.g. ±1e30) this is the identity on every finite value a
    /// healthy model produces — the `dar-nn` guard rails rely on that to
    /// stay bit-compatible with recorded trajectories. Gradient passes
    /// through exactly where the forward was the identity.
    pub fn finite_clamp(&self, lo: f32, hi: f32, nan_to: f32) -> Tensor {
        unary(
            "finite_clamp",
            self,
            move |x| if x.is_nan() { nan_to } else { x.clamp(lo, hi) },
            move |x, _, g| {
                if x.is_finite() && x >= lo && x <= hi {
                    g
                } else {
                    0.0
                }
            },
        )
    }

    /// Flush denormal magnitudes (`0 < |x| < f32::MIN_POSITIVE`) to zero.
    /// Normal values, zeros, and non-finite values pass through unchanged,
    /// so this too is the identity on healthy inputs. Denormal arithmetic
    /// is both slow and a precision trap in variance denominators; the
    /// layer-norm guard rail flushes its input through this op.
    pub fn flush_denormals(&self) -> Tensor {
        unary(
            "flush_denormals",
            self,
            |x| {
                if x != 0.0 && x.abs() < f32::MIN_POSITIVE {
                    0.0
                } else {
                    x
                }
            },
            |x, _, g| {
                if x == 0.0 || x.is_nan() || x.abs() >= f32::MIN_POSITIVE {
                    g
                } else {
                    0.0
                }
            },
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn sigmoid_values_and_grad() {
        let x = Tensor::param(vec![0.0], &[1]);
        let y = x.sigmoid();
        assert!(close(y.item(), 0.5));
        y.backward();
        assert!(close(x.grad_vec().unwrap()[0], 0.25));
    }

    #[test]
    fn sigmoid_extreme_inputs_stay_finite() {
        let x = Tensor::new(vec![-100.0, 100.0], &[2]);
        let y = x.sigmoid().to_vec();
        assert!(y[0] >= 0.0 && y[0] < 1e-6);
        assert!(y[1] > 1.0 - 1e-6 && y[1] <= 1.0);
    }

    #[test]
    fn tanh_grad() {
        let x = Tensor::param(vec![0.5], &[1]);
        let y = x.tanh();
        y.backward();
        let t = 0.5f32.tanh();
        assert!(close(x.grad_vec().unwrap()[0], 1.0 - t * t));
    }

    #[test]
    fn relu_kills_negative_grad() {
        let x = Tensor::param(vec![-1.0, 2.0], &[2]);
        let y = x.relu();
        assert_eq!(y.to_vec(), vec![0.0, 2.0]);
        y.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn ln_clamps_small_inputs() {
        let x = Tensor::new(vec![0.0], &[1]);
        assert!(x.ln().item().is_finite());
    }

    #[test]
    fn abs_subgradient() {
        let x = Tensor::param(vec![-2.0, 0.0, 3.0], &[3]);
        let y = x.abs();
        assert_eq!(y.to_vec(), vec![2.0, 0.0, 3.0]);
        y.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_grad_mask() {
        let x = Tensor::param(vec![-2.0, 0.5, 2.0], &[3]);
        let y = x.clamp(0.0, 1.0);
        assert_eq!(y.to_vec(), vec![0.0, 0.5, 1.0]);
        y.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn gelu_is_monotone_near_zero() {
        let x = Tensor::new(vec![-1.0, 0.0, 1.0], &[3]);
        let y = x.gelu().to_vec();
        assert!(y[0] < y[1] && y[1] < y[2]);
        assert!((y[1]).abs() < 1e-6);
    }

    #[test]
    fn exp_square_sqrt_roundtrip() {
        let x = Tensor::param(vec![2.0], &[1]);
        let y = x.square().sqrt();
        assert!(close(y.item(), 2.0));
        y.backward();
        assert!(close(x.grad_vec().unwrap()[0], 1.0));
    }

    #[test]
    fn finite_clamp_repairs_only_pathological_values() {
        let x = Tensor::param(
            vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -3.0e31],
            &[5],
        );
        let y = x.finite_clamp(-1e30, 1e30, 0.0);
        let v = y.to_vec();
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 1e30);
        assert_eq!(v[2], -1e30);
        assert_eq!(v[3], 1.5); // identity on healthy finite values
        assert_eq!(v[4], -1e30); // out-of-range finite clamps too
        y.sum().backward();
        // Gradient flows only where the forward was the identity.
        assert_eq!(x.grad_vec().unwrap(), vec![0.0, 0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flush_denormals_zeroes_subnormals_only() {
        let sub = f32::MIN_POSITIVE / 2.0;
        let x = Tensor::param(vec![sub, -sub, 0.0, 1.0, f32::MIN_POSITIVE], &[5]);
        let y = x.flush_denormals();
        assert_eq!(y.to_vec(), vec![0.0, 0.0, 0.0, 1.0, f32::MIN_POSITIVE]);
        y.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![0.0, 0.0, 1.0, 1.0, 1.0]);
    }
}
