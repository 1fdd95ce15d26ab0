//! Layer normalization over the last dimension (transformer substrate).

use dar_tensor::Tensor;

use crate::module::Module;
use crate::numeric::guard_denormals;

/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`, per last-dim row.
pub struct LayerNorm {
    pub gamma: Tensor,
    pub beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::param(vec![1.0; dim], &[dim]),
            beta: Tensor::param(vec![0.0; dim], &[dim]),
            eps: 1e-5,
        }
    }

    /// The fused single-node `layer_norm` op (vectorized forward plus a
    /// hand-written backward).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        // Subnormal inputs make the variance underflow into garbage
        // statistics; flushing them to zero first costs nothing on normal
        // inputs (exact identity).
        guard_denormals(x).layer_norm(&self.gamma, &self.beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_standardized() {
        let ln = LayerNorm::new(4);
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]);
        let y = ln.forward(&x).to_vec();
        for row in y.chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let ln = LayerNorm::new(2);
        ln.gamma.set_values(vec![2.0, 2.0]);
        ln.beta.set_values(vec![1.0, 1.0]);
        let x = Tensor::new(vec![-1.0, 1.0], &[1, 2]);
        let y = ln.forward(&x).to_vec();
        assert!((y[0] - (-2.0 + 1.0) * (1.0 / (1.0f32 + 1e-5).sqrt())).abs() < 1e-2);
    }

    #[test]
    fn gradients_reach_gamma_and_beta() {
        let ln = LayerNorm::new(3);
        let x = Tensor::new(vec![0.5, -1.0, 2.0], &[1, 3]);
        ln.forward(&x).square().sum().backward();
        assert!(ln.gamma.grad_vec().is_some());
        assert!(ln.beta.grad_vec().is_some());
    }

    #[test]
    fn layer_norm_gradcheck_input_gamma_beta() {
        use dar_tensor::grad_check::check_gradients;
        let ln = LayerNorm::new(3);
        ln.gamma.set_values(vec![1.2, 0.8, -0.5]);
        ln.beta.set_values(vec![0.1, -0.2, 0.3]);
        let x = Tensor::param(vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7], &[2, 3]);
        // Varying weights keep the per-row grads from collapsing to the
        // trivial "normalized rows sum to zero" case.
        let w = Tensor::new(vec![1.0, -2.0, 0.5, 0.7, 1.3, -0.4], &[2, 3]);
        let inputs = vec![x, ln.gamma.clone(), ln.beta.clone()];
        let rep = check_gradients(&inputs, |ins| ln.forward(&ins[0]).mul(&w).sum(), 1e-2);
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn denormal_rows_are_flushed_not_amplified() {
        // A row of subnormals has variance ~0; without the flush the eps
        // floor turns it into a near-zero row anyway, but mixed rows of
        // denormals and normals must normalize off the normal values only.
        let ln = LayerNorm::new(2);
        let x = Tensor::new(vec![1.0e-40, 3.0, -2.0e-39, -3.0], &[2, 2]);
        let y = ln.forward(&x).to_vec();
        let z = ln.forward(&Tensor::new(vec![0.0, 3.0, 0.0, -3.0], &[2, 2]));
        assert_eq!(y, z.to_vec(), "flush must match explicit zeros");
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn works_on_3d_input() {
        let ln = LayerNorm::new(4);
        let x = Tensor::ones(&[2, 3, 4]);
        assert_eq!(ln.forward(&x).shape(), &[2, 3, 4]);
    }
}
