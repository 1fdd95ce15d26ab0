//! Optimizers over explicit parameter lists.
//!
//! Parameters are identified by [`crate::Tensor::id`], so per-parameter
//! optimizer state survives across steps as long as the same tensors are
//! passed in.

mod adam;
mod sgd;

pub use adam::{Adam, AdamConfig, AdamState};
pub use sgd::Sgd;

use crate::Tensor;

/// A first-order optimizer over a set of parameters.
pub trait Optimizer {
    /// Apply one update step using the gradients currently accumulated on
    /// `params`, then leave the gradients untouched (call
    /// [`zero_grads`] afterwards).
    fn step(&mut self, params: &[Tensor]);

    /// Learning rate currently in effect.
    fn lr(&self) -> f32;

    /// Override the learning rate (schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Clear gradients on every parameter.
pub fn zero_grads(params: &[Tensor]) {
    for p in params {
        p.zero_grad();
    }
}

/// Global L2 norm of all gradients.
pub fn grad_norm(params: &[Tensor]) -> f32 {
    let mut acc = 0.0f64;
    for p in params {
        if let Some(g) = p.grad_vec() {
            acc += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        }
    }
    acc.sqrt() as f32
}

/// Scale all gradients so their global norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let norm = grad_norm(params);
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            let scaled = p.grad_vec().map(|mut g| {
                for x in &mut g {
                    *x *= scale;
                }
                g
            });
            if let Some(g) = scaled {
                p.zero_grad();
                p.accumulate_grad(&g);
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn grad_norm_and_clip() {
        let p = Tensor::param(vec![0.0, 0.0], &[2]);
        p.accumulate_grad(&[3.0, 4.0]);
        assert!((grad_norm(std::slice::from_ref(&p)) - 5.0).abs() < 1e-6);
        let pre = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((grad_norm(std::slice::from_ref(&p)) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_under_threshold() {
        let p = Tensor::param(vec![0.0], &[1]);
        p.accumulate_grad(&[0.5]);
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad_vec().unwrap(), vec![0.5]);
    }

    #[test]
    fn zero_grads_clears() {
        let p = Tensor::param(vec![0.0], &[1]);
        p.accumulate_grad(&[1.0]);
        zero_grads(std::slice::from_ref(&p));
        assert!(p.grad_vec().is_none());
    }
}
