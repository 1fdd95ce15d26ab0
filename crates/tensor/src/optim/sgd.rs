//! Plain SGD with optional momentum — used by ablations and as a reference
//! optimizer in tests.

use std::collections::HashMap;

use super::Optimizer;
use crate::Tensor;

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<u64, Vec<f32>>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &[Tensor]) {
        for p in params {
            let Some(g) = p.grad_vec() else { continue };
            let lr = self.lr;
            if self.momentum > 0.0 {
                let vel = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| vec![0.0; g.len()]);
                let mu = self.momentum;
                p.update_values(|w| {
                    for i in 0..g.len() {
                        vel[i] = mu * vel[i] + g[i];
                        w[i] -= lr * vel[i];
                    }
                });
            } else {
                p.update_values(|w| {
                    for i in 0..g.len() {
                        w[i] -= lr * g[i];
                    }
                });
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::zero_grads;
    use crate::Tensor;

    #[test]
    fn plain_sgd_step_matches_formula() {
        let p = Tensor::param(vec![1.0], &[1]);
        let mut opt = Sgd::new(0.1, 0.0);
        p.accumulate_grad(&[2.0]);
        opt.step(std::slice::from_ref(&p));
        assert!((p.item() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accelerates() {
        let p = Tensor::param(vec![1.0], &[1]);
        let mut opt = Sgd::new(0.1, 0.9);
        p.accumulate_grad(&[1.0]);
        opt.step(std::slice::from_ref(&p));
        let after_one = p.item();
        p.zero_grad();
        p.accumulate_grad(&[1.0]);
        opt.step(std::slice::from_ref(&p));
        // Second step moves further than the first (velocity build-up).
        assert!((1.0 - after_one) < (after_one - p.item()));
    }

    #[test]
    fn minimizes_quadratic() {
        let p = Tensor::param(vec![4.0], &[1]);
        let mut opt = Sgd::new(0.05, 0.5);
        for _ in 0..200 {
            let loss = p.square().sum();
            zero_grads(std::slice::from_ref(&p));
            loss.backward();
            opt.step(std::slice::from_ref(&p));
        }
        assert!(p.item().abs() < 1e-3);
    }
}
