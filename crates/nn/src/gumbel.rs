//! Gumbel-softmax straight-through sampling (Jang et al., 2017) — the
//! reparameterization the paper uses to binarize the generator's token
//! selection (Eq. (1)).

use dar_tensor::{init, Rng, Tensor};

use crate::numeric::guard_finite;

/// Differentiable sample from `softmax((logits + Gumbel noise) / tau)`,
/// binarized with the straight-through trick: forward values are an exact
/// one-hot of the per-row argmax, while gradients flow through the soft
/// sample.
///
/// The scaled logits pass through [`guard_finite`] before the softmax:
/// at extreme temperatures `1/tau` overflows and `±Inf` scaled logits
/// would poison the max-subtraction into a NaN row. The guard is identity
/// on finite values, so ordinary temperatures are bit-unchanged.
pub fn gumbel_softmax_st(logits: &Tensor, tau: f32, rng: &mut Rng) -> Tensor {
    assert!(tau > 0.0, "temperature must be positive");
    let classes = *logits.shape().last().expect("logits need a class dim");
    let noise = Tensor::new(init::gumbel_noise(rng, logits.len()), logits.shape());
    let y = guard_finite(&logits.add(&noise).scale(1.0 / tau)).softmax();
    let hard = Tensor::one_hot(&y.argmax_rows(), classes).reshape(logits.shape());
    // values: y - y + hard == hard exactly; grads: d/dlogits of y.
    y.sub(&y.detach()).add(&hard)
}

/// Deterministic (no noise) straight-through binarization — used at eval
/// time so rationales are reproducible.
pub fn hard_softmax_st(logits: &Tensor) -> Tensor {
    let classes = *logits.shape().last().expect("logits need a class dim");
    let y = logits.softmax();
    let hard = Tensor::one_hot(&y.argmax_rows(), classes).reshape(logits.shape());
    y.sub(&y.detach()).add(&hard)
}

/// Plain Gumbel-softmax (soft, not binarized) — used by A2R's soft head.
pub fn gumbel_softmax_soft(logits: &Tensor, tau: f32, rng: &mut Rng) -> Tensor {
    assert!(tau > 0.0, "temperature must be positive");
    let noise = Tensor::new(init::gumbel_noise(rng, logits.len()), logits.shape());
    guard_finite(&logits.add(&noise).scale(1.0 / tau)).softmax()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_tensor::Tensor;

    #[test]
    fn st_outputs_are_exactly_binary() {
        let mut rng = dar_tensor::rng(0);
        let logits = Tensor::param(vec![0.3, -0.2, 1.5, 0.8, -1.0, 0.0], &[3, 2]);
        let y = gumbel_softmax_st(&logits, 1.0, &mut rng);
        for &v in y.to_vec().iter() {
            assert!(v == 0.0 || v == 1.0, "non-binary ST output {v}");
        }
        for row in y.to_vec().chunks(2) {
            assert_eq!(row.iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn st_gradient_flows_to_logits() {
        let mut rng = dar_tensor::rng(1);
        let logits = Tensor::param(vec![0.5, -0.5], &[1, 2]);
        let y = gumbel_softmax_st(&logits, 0.7, &mut rng);
        y.narrow(1, 0, 1).sum().backward();
        let g = logits.grad_vec().expect("no grad reached logits");
        assert!(g.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn low_temperature_tracks_argmax() {
        // With a large logit gap and tiny tau, the hard sample should almost
        // always pick the larger logit.
        let mut rng = dar_tensor::rng(2);
        let logits = Tensor::new(vec![5.0, -5.0], &[1, 2]);
        let mut picks0 = 0;
        for _ in 0..100 {
            let y = gumbel_softmax_st(&logits, 0.1, &mut rng);
            if y.to_vec()[0] == 1.0 {
                picks0 += 1;
            }
        }
        assert!(picks0 > 95, "picked argmax only {picks0}/100 times");
    }

    #[test]
    fn hard_softmax_is_deterministic() {
        let logits = Tensor::new(vec![0.2, 0.9, 1.4, -0.3], &[2, 2]);
        let a = hard_softmax_st(&logits).to_vec();
        let b = hard_softmax_st(&logits).to_vec();
        assert_eq!(a, b);
        assert_eq!(a, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn st_gradients_equal_soft_surrogate_gradients() {
        // The straight-through estimator cannot be finite-differenced
        // directly: its forward value is piecewise constant (an argmax
        // one-hot), so the numeric gradient is zero by design. The defining
        // property is instead that its *analytic* gradients are exactly the
        // soft sample's — verify that with an identical seeded noise draw.
        let vals = vec![0.4, -0.9, 1.3, 0.2, -0.5, 0.8];
        let w = Tensor::new(vec![1.0, -0.4, 0.6, -1.1, 0.3, 0.9], &[3, 2]);
        let tau = 0.7;

        let st_logits = Tensor::param(vals.clone(), &[3, 2]);
        let mut rng = dar_tensor::rng(42);
        let y = gumbel_softmax_st(&st_logits, tau, &mut rng);
        assert!(y.to_vec().iter().all(|&v| v == 0.0 || v == 1.0));
        y.mul(&w).sum().backward();
        let g_st = st_logits.grad_vec().unwrap();

        let soft_logits = Tensor::param(vals, &[3, 2]);
        let mut rng = dar_tensor::rng(42);
        let y_soft = gumbel_softmax_soft(&soft_logits, tau, &mut rng);
        y_soft.mul(&w).sum().backward();
        let g_soft = soft_logits.grad_vec().unwrap();

        assert_eq!(g_st, g_soft, "ST grads must equal the soft surrogate's");
        assert!(g_st.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn soft_surrogate_gradcheck() {
        use dar_tensor::grad_check::check_gradients;
        // Finite-difference the soft path that the ST estimator's gradients
        // come from. A fresh seeded rng inside the closure makes the noise a
        // pure function of nothing, so `f` is deterministic in the logits.
        let logits = Tensor::param(vec![0.4, -0.9, 1.3, 0.2], &[2, 2]);
        let w = Tensor::new(vec![1.0, -0.4, 0.6, -1.1], &[2, 2]);
        let rep = check_gradients(
            &[logits],
            |ins| {
                let mut rng = dar_tensor::rng(7);
                gumbel_softmax_soft(&ins[0], 0.7, &mut rng).mul(&w).sum()
            },
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn extreme_temperature_and_logits_stay_finite_and_binary() {
        // Regression: tau = 1e-6 scales ±40 logits to ±4e7 — well past the
        // range where a naive exp overflows. The sample must still be an
        // exact one-hot with finite soft-path gradients.
        let mut rng = dar_tensor::rng(11);
        let logits = Tensor::param(vec![40.0, -40.0, -40.0, 40.0], &[2, 2]);
        let y = gumbel_softmax_st(&logits, 1e-6, &mut rng);
        let v = y.to_vec();
        assert!(
            v.iter().all(|&x| x == 0.0 || x == 1.0),
            "non-binary output {v:?}"
        );
        assert_eq!(v, vec![1.0, 0.0, 0.0, 1.0]);
        y.sum().backward();
        let g = logits.grad_vec().unwrap();
        assert!(g.iter().all(|x| x.is_finite()), "{g:?}");
    }

    #[test]
    fn denormal_temperature_is_repaired_by_guard_rails() {
        // tau = 1e-45 makes 1/tau overflow to +Inf, so every scaled logit is
        // ±Inf (or NaN where a logit is ~0). The guard repairs them before
        // softmax and the output is still a one-hot.
        let mut rng = dar_tensor::rng(13);
        let logits = Tensor::new(vec![3.0, -2.0, -1.0, 4.0], &[2, 2]);
        let y = gumbel_softmax_st(&logits, 1e-45, &mut rng).to_vec();
        assert!(y.iter().all(|&x| x == 0.0 || x == 1.0), "{y:?}");
        for row in y.chunks(2) {
            assert_eq!(row.iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn soft_sample_is_a_distribution() {
        let mut rng = dar_tensor::rng(3);
        let logits = Tensor::new(vec![0.0, 0.0, 0.0], &[1, 3]);
        let y = gumbel_softmax_soft(&logits, 1.0, &mut rng).to_vec();
        assert!((y.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(y.iter().all(|&p| p > 0.0));
    }
}
