//! Classification losses and divergences.
//!
//! These are the `H_c` cross-entropy terms of the paper's objectives
//! (Eqs. (2), (4), (5), (6)) plus the JS divergence used by the A2R
//! baseline and KL used by DMR-style output matching.

use dar_tensor::Tensor;

use crate::numeric::{safe_log_softmax, safe_softmax};

/// Mean cross-entropy of `logits [n, c]` against integer `targets`.
///
/// Logits run through the numeric guard rails (identity on finite values),
/// so a NaN/Inf logit yields a large-but-finite loss the divergence guards
/// can act on instead of a poisoned batch.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Tensor {
    let s = logits.shape();
    assert_eq!(s.len(), 2, "cross_entropy expects [n, c] logits, got {s:?}");
    assert_eq!(s[0], targets.len(), "targets length mismatch");
    let one_hot = Tensor::one_hot(targets, s[1]);
    safe_log_softmax(logits)
        .mul(&one_hot)
        .sum()
        .scale(-1.0 / s[0] as f32)
}

/// Per-example (unreduced) cross-entropy, `[n]`.
pub fn cross_entropy_per_example(logits: &Tensor, targets: &[usize]) -> Tensor {
    let s = logits.shape();
    assert_eq!(s.len(), 2, "expects [n, c] logits");
    let one_hot = Tensor::one_hot(targets, s[1]);
    safe_log_softmax(logits)
        .mul(&one_hot)
        .sum_axis(1, false)
        .scale(-1.0)
}

/// Weighted mean cross-entropy: per-example CE multiplied by `weights [n]`
/// and normalized by their sum. Used for masked-token pretraining.
pub fn weighted_cross_entropy(logits: &Tensor, targets: &[usize], weights: &Tensor) -> Tensor {
    let per = cross_entropy_per_example(logits, targets);
    let total = weights.sum().item().max(1e-6);
    per.mul(weights).sum().scale(1.0 / total)
}

/// KL(p || q) from two logits tensors `[n, c]`, averaged over rows.
/// `p` is treated as the (detached) target distribution.
pub fn kl_div_logits(p_logits: &Tensor, q_logits: &Tensor) -> Tensor {
    let n = p_logits.shape()[0] as f32;
    let p = safe_softmax(&p_logits.detach());
    let logp = safe_log_softmax(&p_logits.detach());
    let logq = safe_log_softmax(q_logits);
    p.mul(&logp.sub(&logq)).sum().scale(1.0 / n)
}

/// Jensen–Shannon divergence between two logits tensors `[n, c]`, averaged
/// over rows. Symmetric; gradients flow into both.
pub fn js_div_logits(a_logits: &Tensor, b_logits: &Tensor) -> Tensor {
    let n = a_logits.shape()[0] as f32;
    let pa = safe_softmax(a_logits);
    let pb = safe_softmax(b_logits);
    let m = pa.add(&pb).scale(0.5);
    let log_m = m.ln();
    let kl_am = pa.mul(&safe_log_softmax(a_logits).sub(&log_m)).sum();
    let kl_bm = pb.mul(&safe_log_softmax(b_logits).sub(&log_m)).sum();
    kl_am.add(&kl_bm).scale(0.5 / n)
}

/// Fraction of rows whose argmax equals the target.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), targets.len());
    if targets.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(targets).filter(|(p, t)| p == t).count();
    correct as f32 / targets.len() as f32
}

/// Binary entropy of an empirical label distribution — handy as the
/// H(Y) lower-bound check of Lemma 3 in tests.
pub fn empirical_entropy(targets: &[usize], classes: usize) -> f32 {
    let mut counts = vec![0usize; classes];
    for &t in targets {
        counts[t] += 1;
    }
    let n = targets.len() as f32;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f32 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_logits_give_near_zero_ce() {
        let logits = Tensor::new(vec![20.0, -20.0, -20.0, 20.0], &[2, 2]);
        let ce = cross_entropy(&logits, &[0, 1]);
        assert!(ce.item() < 1e-5);
    }

    #[test]
    fn uniform_logits_give_ln_c() {
        let logits = Tensor::zeros(&[3, 4]);
        let ce = cross_entropy(&logits, &[0, 1, 2]);
        assert!((ce.item() - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_points_toward_target() {
        let logits = Tensor::param(vec![0.0, 0.0], &[1, 2]);
        cross_entropy(&logits, &[1]).backward();
        let g = logits.grad_vec().unwrap();
        assert!(g[0] > 0.0 && g[1] < 0.0);
    }

    #[test]
    fn ce_exceeds_label_entropy_lemma3() {
        // Lemma 3 sanity: H_c(Y, Ŷ) >= H(Y) for an input-blind predictor
        // (one shared output distribution across all examples).
        let targets = [0usize, 1, 0, 1, 1, 0];
        let row = [0.7f32, -0.4];
        let logits = Tensor::new(row.iter().cycle().take(12).copied().collect(), &[6, 2]);
        let ce = cross_entropy(&logits, &targets).item();
        let h = empirical_entropy(&targets, 2);
        assert!(ce >= h - 1e-4, "CE {ce} < H(Y) {h}");
    }

    #[test]
    fn weighted_ce_uses_only_weighted_rows() {
        let logits = Tensor::new(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]);
        // First row correct (weight 1), second row wrong target but weight 0.
        let w = Tensor::new(vec![1.0, 0.0], &[2]);
        let ce = weighted_cross_entropy(&logits, &[0, 0], &w);
        assert!(ce.item() < 1e-5);
    }

    #[test]
    fn kl_zero_for_identical_distributions() {
        let a = Tensor::new(vec![0.5, -0.3, 0.1, 0.9], &[2, 2]);
        let kl = kl_div_logits(&a, &a);
        assert!(kl.item().abs() < 1e-6);
    }

    #[test]
    fn kl_positive_and_target_detached() {
        let p = Tensor::param(vec![2.0, -2.0], &[1, 2]);
        let q = Tensor::param(vec![-1.0, 1.0], &[1, 2]);
        let kl = kl_div_logits(&p, &q);
        assert!(kl.item() > 0.1);
        kl.backward();
        assert!(p.grad_vec().is_none(), "target side must be detached");
        assert!(q.grad_vec().is_some());
    }

    #[test]
    fn js_symmetric_bounded_and_zero_at_equality() {
        let a = Tensor::new(vec![1.0, 0.0], &[1, 2]);
        let b = Tensor::new(vec![-0.5, 0.5], &[1, 2]);
        let ab = js_div_logits(&a, &b).item();
        let ba = js_div_logits(&b, &a).item();
        assert!((ab - ba).abs() < 1e-6);
        assert!(ab > 0.0 && ab <= std::f32::consts::LN_2 + 1e-6);
        assert!(js_div_logits(&a, &a).item().abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        use dar_tensor::grad_check::check_gradients;
        let logits = Tensor::param(vec![0.5, -0.3, 1.2, -0.8, 0.1, 0.9], &[2, 3]);
        let rep = check_gradients(&[logits], |ins| cross_entropy(&ins[0], &[2, 0]), 1e-2);
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn weighted_cross_entropy_gradcheck() {
        use dar_tensor::grad_check::check_gradients;
        let logits = Tensor::param(vec![0.5, -0.3, 1.2, -0.8, 0.1, 0.9], &[3, 2]);
        let w = Tensor::new(vec![1.0, 0.0, 0.5], &[3]);
        let rep = check_gradients(
            &[logits],
            |ins| weighted_cross_entropy(&ins[0], &[0, 1, 1], &w),
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn kl_gradcheck_on_q_side() {
        use dar_tensor::grad_check::check_gradients;
        // The p side is detached by construction, so only q is an input:
        // its analytic grads must match finite differences of the full loss.
        let p = Tensor::new(vec![1.0, -0.5, 0.2, 0.8, -1.1, 0.4], &[2, 3]);
        let q = Tensor::param(vec![-0.3, 0.6, 0.1, -0.9, 0.5, 1.2], &[2, 3]);
        let rep = check_gradients(&[q], |ins| kl_div_logits(&p, &ins[0]), 1e-2);
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn js_gradcheck_on_both_sides() {
        use dar_tensor::grad_check::check_gradients;
        let a = Tensor::param(vec![1.4, -0.8, 0.3, 0.9, -1.2, 0.5], &[2, 3]);
        let b = Tensor::param(vec![-0.6, 0.7, -0.2, 1.1, 0.4, -1.0], &[2, 3]);
        let rep = check_gradients(&[a, b], |ins| js_div_logits(&ins[0], &ins[1]), 1e-2);
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn poisoned_logits_yield_finite_loss_under_guard_rails() {
        let logits = Tensor::new(vec![f32::NAN, 0.5, f32::INFINITY, -1.0], &[2, 2]);
        let ce = cross_entropy(&logits, &[0, 1]).item();
        let kl = kl_div_logits(&logits, &logits).item();
        let js = js_div_logits(&logits, &logits).item();
        assert!(ce.is_finite(), "ce {ce}");
        assert!(kl.is_finite(), "kl {kl}");
        assert!(js.is_finite(), "js {js}");
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::new(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
    }

    #[test]
    fn empirical_entropy_balanced_binary() {
        let h = empirical_entropy(&[0, 1, 0, 1], 2);
        assert!((h - std::f32::consts::LN_2).abs() < 1e-6);
    }
}
