//! Property tests for layer invariants.

use dar_nn::gumbel::{gumbel_softmax_st, hard_softmax_st};
use dar_nn::loss::{accuracy, cross_entropy, empirical_entropy, js_div_logits};
use dar_nn::pooling::{masked_max_pool, masked_mean_pool};
use dar_nn::{BiGru, LayerNorm, Module};
use dar_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Straight-through samples are always exact one-hots regardless of
    /// logits, temperature, or seed.
    #[test]
    fn st_samples_are_one_hot(
        logits in prop::collection::vec(-3.0f32..3.0, 8),
        tau in 0.2f32..2.0,
        seed in 0u64..500,
    ) {
        let mut rng = dar_tensor::rng(seed);
        let t = Tensor::param(logits, &[4, 2]);
        let y = gumbel_softmax_st(&t, tau, &mut rng).to_vec();
        for row in y.chunks(2) {
            prop_assert!(row.iter().all(|&v| v == 0.0 || v == 1.0));
            prop_assert_eq!(row.iter().sum::<f32>(), 1.0);
        }
    }

    /// Deterministic hard softmax picks the larger logit.
    #[test]
    fn hard_softmax_is_argmax(a in -3.0f32..3.0, b in -3.0f32..3.0) {
        prop_assume!((a - b).abs() > 1e-3);
        let t = Tensor::new(vec![a, b], &[1, 2]);
        let y = hard_softmax_st(&t).to_vec();
        if a > b {
            prop_assert_eq!(y, vec![1.0, 0.0]);
        } else {
            prop_assert_eq!(y, vec![0.0, 1.0]);
        }
    }

    /// Max pool over a fully-real mask equals plain max; mean pool is
    /// bounded by min/max of inputs.
    #[test]
    fn pooling_bounds(v in prop::collection::vec(-5.0f32..5.0, 6)) {
        let x = Tensor::new(v.clone(), &[1, 6, 1]);
        let mask = Tensor::ones(&[1, 6]);
        let mx = masked_max_pool(&x, &mask).to_vec()[0];
        let mn = masked_mean_pool(&x, &mask).to_vec()[0];
        let vmax = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let vmin = v.iter().copied().fold(f32::INFINITY, f32::min);
        prop_assert!((mx - vmax).abs() < 1e-4);
        prop_assert!(mn >= vmin - 1e-4 && mn <= vmax + 1e-4);
    }

    /// Pooling never looks at padded positions.
    #[test]
    fn pooling_pad_invariance(
        real in prop::collection::vec(-2.0f32..2.0, 3),
        junk in prop::collection::vec(-100.0f32..100.0, 3),
    ) {
        let mut v = real.clone();
        v.extend(junk);
        let x = Tensor::new(v, &[1, 6, 1]);
        let mask = Tensor::new(vec![1., 1., 1., 0., 0., 0.], &[1, 6]);
        let short = Tensor::new(real, &[1, 3, 1]);
        let smask = Tensor::ones(&[1, 3]);
        let a = masked_max_pool(&x, &mask).to_vec();
        let b = masked_max_pool(&short, &smask).to_vec();
        prop_assert!((a[0] - b[0]).abs() < 1e-5);
        let a = masked_mean_pool(&x, &mask).to_vec();
        let b = masked_mean_pool(&short, &smask).to_vec();
        prop_assert!((a[0] - b[0]).abs() < 1e-5);
    }

    /// Lemma 3's bound: a predictor that cannot see the input (one shared
    /// output distribution) has CE at least the empirical label entropy,
    /// with equality only when it matches the label marginal.
    #[test]
    fn ce_lower_bound_for_constant_predictor(
        row in prop::collection::vec(-4.0f32..4.0, 2),
        labels in prop::collection::vec(0usize..2, 6),
    ) {
        let logits: Vec<f32> = row.iter().cycle().take(12).copied().collect();
        let l = Tensor::new(logits, &[6, 2]);
        let ce = cross_entropy(&l, &labels).item();
        let h = empirical_entropy(&labels, 2);
        prop_assert!(ce >= h - 1e-4, "CE {} < H {}", ce, h);
    }

    /// JS divergence is symmetric and bounded by ln 2.
    #[test]
    fn js_properties(
        a in prop::collection::vec(-4.0f32..4.0, 6),
        b in prop::collection::vec(-4.0f32..4.0, 6),
    ) {
        let ta = Tensor::new(a, &[3, 2]);
        let tb = Tensor::new(b, &[3, 2]);
        let ab = js_div_logits(&ta, &tb).item();
        let ba = js_div_logits(&tb, &ta).item();
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((-1e-6..=std::f32::consts::LN_2 + 1e-5).contains(&ab));
    }

    /// Accuracy is invariant to positive rescaling of logits.
    #[test]
    fn accuracy_scale_invariant(
        logits in prop::collection::vec(-3.0f32..3.0, 8),
        scale in 0.1f32..10.0,
        labels in prop::collection::vec(0usize..2, 4),
    ) {
        let l1 = Tensor::new(logits.clone(), &[4, 2]);
        let l2 = Tensor::new(logits.iter().map(|x| x * scale).collect(), &[4, 2]);
        prop_assert_eq!(accuracy(&l1, &labels), accuracy(&l2, &labels));
    }

    /// LayerNorm output is invariant to input shift and positive scale.
    #[test]
    fn layernorm_invariances(v in prop::collection::vec(-2.0f32..2.0, 8), shift in -5.0f32..5.0) {
        // Require some spread so normalization is well-conditioned.
        let spread = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - v.iter().cloned().fold(f32::INFINITY, f32::min);
        prop_assume!(spread > 0.5);
        let ln = LayerNorm::new(8);
        let a = ln.forward(&Tensor::new(v.clone(), &[1, 8])).to_vec();
        let b = ln
            .forward(&Tensor::new(v.iter().map(|x| x + shift).collect(), &[1, 8]))
            .to_vec();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-2, "shift variance {x} vs {y}");
        }
    }

    /// BiGru encodings of a batch equal the encodings of each sequence run
    /// alone (no cross-batch leakage).
    #[test]
    fn bigru_batch_independence(seed in 0u64..200) {
        let mut rng = dar_tensor::rng(seed);
        let enc = BiGru::new(&mut rng, 2, 3);
        let a = Tensor::new(vec![0.1, 0.2, 0.3, 0.4], &[1, 2, 2]);
        let b = Tensor::new(vec![-0.5, 0.5, 0.7, -0.7], &[1, 2, 2]);
        let batch = Tensor::new(
            vec![0.1, 0.2, 0.3, 0.4, -0.5, 0.5, 0.7, -0.7],
            &[2, 2, 2],
        );
        let ya = enc.forward(&a, None).to_vec();
        let yb = enc.forward(&b, None).to_vec();
        let yab = enc.forward(&batch, None).to_vec();
        for (i, x) in ya.iter().enumerate() {
            prop_assert!((x - yab[i]).abs() < 1e-5);
        }
        for (i, x) in yb.iter().enumerate() {
            prop_assert!((x - yab[ya.len() + i]).abs() < 1e-5);
        }
        prop_assert_eq!(enc.params().len(), 8);
    }
}
