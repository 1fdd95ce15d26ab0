//! VIB (Paranjape et al., 2020), simplified: an information-bottleneck
//! sparsity objective replaces Eq. (3)'s hard constraint. Each token's
//! selection probability is regularized toward a Bernoulli prior with rate
//! `α` via a KL term; masks are still sampled straight-through. Used as a
//! baseline row of the Table VI BERT-encoder experiment.

use dar_data::Batch;
use dar_nn::loss::cross_entropy;
use dar_nn::Module;
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Generator;
use crate::models::{descend, rationale_answer, restore_single, Inference, RationaleModel};
use crate::predictor::Predictor;

/// The VIB-style bottleneck model.
pub struct Vib {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    opt: Adam,
}

impl Vib {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        Vib {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// Mean KL( Bern(p_t) ‖ Bern(α) ) over real tokens.
    fn bottleneck_kl(&self, batch: &Batch) -> Tensor {
        let p = self.gen.soft_probs(batch).clamp(1e-4, 1.0 - 1e-4);
        let alpha = self.cfg.sparsity;
        let one_minus_p = p.neg().add_scalar(1.0);
        let kl = p
            .mul(&p.scale(1.0 / alpha).ln())
            .add(&one_minus_p.mul(&one_minus_p.scale(1.0 / (1.0 - alpha)).ln()));
        // Average over real tokens only.
        let total = kl.mul(&batch.mask).sum();
        let count: f32 = batch.lengths.iter().map(|&l| l as f32).sum();
        total.scale(1.0 / count.max(1.0))
    }
}

impl RationaleModel for Vib {
    fn name(&self) -> &'static str {
        "VIB"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p
    }

    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32 {
        let z = self.gen.sample_mask(batch, Some(rng));
        let logits = self.pred.forward_masked(batch, &z);
        let loss = cross_entropy(&logits, &batch.labels)
            .add(&self.bottleneck_kl(batch).scale(self.cfg.lambda1));
        let params = self.params();
        descend(&mut self.opt, &params, &loss)
    }

    fn optim_states(&self) -> Vec<AdamState> {
        vec![self.opt.export_state(&self.params())]
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        let params = self.params();
        restore_single(self.name(), &mut self.opt, &params, states)
    }

    fn answer(&self, batch: &Batch) -> Inference {
        let z = self.gen.sample_mask(batch, None);
        rationale_answer(&self.pred, batch, &z)
    }

    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.pred.forward_full(batch))
    }

    fn player_modules(&self) -> (usize, usize) {
        (1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::pretrain::max_len;
    use dar_data::BatchIter;

    #[test]
    fn kl_zero_when_probs_match_prior() {
        let data = tiny_dataset(120);
        let cfg = RationaleConfig {
            sparsity: 0.5,
            ..tiny_config()
        };
        let emb = tiny_embedding(&data, 121);
        let mut rng = dar_tensor::rng(122);
        let model = Vib::new(&cfg, &emb, max_len(&data), &mut rng);
        // With symmetric prior 0.5 and a fresh head (logits near 0 →
        // p ≈ 0.5), the KL must be small.
        let batch = BatchIter::sequential(&data.train, 8).next().unwrap();
        let kl = model.bottleneck_kl(&batch).item();
        assert!(kl.abs() < 0.15, "KL at prior should be near zero, got {kl}");
    }

    #[test]
    fn trains_finite_and_infers() {
        let data = tiny_dataset(123);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 124);
        let mut rng = dar_tensor::rng(125);
        let mut model = Vib::new(&cfg, &emb, max_len(&data), &mut rng);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            assert!(model.train_step(&batch, &mut rng).is_finite());
        }
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        assert!(model.infer(&batch).logits.is_some());
    }
}
