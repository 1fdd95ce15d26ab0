//! DAR — Discriminatively Aligned Rationalization, the paper's method.
//!
//! On top of the RNP game, a `predictor^t` pretrained on the **full input**
//! (Eq. (4)) and *frozen* acts as a third-party discriminator: its
//! cross-entropy on the selected rationale (Eq. (5)) is added to the
//! objective (Eq. (6)). Because the discriminator never trains on
//! rationales, it cannot co-adapt to a deviated generator — gradients flow
//! *through* it into the generator, aligning `Z` with `X` (Theorem 1).

use dar_data::Batch;
use dar_nn::loss::cross_entropy;
use dar_nn::Module;
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Generator;
use crate::models::{descend, rationale_inference, restore_single, Inference, RationaleModel};
use crate::predictor::Predictor;
use crate::regularizer::omega;

/// The DAR model: RNP players plus a frozen full-text discriminator.
pub struct Dar {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    /// `predictor^t`: pretrained on full text, never updated here.
    pub disc: Predictor,
    opt: Adam,
}

impl Dar {
    /// `disc` must come from [`crate::pretrain::full_text_predictor`]
    /// (Eq. (4)); it is held frozen.
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        disc: Predictor,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        // Freeze the discriminator: gradients still flow through it to the
        // generator, but its own weights get no gradient buffers at all.
        for p in disc.params() {
            p.freeze();
        }
        Dar {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            disc,
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// Replace the generator (skewed-generator setting of Table VIII).
    pub fn set_generator(&mut self, gen: Generator) {
        self.gen = gen;
    }

    /// Eq. (6): `H_c(Y, Ŷ|Z) + H_c(Y, Ŷ^t|Z) + Ω(M)`.
    pub fn loss(&self, batch: &Batch, rng: &mut Rng) -> Tensor {
        let z = self.gen.sample_mask(batch, Some(rng));
        let logits = self.pred.forward_masked(batch, &z);
        let disc_logits = self.disc.forward_masked(batch, &z);
        cross_entropy(&logits, &batch.labels)
            .add(&cross_entropy(&disc_logits, &batch.labels).scale(self.cfg.aux_weight))
            .add(&omega(&z, batch, &self.cfg))
    }
}

impl RationaleModel for Dar {
    fn name(&self) -> &'static str {
        "DAR"
    }

    /// Trainable parameters only — the discriminator is frozen by
    /// exclusion (its accumulated gradients are discarded every step).
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p
    }

    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32 {
        let loss = self.loss(batch, rng);
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

    fn infer(&self, batch: &Batch) -> Inference {
        let z = self.gen.sample_mask(batch, None);
        rationale_inference(&self.pred, batch, &z)
    }

    /// The frozen discriminator *is* the model's full-text expert
    /// (Eq. (4)), so degraded predictor-only serving reads it directly.
    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.disc.forward_full(batch))
    }

    /// 1 generator + 2 predictors (Table IV).
    fn player_modules(&self) -> (usize, usize) {
        (1, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::pretrain;
    use crate::pretrain::max_len;
    use dar_data::BatchIter;

    fn build(seed: u64) -> (Dar, dar_data::AspectDataset) {
        let data = tiny_dataset(seed);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, seed + 1);
        let mut rng = dar_tensor::rng(seed + 2);
        let ml = max_len(&data);
        let disc = pretrain::full_text_predictor(&cfg, &emb, &data, 3, &mut rng);
        (Dar::new(&cfg, &emb, disc, ml, &mut rng), data)
    }

    #[test]
    fn discriminator_is_frozen_by_training() {
        let (mut model, data) = build(20);
        let before: Vec<Vec<f32>> = model.disc.params().iter().map(|p| p.to_vec()).collect();
        let mut rng = dar_tensor::rng(1);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            model.train_step(&batch, &mut rng);
        }
        for (p, b) in model.disc.params().iter().zip(&before) {
            assert_eq!(&p.to_vec(), b, "frozen discriminator drifted");
        }
    }

    #[test]
    fn generator_receives_gradient_through_discriminator() {
        // Even with the trainable predictor's CE removed, the generator
        // must get a training signal via the frozen disc (Eq. (5)).
        let (model, data) = build(30);
        let mut rng = dar_tensor::rng(2);
        let batch = BatchIter::sequential(&data.train, 16).next().unwrap();
        let z = model.gen.sample_mask(&batch, Some(&mut rng));
        let disc_logits = model.disc.forward_masked(&batch, &z);
        dar_tensor::optim::zero_grads(&model.gen.params());
        dar_nn::loss::cross_entropy(&disc_logits, &batch.labels).backward();
        let touched = model
            .gen
            .params()
            .iter()
            .filter(|p| p.grad_vec().is_some())
            .count();
        assert!(
            touched > 0,
            "no gradient reached the generator through predictor^t"
        );
    }

    #[test]
    fn loss_decreases() {
        let (mut model, data) = build(40);
        let mut rng = dar_tensor::rng(3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..6 {
            for batch in BatchIter::shuffled(&data.train, 32, &mut rng) {
                last = model.train_step(&batch, &mut rng);
                first.get_or_insert(last);
            }
        }
        assert!(last < first.unwrap());
    }

    #[test]
    fn player_count_matches_table_iv() {
        let (model, _) = build(50);
        assert_eq!(model.player_modules(), (1, 2));
    }
}
