//! DMR (Huang et al., 2021): distribution matching. A teacher predictor is
//! trained on the **full text** while the rationale predictor's output
//! distribution is matched to the teacher's (KL). Unlike DAR, the teacher
//! is co-trained from scratch, so a deviated game can drag it along — the
//! contrast the paper draws in §II.
//!
//! Following the paper's Metrics note, DMR's selector is label-conditioned
//! (class-wise matching), so no rationale-input accuracy is reported.

use dar_data::Batch;
use dar_nn::loss::{cross_entropy, kl_div_logits};
use dar_nn::Module;
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::models::car::ClassConditionalGenerator;
use crate::models::{descend, mask_rows, restore_single, Inference, RationaleModel};
use crate::predictor::Predictor;
use crate::regularizer::omega;

/// The DMR model: class-conditional generator, rationale predictor, and a
/// co-trained full-text teacher.
pub struct Dmr {
    pub cfg: RationaleConfig,
    pub gen: ClassConditionalGenerator,
    pub pred: Predictor,
    pub teacher: Predictor,
    opt: Adam,
}

impl Dmr {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        Dmr {
            cfg: *cfg,
            gen: ClassConditionalGenerator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            teacher: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    fn loss(&self, batch: &Batch, rng: &mut Rng) -> Tensor {
        let z = self.gen.sample_mask(batch, &batch.labels, Some(rng));
        let teacher_logits = self.teacher.forward_full(batch);
        let pred_logits = self.pred.forward_masked(batch, &z);
        cross_entropy(&teacher_logits, &batch.labels)
            .add(&cross_entropy(&pred_logits, &batch.labels))
            .add(&kl_div_logits(&teacher_logits, &pred_logits).scale(self.cfg.aux_weight))
            .add(&omega(&z, batch, &self.cfg))
    }
}

impl RationaleModel for Dmr {
    fn name(&self) -> &'static str {
        "DMR"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p.extend(self.teacher.params());
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

    fn answer(&self, batch: &Batch) -> Inference {
        let z = self.gen.sample_mask(batch, &batch.labels, None);
        // Label-conditioned selection → no honest rationale-input Acc;
        // the teacher's full-text logits are the served label and the
        // probe both.
        let full = self.teacher.forward_full(batch);
        Inference {
            masks: mask_rows(&z, batch),
            logits: None,
            full_logits: Some(full),
        }
    }

    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.teacher.forward_full(batch))
    }

    /// Paper Table IV counts DMR as 1 generator + 3 predictors (4×
    /// parameters); this re-implementation folds the class-wise pair into
    /// one conditioned head, so it carries 1 gen + 2 preds.
    fn player_modules(&self) -> (usize, usize) {
        (1, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::pretrain::max_len;
    use dar_data::BatchIter;

    #[test]
    fn trains_and_reports_no_acc() {
        let data = tiny_dataset(90);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 91);
        let mut rng = dar_tensor::rng(92);
        let mut model = Dmr::new(&cfg, &emb, max_len(&data), &mut rng);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..4 {
            for batch in BatchIter::shuffled(&data.train, 32, &mut rng) {
                last = model.train_step(&batch, &mut rng);
                first.get_or_insert(last);
            }
        }
        assert!(last < first.unwrap(), "{first:?} -> {last}");
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert!(inf.logits.is_none());
        assert!(inf.full_logits.is_some());
    }

    #[test]
    fn teacher_is_trainable_not_frozen() {
        // The key architectural difference from DAR: DMR's full-text
        // module co-trains with the game.
        let data = tiny_dataset(93);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 94);
        let mut rng = dar_tensor::rng(95);
        let mut model = Dmr::new(&cfg, &emb, max_len(&data), &mut rng);
        let before: Vec<Vec<f32>> = model.teacher.params().iter().map(|p| p.to_vec()).collect();
        let batch = BatchIter::sequential(&data.train, 16).next().unwrap();
        model.train_step(&batch, &mut rng);
        let changed = model
            .teacher
            .params()
            .iter()
            .zip(&before)
            .any(|(p, b)| p.to_vec() != *b);
        assert!(changed, "DMR teacher did not train");
    }
}
