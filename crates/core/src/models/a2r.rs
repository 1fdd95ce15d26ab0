//! A2R (Yu et al., 2021): augments the predictor with an auxiliary head
//! that reads a **soft** attention-weighted input, and ties the two heads
//! with a JS-divergence term. The soft path keeps gradient flowing when the
//! hard game interlocks. Re-implemented at token level (re-A2R in the
//! paper's tables).

use dar_data::Batch;
use dar_nn::loss::{cross_entropy, js_div_logits};
use dar_nn::Module;
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Generator;
use crate::models::{descend, rationale_answer, restore_single, Inference, RationaleModel};
use crate::predictor::Predictor;
use crate::regularizer::omega;

/// A2R: generator + hard predictor + soft auxiliary predictor.
pub struct A2r {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    pub aux: Predictor,
    opt: Adam,
}

impl A2r {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        A2r {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            aux: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// Build with an externally pretrained predictor (Table VII skew).
    pub fn with_predictor(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        pred: Predictor,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        A2r {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred,
            aux: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    fn loss(&self, batch: &Batch, rng: &mut Rng) -> Tensor {
        let z = self.gen.sample_mask(batch, Some(rng));
        let soft = self.gen.soft_probs(batch);
        let hard_logits = self.pred.forward_masked(batch, &z);
        let soft_logits = self.aux.forward_masked(batch, &soft);
        cross_entropy(&hard_logits, &batch.labels)
            .add(&cross_entropy(&soft_logits, &batch.labels))
            .add(&js_div_logits(&hard_logits, &soft_logits).scale(self.cfg.aux_weight))
            .add(&omega(&z, batch, &self.cfg))
    }
}

impl RationaleModel for A2r {
    fn name(&self) -> &'static str {
        "A2R"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p.extend(self.aux.params());
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
        let z = self.gen.sample_mask(batch, None);
        rationale_answer(&self.pred, batch, &z)
    }

    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.pred.forward_full(batch))
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
    use crate::pretrain::max_len;
    use dar_data::BatchIter;

    #[test]
    fn trains_and_infers() {
        let data = tiny_dataset(70);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 71);
        let mut rng = dar_tensor::rng(72);
        let mut model = A2r::new(&cfg, &emb, max_len(&data), &mut rng);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..5 {
            for batch in BatchIter::shuffled(&data.train, 32, &mut rng) {
                last = model.train_step(&batch, &mut rng);
                first.get_or_insert(last);
            }
        }
        assert!(last < first.unwrap(), "{first:?} -> {last}");
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert!(inf.logits.is_some() && inf.full_logits.is_some());
    }

    #[test]
    fn has_three_player_modules_worth_of_params() {
        let data = tiny_dataset(73);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 74);
        let mut rng = dar_tensor::rng(75);
        let a2r = A2r::new(&cfg, &emb, 32, &mut rng);
        let rnp = crate::models::Rnp::new(&cfg, &emb, 32, &mut rng);
        // Table IV: A2R is 3× a single player, RNP is 2×.
        let single = rnp.num_params() / 2;
        assert_eq!(a2r.num_params(), 3 * single);
        assert_eq!(a2r.player_modules(), (1, 2));
    }
}
