//! RNP (Lei et al., 2016): the vanilla generator–predictor cooperative
//! game of Eq. (2) with the regularizer of Eq. (3).

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

/// The vanilla rationalization game.
pub struct Rnp {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    opt: Adam,
}

impl Rnp {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        Rnp {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// Build with an externally pretrained predictor (the skewed-predictor
    /// setting of Table VII initializes from first-sentence pretraining).
    pub fn with_predictor(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        pred: Predictor,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        Rnp {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred,
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// Replace the generator (skewed-generator setting of Table VIII).
    pub fn set_generator(&mut self, gen: Generator) {
        self.gen = gen;
    }

    /// The training loss on one batch (exposed for ablations).
    pub fn loss(&self, batch: &Batch, rng: &mut Rng) -> Tensor {
        let z = self.gen.sample_mask(batch, Some(rng));
        let logits = self.pred.forward_masked(batch, &z);
        cross_entropy(&logits, &batch.labels).add(&omega(&z, batch, &self.cfg))
    }
}

impl RationaleModel for Rnp {
    fn name(&self) -> &'static str {
        "RNP"
    }

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
    fn train_step_decreases_loss() {
        let data = tiny_dataset(0);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 1);
        let mut rng = dar_tensor::rng(2);
        let ml = max_len(&data);
        let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..6 {
            for batch in BatchIter::shuffled(&data.train, 32, &mut rng) {
                last = model.train_step(&batch, &mut rng);
                first.get_or_insert(last);
            }
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {first:?} -> {last}"
        );
    }

    #[test]
    fn infer_shapes_and_binary_masks() {
        let data = tiny_dataset(3);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 4);
        let mut rng = dar_tensor::rng(5);
        let model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert_eq!(inf.masks.len(), 8);
        assert!(inf.masks.iter().flatten().all(|&v| v == 0.0 || v == 1.0));
        assert_eq!(inf.logits.unwrap().shape(), &[8, 2]);
        assert_eq!(inf.full_logits.unwrap().shape(), &[8, 2]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let data = tiny_dataset(6);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 7);
        let mut rng = dar_tensor::rng(8);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let snap = model.snapshot();
        let batch = BatchIter::sequential(&data.train, 16).next().unwrap();
        model.train_step(&batch, &mut rng);
        let changed = model
            .params()
            .iter()
            .zip(&snap)
            .any(|(p, s)| p.to_vec() != *s);
        assert!(changed, "training changed nothing");
        model.restore(&snap);
        for (p, s) in model.params().iter().zip(&snap) {
            assert_eq!(&p.to_vec(), s);
        }
    }

    #[test]
    fn player_count_matches_table_iv() {
        let data = tiny_dataset(9);
        let mut rng = dar_tensor::rng(10);
        let model = Rnp::new(&tiny_config(), &tiny_embedding(&data, 11), 64, &mut rng);
        assert_eq!(model.player_modules(), (1, 1));
    }
}
