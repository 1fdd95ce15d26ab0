//! 3PLAYER (Yu et al., 2019): introspective extraction with complement
//! control. A third player classifies from the **complement** of the
//! rationale; the generator plays adversarially against it, squeezing the
//! predictive information out of the unselected text and into the
//! rationale.

use dar_data::Batch;
use dar_nn::loss::cross_entropy;
use dar_nn::Module;
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Generator;
use crate::models::{descend, expect_states, rationale_answer, Inference, RationaleModel};
use crate::predictor::Predictor;
use crate::regularizer::omega;

/// The three-player game.
pub struct ThreePlayer {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    /// Complement predictor, trained on `1 − M`.
    pub comp: Predictor,
    opt_main: Adam,
    opt_comp: Adam,
}

impl ThreePlayer {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        ThreePlayer {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            comp: Predictor::new(cfg, embedding, max_len, rng),
            opt_main: Adam::with_lr(cfg.lr),
            opt_comp: Adam::with_lr(cfg.lr),
        }
    }

    /// The generator and predictor parameters `opt_main` trains.
    fn main_params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p
    }

    fn complement(z: &Tensor, batch: &Batch) -> Tensor {
        // 1 - z on real tokens, 0 on padding.
        z.neg().add_scalar(1.0).mul(&batch.mask)
    }
}

impl RationaleModel for ThreePlayer {
    fn name(&self) -> &'static str {
        "3PLAYER"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.main_params();
        p.extend(self.comp.params());
        p
    }

    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32 {
        // Phase 1: complement player minimizes its own CE on the detached
        // complement.
        let z = self.gen.sample_mask(batch, Some(rng));
        let zc = Self::complement(&z, batch).detach();
        let c_loss = cross_entropy(&self.comp.forward_masked(batch, &zc), &batch.labels);
        let c_loss = descend(&mut self.opt_comp, &self.comp.params(), &c_loss);

        // Phase 2: generator + predictor minimize the main CE while
        // *maximizing* the complement player's CE (adversarial term).
        let z = self.gen.sample_mask(batch, Some(rng));
        let logits = self.pred.forward_masked(batch, &z);
        let zc = Self::complement(&z, batch);
        let comp_ce = cross_entropy(&self.comp.forward_masked(batch, &zc), &batch.labels);
        let loss = cross_entropy(&logits, &batch.labels)
            .add(&comp_ce.scale(-self.cfg.aux_weight))
            .add(&omega(&z, batch, &self.cfg));
        let main_params = self.main_params();
        let loss = descend(&mut self.opt_main, &main_params, &loss);
        // The adversarial term also left gradients on the complement
        // player.
        self.comp.zero_grads();
        c_loss + loss
    }

    fn optim_states(&self) -> Vec<AdamState> {
        vec![
            self.opt_main.export_state(&self.main_params()),
            self.opt_comp.export_state(&self.comp.params()),
        ]
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        let [m, c] = expect_states::<2>(self.name(), states)?;
        let main_params = self.main_params();
        self.opt_main.import_state(&main_params, m)?;
        let c_params = self.comp.params();
        self.opt_comp.import_state(&c_params, c)
    }

    fn answer(&self, batch: &Batch) -> Inference {
        let z = self.gen.sample_mask(batch, None);
        rationale_answer(&self.pred, batch, &z)
    }

    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.pred.forward_full(batch))
    }

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
    fn complement_partitions_real_tokens() {
        let data = tiny_dataset(110);
        let batch = BatchIter::sequential(&data.train, 4).next().unwrap();
        let l = batch.seq_len();
        let mut z = vec![0.0f32; 4 * l];
        for (i, zi) in z.iter_mut().enumerate() {
            if i % 3 == 0 {
                *zi = 1.0;
            }
        }
        let z = Tensor::new(z, &[4, l]).mul(&batch.mask);
        let zc = ThreePlayer::complement(&z, &batch);
        let (zv, zcv, mv) = (z.to_vec(), zc.to_vec(), batch.mask.to_vec());
        for i in 0..zv.len() {
            if mv[i] > 0.5 {
                assert_eq!(zv[i] + zcv[i], 1.0, "not a partition at {i}");
            } else {
                assert_eq!(zcv[i], 0.0, "complement selected padding");
            }
        }
    }

    #[test]
    fn both_phases_train_finite() {
        let data = tiny_dataset(111);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 112);
        let mut rng = dar_tensor::rng(113);
        let mut model = ThreePlayer::new(&cfg, &emb, max_len(&data), &mut rng);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            let loss = model.train_step(&batch, &mut rng);
            assert!(loss.is_finite());
        }
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        assert!(model.infer(&batch).logits.is_some());
    }
}
