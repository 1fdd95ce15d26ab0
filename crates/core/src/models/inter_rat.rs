//! Inter_RAT (Yue et al., 2023): interventional rationalization.
//! Simplified backdoor-style adjustment (DESIGN.md §4): alongside the RNP
//! loss, the unselected context of each review is intervened on (token ids
//! resampled from the batch) and the generator's soft selection is
//! regularized to be invariant to the intervention — removing selection
//! strategies that depend on spurious context instead of the rationale
//! content itself.

use rand::Rng as _;

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
use crate::regularizer::omega;

/// The interventional rationalization model.
pub struct InterRat {
    pub cfg: RationaleConfig,
    pub gen: Generator,
    pub pred: Predictor,
    opt: Adam,
}

impl InterRat {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        InterRat {
            cfg: *cfg,
            gen: Generator::new(cfg, embedding, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }

    /// An intervened copy of the batch: unselected (per `z`) real tokens
    /// are replaced by tokens drawn from other reviews in the batch.
    fn intervene(&self, batch: &Batch, z: &[f32], rng: &mut Rng) -> Batch {
        let l = batch.seq_len();
        let pool: Vec<usize> = batch
            .ids
            .iter()
            .flatten()
            .copied()
            .filter(|&t| t != 0)
            .collect();
        let mut ids = batch.ids.clone();
        let mask = batch.mask.to_vec();
        for (i, row) in ids.iter_mut().enumerate() {
            for (t, tok) in row.iter_mut().enumerate() {
                let real = mask[i * l + t] > 0.5;
                let selected = z[i * l + t] > 0.5;
                if real && !selected {
                    *tok = pool[rng.gen_range(0..pool.len())];
                }
            }
        }
        Batch {
            ids,
            mask: batch.mask.clone(),
            labels: batch.labels.clone(),
            rationales: batch.rationales.clone(),
            lengths: batch.lengths.clone(),
        }
    }

    fn loss(&self, batch: &Batch, rng: &mut Rng) -> Tensor {
        let z = self.gen.sample_mask(batch, Some(rng));
        let logits = self.pred.forward_masked(batch, &z);
        let base = cross_entropy(&logits, &batch.labels).add(&omega(&z, batch, &self.cfg));

        // Backdoor-style invariance: the soft selection on the intervened
        // context must match the original selection.
        let intervened = self.intervene(batch, &z.to_vec(), rng);
        let p_orig = self.gen.soft_probs(batch);
        let p_int = self.gen.soft_probs(&intervened);
        let invariance = p_orig.sub(&p_int).square().mean();
        base.add(&invariance.scale(self.cfg.aux_weight))
    }
}

impl RationaleModel for InterRat {
    fn name(&self) -> &'static str {
        "Inter_RAT"
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
    fn intervention_only_touches_unselected_real_tokens() {
        let data = tiny_dataset(100);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 101);
        let mut rng = dar_tensor::rng(102);
        let model = InterRat::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.train, 4).next().unwrap();
        let l = batch.seq_len();
        // Select the first two tokens of every review.
        let mut z = vec![0.0f32; batch.len() * l];
        for i in 0..batch.len() {
            z[i * l] = 1.0;
            z[i * l + 1] = 1.0;
        }
        let out = model.intervene(&batch, &z, &mut rng);
        let mask = batch.mask.to_vec();
        for i in 0..batch.len() {
            // Selected positions unchanged.
            assert_eq!(out.ids[i][0], batch.ids[i][0]);
            assert_eq!(out.ids[i][1], batch.ids[i][1]);
            // Padding unchanged.
            for t in 0..l {
                if mask[i * l + t] < 0.5 {
                    assert_eq!(out.ids[i][t], batch.ids[i][t]);
                }
            }
        }
        // Some unselected token changed (overwhelmingly likely).
        let changed = (0..batch.len())
            .any(|i| (2..l).any(|t| mask[i * l + t] > 0.5 && out.ids[i][t] != batch.ids[i][t]));
        assert!(changed, "intervention changed nothing");
    }

    #[test]
    fn trains_with_finite_loss() {
        let data = tiny_dataset(103);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 104);
        let mut rng = dar_tensor::rng(105);
        let mut model = InterRat::new(&cfg, &emb, max_len(&data), &mut rng);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            let loss = model.train_step(&batch, &mut rng);
            assert!(loss.is_finite());
        }
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert!(inf.logits.is_some());
    }
}
