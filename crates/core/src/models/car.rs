//! CAR (Chang et al., 2019): class-wise adversarial rationalization. The
//! selector is conditioned on the class label (factual rationales for the
//! true class, counterfactual for the other); discriminator predictors are
//! trained to rate factual rationales as their class and counterfactual
//! ones as the opposite, while the selector plays the adversarial side.
//!
//! As in the paper's tables, CAR consumes the label during selection, so
//! it reports no rationale-input prediction accuracy (`Acc = N/A`).

use dar_data::Batch;
use dar_nn::gumbel::{gumbel_softmax_st, hard_softmax_st};
use dar_nn::loss::cross_entropy;
use dar_nn::{Linear, Module};
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Encoder;
use crate::models::{descend, mask_rows, Inference, RationaleModel};
use crate::predictor::Predictor;
use crate::regularizer::omega;

/// A generator whose selection head is class-conditioned: the head emits
/// `2 * classes` logits per token and the caller picks the pair belonging
/// to the conditioning class. Shared by CAR and DMR.
pub struct ClassConditionalGenerator {
    pub embedding: SharedEmbedding,
    pub encoder: Encoder,
    pub head: Linear,
    classes: usize,
    tau: f32,
}

impl ClassConditionalGenerator {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        let encoder = Encoder::new(cfg, embedding.vocab(), max_len, rng);
        let head = Linear::new(rng, cfg.enc_out_dim(), 2 * cfg.classes);
        ClassConditionalGenerator {
            embedding: embedding.clone(),
            encoder,
            head,
            classes: cfg.classes,
            tau: cfg.tau,
        }
    }

    /// Per-token selection logits for the given conditioning class of each
    /// row, `[b*l, 2]`.
    fn class_logits(&self, batch: &Batch, classes: &[usize]) -> Tensor {
        let x = self.embedding.lookup(&batch.ids);
        let h = self.encoder.forward(&x, &batch.mask);
        let s = h.shape().to_vec();
        let (b, l) = (s[0], s[1]);
        let all = self.head.forward(&h.reshape(&[b * l, s[2]])); // [b*l, 2c]
                                                                 // Select the class-pair columns per row with a one-hot bmm:
                                                                 // [b, l, 2c] @ [b, 2c, 2] -> [b, l, 2].
        let mut sel = vec![0.0f32; b * 2 * self.classes * 2];
        for (i, &c) in classes.iter().enumerate() {
            assert!(c < self.classes, "conditioning class out of range");
            let base = i * 2 * self.classes * 2;
            sel[base + (2 * c) * 2] = 1.0;
            sel[base + (2 * c + 1) * 2 + 1] = 1.0;
        }
        let sel = Tensor::new(sel, &[b, 2 * self.classes, 2]);
        all.reshape(&[b, l, 2 * self.classes])
            .bmm(&sel)
            .reshape(&[b * l, 2])
    }

    /// Binary mask conditioned on `classes` (one per row).
    pub fn sample_mask(&self, batch: &Batch, classes: &[usize], rng: Option<&mut Rng>) -> Tensor {
        let logits = self.class_logits(batch, classes);
        let sel = match rng {
            Some(r) => gumbel_softmax_st(&logits, self.tau, r),
            None => hard_softmax_st(&logits),
        };
        let (b, l) = (batch.len(), batch.seq_len());
        sel.narrow(1, 1, 1).reshape(&[b, l]).mul(&batch.mask)
    }
}

impl Module for ClassConditionalGenerator {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.head.params());
        p
    }
}

/// The CAR game: class-conditional selector vs. a discriminator predictor.
pub struct Car {
    pub cfg: RationaleConfig,
    pub gen: ClassConditionalGenerator,
    /// Discriminator judging rationales (factual → its class,
    /// counterfactual → should fool it).
    pub disc: Predictor,
    opt_gen: Adam,
    opt_disc: Adam,
}

impl Car {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        Car {
            cfg: *cfg,
            gen: ClassConditionalGenerator::new(cfg, embedding, max_len, rng),
            disc: Predictor::new(cfg, embedding, max_len, rng),
            opt_gen: Adam::with_lr(cfg.lr),
            opt_disc: Adam::with_lr(cfg.lr),
        }
    }
}

impl RationaleModel for Car {
    fn name(&self) -> &'static str {
        "CAR"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.disc.params());
        p
    }

    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32 {
        let flipped: Vec<usize> = batch.labels.iter().map(|&y| 1 - y).collect();

        // Phase 1: discriminator learns to classify factual rationales as
        // their class and to resist counterfactual ones (detached masks).
        let z_fact = self
            .gen
            .sample_mask(batch, &batch.labels, Some(rng))
            .detach();
        let z_cf = self.gen.sample_mask(batch, &flipped, Some(rng)).detach();
        let d_loss = cross_entropy(&self.disc.forward_masked(batch, &z_fact), &batch.labels).add(
            &cross_entropy(&self.disc.forward_masked(batch, &z_cf), &batch.labels),
        );
        let d_loss = descend(&mut self.opt_disc, &self.disc.params(), &d_loss);

        // Phase 2: the selector makes factual rationales classifiable and
        // counterfactual ones convincing for the *wrong* class
        // (adversarial), under the usual compactness constraints.
        let z_fact = self.gen.sample_mask(batch, &batch.labels, Some(rng));
        let z_cf = self.gen.sample_mask(batch, &flipped, Some(rng));
        let g_loss = cross_entropy(&self.disc.forward_masked(batch, &z_fact), &batch.labels)
            .add(
                &cross_entropy(&self.disc.forward_masked(batch, &z_cf), &flipped)
                    .scale(self.cfg.aux_weight),
            )
            .add(&omega(&z_fact, batch, &self.cfg))
            .add(&omega(&z_cf, batch, &self.cfg));
        let g_loss = descend(&mut self.opt_gen, &self.gen.params(), &g_loss);
        // The adversarial term also left gradients on the discriminator.
        self.disc.zero_grads();
        d_loss + g_loss
    }

    fn optim_states(&self) -> Vec<AdamState> {
        vec![
            self.opt_gen.export_state(&self.gen.params()),
            self.opt_disc.export_state(&self.disc.params()),
        ]
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        let [g, d] = super::expect_states::<2>(self.name(), states)?;
        let g_params = self.gen.params();
        self.opt_gen.import_state(&g_params, g)?;
        let d_params = self.disc.params();
        self.opt_disc.import_state(&d_params, d)
    }

    fn answer(&self, batch: &Batch) -> Inference {
        // Factual rationale for the gold label; no rationale-input
        // accuracy, as in the paper's tables.
        let z = self.gen.sample_mask(batch, &batch.labels, None);
        Inference {
            masks: mask_rows(&z, batch),
            logits: None,
            full_logits: None,
        }
    }

    /// 1 generator + 2 predictors' worth of modules (Table IV counts the
    /// class-wise discriminator pair).
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
    fn class_conditional_masks_differ_by_class() {
        let data = tiny_dataset(80);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 81);
        let mut rng = dar_tensor::rng(82);
        let gen = ClassConditionalGenerator::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let z0 = gen.sample_mask(&batch, &[0; 8], None).to_vec();
        let z1 = gen.sample_mask(&batch, &[1; 8], None).to_vec();
        // Untrained heads are random, so the two class-pairs almost surely
        // select differently somewhere.
        assert_ne!(z0, z1, "class conditioning had no effect");
    }

    #[test]
    fn trains_and_infers_without_acc() {
        let data = tiny_dataset(83);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 84);
        let mut rng = dar_tensor::rng(85);
        let mut model = Car::new(&cfg, &emb, max_len(&data), &mut rng);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            let loss = model.train_step(&batch, &mut rng);
            assert!(loss.is_finite());
        }
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert!(inf.logits.is_none(), "CAR must not report Acc");
        assert!(inf.masks.iter().flatten().all(|&v| v == 0.0 || v == 1.0));
    }
}
