//! The rationalization models: the vanilla RNP game, the paper's DAR, and
//! the published baselines (A2R, DMR, Inter_RAT, CAR, 3PLAYER, VIB).
//!
//! Every model is the generator–predictor game with its own loss, and all
//! of them train with the one clipped Adam step [`descend`]. [`by_name`]
//! is the one registry from a [`RationaleModel::name`] to its constructor.
//!
//! Each model computes its served answer in one place,
//! [`RationaleModel::answer`]: the rationale masks plus the logits its
//! label is read from. [`RationaleModel::infer`] is that answer plus the
//! full-text alignment probe, composed once in the trait, so the answer a
//! server returns cannot drift from `infer` and serving never pays for a
//! probe only eval reads.

mod a2r;
mod car;
mod dar;
mod dmr;
mod inter_rat;
mod rnp;
mod three_player;
mod vib;

pub use a2r::A2r;
pub use car::{Car, ClassConditionalGenerator};
pub use dar::Dar;
pub use dmr::Dmr;
pub use inter_rat::InterRat;
pub use rnp::Rnp;
pub use three_player::ThreePlayer;
pub use vib::Vib;

use dar_data::{AspectDataset, Batch};
use dar_tensor::optim::{clip_grad_norm, zero_grads, Adam, AdamState, Optimizer};
use dar_tensor::{DarError, DarResult, Rng, Tensor};

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::predictor::Predictor;
use crate::pretrain;
use crate::sentence::{SentenceRnp, SentenceSplitter};

/// Deterministic inference output of a model on one batch.
pub struct Inference {
    /// Binary rationale masks, one padded row per review.
    pub masks: Vec<Vec<f32>>,
    /// Prediction logits from the rationale input (`None` for
    /// label-conditioned selectors like CAR/DMR).
    pub logits: Option<Tensor>,
    /// Prediction logits on the full input: the alignment probe of
    /// [`RationaleModel::infer`], or DMR's teacher logits, which are also
    /// its served label.
    pub full_logits: Option<Tensor>,
}

/// A trainable rationalization model.
pub trait RationaleModel {
    /// Display name (matches the paper's method names).
    fn name(&self) -> &'static str;

    /// Trainable parameters (frozen discriminators are excluded).
    fn params(&self) -> Vec<Tensor>;

    /// One optimization step on a batch; returns the scalar loss.
    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32;

    /// The served answer on one batch (argmax masks, no Gumbel noise):
    /// the rationale masks plus the logits the label is read from —
    /// `logits` for rationale predictors, `full_logits` for DMR, neither
    /// for CAR — and nothing else.
    fn answer(&self, batch: &Batch) -> Inference;

    /// The alignment probe (Fig. 3b): the rationale predictor's logits on
    /// the full input, or `None` for models without one. It is the same
    /// computation as [`Self::predict_full_text`] unless the degraded path
    /// reads another module (DAR's frozen discriminator) or the model has
    /// no degraded path (RNP-os).
    fn full_text_probe(&self, batch: &Batch) -> Option<Tensor> {
        self.predict_full_text(batch)
    }

    /// Deterministic inference: [`Self::answer`] plus
    /// [`Self::full_text_probe`] when the answer left `full_logits` empty.
    fn infer(&self, batch: &Batch) -> Inference {
        let mut inf = self.answer(batch);
        if inf.full_logits.is_none() {
            inf.full_logits = self.full_text_probe(batch);
        }
        inf
    }

    /// Full-text prediction logits `[b, classes]` that bypass the
    /// generator entirely, or `None` for models without a full-input
    /// predictor path (label-conditioned selectors like CAR).
    ///
    /// This is the serving runtime's degraded mode: when the generator is
    /// panicking or its rationales have collapsed, the service can keep
    /// answering predictions from the full input without touching the
    /// failing player.
    fn predict_full_text(&self, batch: &Batch) -> Option<Tensor> {
        let _ = batch;
        None
    }

    /// (generator count, predictor count) as reported in Table IV.
    fn player_modules(&self) -> (usize, usize) {
        (1, 1)
    }

    /// Snapshot trainable parameter values (early stopping).
    fn snapshot(&self) -> Vec<Vec<f32>> {
        self.params().iter().map(|p| p.to_vec()).collect()
    }

    /// Restore a snapshot taken from the same model.
    fn restore(&mut self, snap: &[Vec<f32>]) {
        let params = self.params();
        assert_eq!(params.len(), snap.len(), "snapshot shape mismatch");
        for (p, s) in params.iter().zip(snap) {
            p.set_values(s.clone());
        }
    }

    /// Total trainable scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Export every optimizer's durable state for checkpointing, in a
    /// model-defined canonical order. The default (no optimizers) suits
    /// inference-only wrappers; trainable models override this together
    /// with [`Self::restore_optim`] so a resumed run replays the exact
    /// Adam moments of the interrupted one.
    fn optim_states(&self) -> Vec<AdamState> {
        Vec::new()
    }

    /// Restore optimizer state exported by [`Self::optim_states`] on an
    /// identically-constructed model.
    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        if states.is_empty() {
            Ok(())
        } else {
            Err(DarError::InvalidData(format!(
                "{} optimizer states for a model without optimizers",
                states.len()
            )))
        }
    }
}

/// Builds one model replica, on the thread that will use it (tensors
/// are not `Send`): each serving worker and the online trainer build
/// their own from the same closure, so candidate checkpoints match the
/// serving architecture. It must capture only `Send + Sync` data and be
/// deterministic for any *frozen* modules the weight swap does not cover
/// (frozen parts are excluded from `params()` and thus from checkpoints).
pub type ModelFactory = std::sync::Arc<dyn Fn() -> Box<dyn RationaleModel> + Send + Sync>;

/// Global gradient-norm clip of every optimizer step.
pub const GRAD_CLIP: f32 = 5.0;

/// The optimizer step every model and pretraining loop takes: zero the
/// gradients of `params`, backpropagate `loss`, clip their global norm at
/// [`GRAD_CLIP`] and step `opt`. Returns the loss value.
pub fn descend(opt: &mut Adam, params: &[Tensor], loss: &Tensor) -> f32 {
    zero_grads(params);
    loss.backward();
    clip_grad_norm(params, GRAD_CLIP);
    opt.step(params);
    loss.item()
}

/// The model whose [`RationaleModel::name`] is `name`, or `None` for an
/// unknown name. DAR first pretrains its frozen discriminator on full
/// text for `pretrain_epochs` (Eq. (4)).
pub fn by_name(
    name: &str,
    cfg: &RationaleConfig,
    emb: &SharedEmbedding,
    data: &AspectDataset,
    pretrain_epochs: usize,
    rng: &mut Rng,
) -> Option<Box<dyn RationaleModel>> {
    let ml = pretrain::max_len(data);
    Some(match name {
        "RNP" => Box::new(Rnp::new(cfg, emb, ml, rng)),
        "DAR" => {
            let disc = pretrain::full_text_predictor(cfg, emb, data, pretrain_epochs, rng);
            Box::new(Dar::new(cfg, emb, disc, ml, rng))
        }
        "A2R" => Box::new(A2r::new(cfg, emb, ml, rng)),
        "DMR" => Box::new(Dmr::new(cfg, emb, ml, rng)),
        "Inter_RAT" => Box::new(InterRat::new(cfg, emb, ml, rng)),
        "CAR" => Box::new(Car::new(cfg, emb, ml, rng)),
        "3PLAYER" => Box::new(ThreePlayer::new(cfg, emb, ml, rng)),
        "VIB" => Box::new(Vib::new(cfg, emb, ml, rng)),
        "RNP-os" => {
            let splitter = SentenceSplitter::from_vocab(&data.vocab);
            Box::new(SentenceRnp::new(cfg, emb, splitter, ml, rng))
        }
        _ => return None,
    })
}

/// [`RationaleModel::answer`] of a generator + predictor model, given the
/// generator's deterministic mask `z`: the predictor's logits on the
/// rationale. Its probe is `pred.forward_full`.
pub(crate) fn rationale_answer(pred: &Predictor, batch: &Batch, z: &Tensor) -> Inference {
    Inference {
        masks: mask_rows(z, batch),
        logits: Some(pred.forward_masked(batch, z)),
        full_logits: None,
    }
}

/// [`RationaleModel::restore_optim`] of a model that trains all of its
/// `params` with one optimizer.
pub(crate) fn restore_single(
    model: &str,
    opt: &mut Adam,
    params: &[Tensor],
    states: &[AdamState],
) -> DarResult<()> {
    let [s] = expect_states::<1>(model, states)?;
    opt.import_state(params, s)
}

/// Guard for the fixed-arity optimizer-state handshake in
/// [`RationaleModel::restore_optim`] implementations.
pub(crate) fn expect_states<'a, const N: usize>(
    model: &str,
    states: &'a [AdamState],
) -> DarResult<&'a [AdamState; N]> {
    states.try_into().map_err(|_| {
        DarError::InvalidData(format!(
            "{model} expects {N} optimizer states, checkpoint has {}",
            states.len()
        ))
    })
}

/// Convert a mask tensor `[b, l]` into per-review rows.
pub(crate) fn mask_rows(z: &Tensor, batch: &Batch) -> Vec<Vec<f32>> {
    let l = batch.seq_len();
    z.to_vec().chunks(l).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for model unit tests: a tiny separable dataset on
    //! which any sound model must learn quickly.

    use dar_data::synth::{Aspect, SynthConfig};
    use dar_data::{AspectDataset, SynBeer};

    use crate::config::RationaleConfig;
    use crate::embedder::SharedEmbedding;

    /// A small Beer-Aroma dataset (fast to train in tests).
    pub fn tiny_dataset(seed: u64) -> AspectDataset {
        let cfg = SynthConfig {
            n_train: 192,
            n_dev: 48,
            n_test: 48,
            ..SynthConfig::beer(Aspect::Aroma)
        };
        SynBeer::generate(&cfg, &mut dar_tensor::rng(seed))
    }

    /// Small-model config for tests.
    pub fn tiny_config() -> RationaleConfig {
        RationaleConfig {
            emb_dim: 24,
            hidden: 24,
            sparsity: 0.16,
            lr: 2e-3,
            ..Default::default()
        }
    }

    pub fn tiny_embedding(data: &AspectDataset, seed: u64) -> SharedEmbedding {
        SharedEmbedding::random(
            data.vocab.len(),
            tiny_config().emb_dim,
            &mut dar_tensor::rng(seed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use dar_data::BatchIter;

    #[test]
    fn registry_knows_all_paper_models() {
        let data = tiny_dataset(90);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 91);
        let mut rng = dar_tensor::rng(92);
        for name in [
            "RNP",
            "DAR",
            "A2R",
            "DMR",
            "Inter_RAT",
            "CAR",
            "3PLAYER",
            "VIB",
            "RNP-os",
        ] {
            let model = by_name(name, &cfg, &emb, &data, 1, &mut rng)
                .unwrap_or_else(|| panic!("registry does not know '{name}'"));
            assert_eq!(model.name(), name, "registry key must round-trip");
        }
        assert!(by_name("BERT", &cfg, &emb, &data, 1, &mut rng).is_none());
    }

    fn bits(t: &Option<Tensor>) -> Option<Vec<u32>> {
        t.as_ref()
            .map(|t| t.to_vec().iter().map(|v| v.to_bits()).collect())
    }

    /// `infer` is the served answer plus the probe, bit for bit: the
    /// answer's masks and label logits are `infer`'s, and `infer`'s
    /// full-text logits are the probe's (or, for DMR, the answer's own).
    #[test]
    fn answer_and_probe_compose_to_infer() {
        let data = tiny_dataset(93);
        let emb = tiny_embedding(&data, 94);
        let mut rng = dar_tensor::rng(95);
        for name in [
            "RNP",
            "DAR",
            "A2R",
            "DMR",
            "Inter_RAT",
            "CAR",
            "3PLAYER",
            "VIB",
            "RNP-os",
        ] {
            let model = by_name(name, &tiny_config(), &emb, &data, 1, &mut rng).unwrap();
            for size in [1, 16] {
                let batch = BatchIter::sequential(&data.test, size).next().unwrap();
                let (answer, inf, probe) = dar_tensor::no_grad(|| {
                    let probe = model.full_text_probe(&batch);
                    (model.answer(&batch), model.infer(&batch), probe)
                });
                let at = format!("{name} at batch {size}");
                assert_eq!(answer.masks, inf.masks, "{at}: masks");
                assert_eq!(bits(&answer.logits), bits(&inf.logits), "{at}: logits");
                let full = if answer.full_logits.is_some() {
                    &answer.full_logits
                } else {
                    &probe
                };
                assert_eq!(bits(full), bits(&inf.full_logits), "{at}: full-text logits");
            }
        }
    }
}
