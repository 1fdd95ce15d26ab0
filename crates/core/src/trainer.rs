//! The training loop: epochs of shuffled batches, dev-accuracy early
//! stopping with best-weight restoration (paper App. B), and final test
//! evaluation.
//!
//! Every run — plain, checkpointed, resumed or guarded — goes through
//! [`Trainer`]'s one epoch loop, and its bookkeeping lives in one
//! [`RunState`]: recording a clean epoch, saving and loading the
//! epoch-boundary checkpoint, and finishing the run.
//!
//! # Fault tolerance
//!
//! [`Trainer::fit_checkpointed`] writes a durable checkpoint after every
//! epoch — model parameters, per-optimizer Adam moments, the RNG stream
//! position, and the early-stopping bookkeeping — via the atomic,
//! CRC-protected [`dar_tensor::serial`] format. [`Trainer::fit_resume`]
//! restores all of it, so a run killed between epochs and resumed produces
//! the *same* final [`TrainReport`] as one that never crashed: the only RNG
//! consumers are the per-epoch batch shuffle and the train steps, both of
//! which replay from the restored stream position.

use std::path::Path;

use dar_data::{AspectDataset, BatchIter};
use dar_tensor::optim::AdamState;
use dar_tensor::serial::{self, codec, Checkpoint};
use dar_tensor::{DarError, DarResult};

use crate::config::TrainConfig;
use crate::eval::{evaluate_model, RationaleMetrics};
use crate::guard::{check_params, Guard, GuardPolicy, GuardReason, RestorePoint, TrainEvent};
use crate::models::RationaleModel;
use crate::Rng;

/// Per-epoch record.
#[derive(Debug, Clone, Copy)]
pub struct EpochLog {
    pub epoch: usize,
    pub train_loss: f32,
    /// Dev accuracy with rationale input (or dev F1 for label-conditioned
    /// selectors that report no accuracy).
    pub dev_score: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub model_name: String,
    pub epochs_run: usize,
    pub best_epoch: usize,
    pub history: Vec<EpochLog>,
    /// Metrics on the annotated test split with best-dev weights restored.
    pub test: RationaleMetrics,
    /// Dev metrics at the best epoch.
    pub dev: RationaleMetrics,
    /// A guarded run's trips and rollbacks in order (a resumed run's
    /// from its resume on); empty for an unguarded run.
    pub events: Vec<TrainEvent>,
}

impl TrainReport {
    /// Guard rollbacks performed over the run.
    pub fn rollbacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TrainEvent::RolledBack { .. }))
            .count()
    }
}

/// Trains any [`RationaleModel`] on an [`AspectDataset`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    pub cfg: TrainConfig,
    /// The divergence guards' policy; `None` trains unguarded.
    pub guard: Option<GuardPolicy>,
}

impl Trainer {
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg, guard: None }
    }

    /// A trainer whose runs go under the divergence guards of `policy`.
    pub fn guarded(cfg: TrainConfig, policy: GuardPolicy) -> Self {
        let guard = Some(policy);
        Trainer { cfg, guard }
    }

    /// Run the full loop and return the report. The model is left holding
    /// its best-dev weights. Only a guarded run can fail, and it reports
    /// that through [`Self::try_fit`]; here it panics.
    pub fn fit(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
    ) -> TrainReport {
        self.try_fit(model, data, rng)
            .expect("a guarded run reports exhausted retries through try_fit")
    }

    /// [`Self::fit`], returning a guarded run's exhausted retry budget as
    /// [`DarError::RetriesExhausted`].
    pub fn try_fit(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
    ) -> DarResult<TrainReport> {
        let state = RunState::new(model);
        self.run(model, data, rng, None, state)
    }

    /// [`Self::try_fit`], writing a durable checkpoint to `ckpt` after
    /// every clean epoch. A run killed at any point can be continued with
    /// [`Self::fit_resume`] on the same path.
    pub fn fit_checkpointed(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        ckpt: &Path,
    ) -> DarResult<TrainReport> {
        let state = RunState::new(model);
        self.run(model, data, rng, Some(ckpt), state)
    }

    /// Resume an interrupted [`Self::fit_checkpointed`] run from its
    /// checkpoint. `model` must be constructed identically to the original
    /// (same config/shapes); its weights, optimizer moments, RNG stream,
    /// and early-stopping state are all overwritten from the file, after
    /// which the final report is identical to an uninterrupted run. A
    /// guarded trainer resumes under its guard.
    pub fn fit_resume(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        ckpt: &Path,
    ) -> DarResult<TrainReport> {
        let state = RunState::load(model, rng, ckpt)?;
        dar_obs::event(dar_obs::ObsEvent::CheckpointResumed {
            next_epoch: state.next_epoch as u64,
        });
        dar_obs::inc("train.resumes");
        self.run(model, data, rng, Some(ckpt), state)
    }

    /// The epoch loop. Under a guard, a tripped epoch rolls back to the
    /// last clean epoch boundary and is retried.
    fn run(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        ckpt: Option<&Path>,
        mut state: RunState,
    ) -> DarResult<TrainReport> {
        let _train_span = dar_obs::span("train");
        let cfg = self.cfg;
        let mut guard = self
            .guard
            .map(|policy| Guard::arm(policy, RestorePoint::take(model, rng, state.clone())));
        let tag = if guard.is_some() { "|guarded" } else { "" };
        let mut events = Vec::new();
        // Patience is checked before every epoch, so a resume from a
        // checkpoint written just before early stopping also stops.
        while state.next_epoch < cfg.epochs && !state.patience_spent(cfg.patience) {
            let epoch = state.next_epoch;
            match self.epoch(model, data, rng, epoch, guard.as_mut()) {
                Ok((train_loss, dev_score)) => {
                    state.record(model, train_loss, dev_score, cfg.verbose, tag);
                    if let Some(path) = ckpt {
                        state.save(model, rng, path)?;
                    }
                    if let Some(guard) = &mut guard {
                        guard.mark_clean(RestorePoint::take(model, rng, state.clone()));
                    }
                }
                Err(reason) => {
                    let guard = guard.as_mut().expect("only a guarded epoch trips");
                    state = guard.roll_back(model, rng, epoch, reason, &mut events, cfg.verbose)?;
                }
            }
        }
        Ok(state.finish(model, data, cfg.batch_size, events))
    }

    /// Train epoch `epoch` and score it on dev: (mean train loss, dev
    /// score), or under a guard the check that tripped.
    fn epoch(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        epoch: usize,
        mut guard: Option<&mut Guard>,
    ) -> Result<(f32, f32), GuardReason> {
        let batch_size = self.cfg.batch_size;
        let taint = guard.is_some() && dar_tensor::taint_enabled();
        let mut loss_sum = 0.0;
        let mut n = 0usize;
        {
            let _epoch_span = dar_obs::span("epoch");
            for batch in BatchIter::shuffled(&data.train, batch_size, rng) {
                if taint {
                    // Per-step latch: anything recorded now was produced
                    // by *this* step's forward/backward graph.
                    dar_tensor::clear_taint();
                }
                let loss = model.train_step(&batch, rng);
                if let Some(guard) = guard.as_deref_mut() {
                    guard.check_step(n, loss)?;
                }
                loss_sum += loss;
                n += 1;
            }
            if guard.is_some() {
                check_params(model, epoch)?;
            }
        }
        dar_obs::add("train.steps", n as u64);
        let dev_metrics = {
            let _eval_span = dar_obs::span("eval");
            evaluate_model(model, &data.dev, batch_size)
        };
        if let Some(guard) = guard {
            guard.check_dev(epoch, &dev_metrics)?;
        }
        // Model selection reads dev accuracy when available (the paper's
        // early-stopping criterion), else rationale F1.
        let dev_score = dev_metrics.acc.unwrap_or(dev_metrics.f1);
        Ok((loss_sum / n.max(1) as f32, dev_score))
    }
}

/// The bookkeeping of a run: the next epoch, the history, and the
/// early-stopping state with its best-so-far weights.
///
/// An epoch-boundary checkpoint stores it as the `meta` blob of a
/// [`Checkpoint`], together with the model name, the RNG stream position
/// and the optimizer states — everything beyond the parameter tensors that
/// exact resume needs. [`Trainer::fit_resume`] comes back through
/// [`RunState::load`]; a guard rollback restores a copy held in memory.
#[derive(Debug, Clone)]
pub(crate) struct RunState {
    pub(crate) next_epoch: usize,
    best_epoch: usize,
    best_score: f32,
    since_best: usize,
    history: Vec<EpochLog>,
    best_snap: Vec<Vec<f32>>,
}

/// Bumped whenever the resume metadata layout changes.
const RESUME_META_VERSION: u32 = 1;

impl RunState {
    /// A run that has trained nothing yet; its best weights are the
    /// initial ones.
    pub(crate) fn new(model: &dyn RationaleModel) -> Self {
        RunState {
            next_epoch: 0,
            best_epoch: 0,
            best_score: f32::NEG_INFINITY,
            since_best: 0,
            history: Vec::new(),
            best_snap: model.snapshot(),
        }
    }

    /// Whether early stopping's patience has run out.
    fn patience_spent(&self, patience: Option<usize>) -> bool {
        patience.is_some_and(|p| self.since_best >= p)
    }

    /// Record the clean epoch `next_epoch`: its history entry and
    /// `EpochDone` event, the progress line when `verbose` (the model name
    /// followed by `tag`), and the best-so-far weights.
    fn record(
        &mut self,
        model: &dyn RationaleModel,
        train_loss: f32,
        dev_score: f32,
        verbose: bool,
        tag: &str,
    ) {
        let epoch = self.next_epoch;
        self.history.push(EpochLog {
            epoch,
            train_loss,
            dev_score,
        });
        dar_obs::event(dar_obs::ObsEvent::EpochDone {
            epoch: epoch as u64,
            train_loss,
            dev_score,
        });
        dar_obs::inc("train.epochs");
        if verbose {
            println!(
                "[{}{tag}] epoch {epoch:>3}  loss {train_loss:.4}  dev {dev_score:.4}",
                model.name()
            );
        }
        if dev_score > self.best_score {
            self.best_score = dev_score;
            self.best_epoch = epoch;
            self.best_snap = model.snapshot();
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
        self.next_epoch = epoch + 1;
    }

    /// Write the epoch-boundary checkpoint: the model's parameters, this
    /// state, the RNG position and the optimizer states.
    fn save(&self, model: &dyn RationaleModel, rng: &Rng, path: &Path) -> DarResult<()> {
        let meta = self.encode(model.name(), rng.state(), &model.optim_states());
        {
            let _ckpt_span = dar_obs::span("checkpoint");
            serial::save_checkpoint_path(path, &Checkpoint::new(model.params(), meta))?;
        }
        dar_obs::event(dar_obs::ObsEvent::CheckpointSaved {
            next_epoch: self.next_epoch as u64,
        });
        dar_obs::inc("train.checkpoints_saved");
        Ok(())
    }

    /// Restore `model` (weights and optimizer states) and `rng` from the
    /// checkpoint at `path`, returning the run state it recorded. The
    /// checkpoint must have been written by a model of the same name.
    fn load(model: &mut dyn RationaleModel, rng: &mut Rng, path: &Path) -> DarResult<Self> {
        let loaded = serial::load_checkpoint_path(path)?;
        let (model_name, rng_state, state, optim) = Self::decode(&loaded.meta)?;
        if model_name != model.name() {
            return Err(DarError::InvalidData(format!(
                "checkpoint was written by model '{model_name}', resuming '{}'",
                model.name()
            )));
        }
        serial::restore_into(&loaded.tensors, &model.params())?;
        model.restore_optim(&optim)?;
        *rng = Rng::from_state(rng_state);
        Ok(state)
    }

    /// Restore the best weights, evaluate dev and test, and report with
    /// the run's `events`.
    fn finish(
        self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        batch_size: usize,
        events: Vec<TrainEvent>,
    ) -> TrainReport {
        model.restore(&self.best_snap);
        let (dev, test) = {
            let _eval_span = dar_obs::span("eval");
            (
                evaluate_model(model, &data.dev, batch_size),
                evaluate_model(model, &data.test, batch_size),
            )
        };
        dar_obs::gauge_set("train.best_epoch", self.best_epoch as i64);
        TrainReport {
            model_name: model.name().to_owned(),
            epochs_run: self.history.len(),
            best_epoch: self.best_epoch,
            history: self.history,
            test,
            dev,
            events,
        }
    }

    fn encode(&self, model_name: &str, rng_state: [u64; 4], optim: &[AdamState]) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u32(&mut out, RESUME_META_VERSION);
        codec::put_str(&mut out, model_name);
        for w in rng_state {
            codec::put_u64(&mut out, w);
        }
        codec::put_u32(&mut out, self.next_epoch as u32);
        codec::put_u32(&mut out, self.best_epoch as u32);
        codec::put_f32(&mut out, self.best_score);
        codec::put_u32(&mut out, self.since_best as u32);
        codec::put_u32(&mut out, self.history.len() as u32);
        for log in &self.history {
            codec::put_u32(&mut out, log.epoch as u32);
            codec::put_f32(&mut out, log.train_loss);
            codec::put_f32(&mut out, log.dev_score);
        }
        codec::put_u32(&mut out, self.best_snap.len() as u32);
        for snap in &self.best_snap {
            codec::put_f32s(&mut out, snap);
        }
        codec::put_u32(&mut out, optim.len() as u32);
        for state in optim {
            state.encode(&mut out);
        }
        out
    }

    /// Inverse of [`Self::encode`]: (model name, RNG state, run state,
    /// optimizer states).
    fn decode(meta: &[u8]) -> DarResult<(String, [u64; 4], Self, Vec<AdamState>)> {
        let mut c = codec::Cursor::new(meta);
        let version = c.u32()?;
        if version != RESUME_META_VERSION {
            return Err(DarError::InvalidData(format!(
                "unsupported resume metadata version {version}"
            )));
        }
        let model_name = c.str_()?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = c.u64()?;
        }
        if rng_state == [0; 4] {
            return Err(DarError::InvalidData(
                "resume RNG state is all-zero".to_owned(),
            ));
        }
        let next_epoch = c.u32()? as usize;
        let best_epoch = c.u32()? as usize;
        let best_score = c.f32()?;
        let since_best = c.u32()? as usize;
        let n_hist = c.u32()? as usize;
        if n_hist > 1 << 20 {
            return Err(DarError::InvalidData(format!(
                "resume history of {n_hist} epochs"
            )));
        }
        let mut history = Vec::with_capacity(n_hist);
        for _ in 0..n_hist {
            let epoch = c.u32()? as usize;
            let train_loss = c.f32()?;
            let dev_score = c.f32()?;
            history.push(EpochLog {
                epoch,
                train_loss,
                dev_score,
            });
        }
        let n_snap = c.u32()? as usize;
        if n_snap > serial::MAX_TENSORS {
            return Err(DarError::InvalidData(format!(
                "resume snapshot of {n_snap} tensors"
            )));
        }
        let mut best_snap = Vec::with_capacity(n_snap);
        for _ in 0..n_snap {
            best_snap.push(c.f32s()?);
        }
        let n_opt = c.u32()? as usize;
        if n_opt > 64 {
            return Err(DarError::InvalidData(format!(
                "resume claims {n_opt} optimizers"
            )));
        }
        let mut optim = Vec::with_capacity(n_opt);
        for _ in 0..n_opt {
            optim.push(AdamState::decode(&mut c)?);
        }
        let state = RunState {
            next_epoch,
            best_epoch,
            best_score,
            since_best,
            history,
            best_snap,
        };
        Ok((model_name, rng_state, state, optim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::models::Rnp;
    use crate::pretrain::max_len;

    #[test]
    fn fit_produces_history_and_restores_best() {
        let data = tiny_dataset(130);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 131);
        let mut rng = dar_tensor::rng(132);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 32,
            patience: None,
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data, &mut rng);
        assert_eq!(report.history.len(), 4);
        assert!(report.best_epoch < 4);
        assert!(report.test.sparsity >= 0.0 && report.test.sparsity <= 1.0);
        assert!(report.test.f1 >= 0.0 && report.test.f1 <= 1.0);
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_trainer_{name}_{}", std::process::id()));
        p
    }

    /// The paper-critical resume guarantee: a run killed between epochs
    /// and resumed from its checkpoint must reach the exact metrics of a
    /// run that never crashed.
    #[test]
    fn resume_after_crash_matches_uninterrupted_run() {
        let data = tiny_dataset(140);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 141);
        let full = TrainConfig {
            epochs: 4,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };

        // Uninterrupted reference run.
        let path_a = tmpfile("uninterrupted");
        let mut rng = dar_tensor::rng(142);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let reference = Trainer::new(full)
            .fit_checkpointed(&mut model, &data, &mut rng, &path_a)
            .unwrap();

        // "Crashed" run: same seeds, killed after epoch 2 (simulated by a
        // truncated epoch budget — the checkpoint it leaves is identical
        // to the one a real mid-run kill would leave behind).
        let path_b = tmpfile("crashed");
        let mut rng = dar_tensor::rng(142);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let partial = TrainConfig { epochs: 2, ..full };
        Trainer::new(partial)
            .fit_checkpointed(&mut model, &data, &mut rng, &path_b)
            .unwrap();

        // Resume in a fresh "process": identically constructed model, rng
        // whose state will be overwritten from the checkpoint.
        let mut rng = dar_tensor::rng(142);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let mut rng = dar_tensor::rng(999); // wrong on purpose; must be ignored
        let resumed = Trainer::new(full)
            .fit_resume(&mut model, &data, &mut rng, &path_b)
            .unwrap();

        assert_eq!(resumed.epochs_run, reference.epochs_run);
        assert_eq!(resumed.best_epoch, reference.best_epoch);
        assert_eq!(resumed.test.f1, reference.test.f1);
        assert_eq!(resumed.test.acc, reference.test.acc);
        assert_eq!(resumed.dev.f1, reference.dev.f1);
        for (r, f) in resumed.history.iter().zip(&reference.history) {
            assert_eq!(r.train_loss, f.train_loss, "epoch {} diverged", r.epoch);
            assert_eq!(r.dev_score, f.dev_score, "epoch {} diverged", r.epoch);
        }
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }

    #[test]
    fn resume_rejects_wrong_model() {
        let data = tiny_dataset(150);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 151);
        let path = tmpfile("wrong_model");
        let short = TrainConfig {
            epochs: 1,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };
        let mut rng = dar_tensor::rng(152);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        Trainer::new(short)
            .fit_checkpointed(&mut model, &data, &mut rng, &path)
            .unwrap();

        let mut other = crate::models::Vib::new(&cfg, &emb, max_len(&data), &mut rng);
        let err = Trainer::new(short)
            .fit_resume(&mut other, &data, &mut rng, &path)
            .unwrap_err();
        assert!(
            matches!(err, dar_tensor::DarError::InvalidData(_)),
            "got {err:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn early_stopping_halts() {
        let data = tiny_dataset(133);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 134);
        let mut rng = dar_tensor::rng(135);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 50,
            batch_size: 32,
            patience: Some(1),
            ..Default::default()
        });
        let report = trainer.fit(&mut model, &data, &mut rng);
        assert!(
            report.epochs_run < 50,
            "patience 1 should stop early, ran {}",
            report.epochs_run
        );
    }
}
