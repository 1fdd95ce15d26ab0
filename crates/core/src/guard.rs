//! Divergence guards: a training runtime that survives non-finite losses,
//! loss spikes, and rationale collapse instead of silently producing a
//! broken model.
//!
//! [`GuardedTrainer`] trains like [`crate::Trainer`] — its own epoch loop
//! over the same run state — but watches every batch loss and every
//! epoch's dev metrics. When a guard trips it rolls the model — weights,
//! optimizer moments, RNG stream, and early-stopping state — back to the
//! last good epoch-boundary checkpoint through the same load
//! [`crate::Trainer::fit_resume`] uses, decays the learning rate, and
//! retries, up to a bounded number of times.
//! Every decision is recorded as a structured [`TrainEvent`] so a failed
//! run explains itself rather than panicking.

use std::collections::VecDeque;
use std::path::Path;

use dar_data::{AspectDataset, BatchIter};
use dar_tensor::{DarError, DarResult};

use crate::config::TrainConfig;
use crate::eval::evaluate_model;
use crate::models::RationaleModel;
use crate::trainer::{dev_score, RunState, TrainReport};
use crate::Rng;

/// Thresholds and retry budget for [`GuardedTrainer`].
#[derive(Debug, Clone, Copy)]
pub struct GuardPolicy {
    /// Rollback-and-retry attempts before giving up.
    pub max_retries: usize,
    /// Learning-rate multiplier applied on every rollback.
    pub lr_decay: f32,
    /// Rolling window of batch losses for spike detection.
    pub spike_window: usize,
    /// A batch loss beyond `mean + spike_sigmas · σ` of the window trips
    /// the spike guard.
    pub spike_sigmas: f32,
    /// Minimum window fill before the spike guard arms.
    pub spike_warmup: usize,
    /// Dev-set selected fraction at or below this trips the collapse
    /// guard (the generator selects nothing).
    pub collapse_low: f32,
    /// Dev-set selected fraction at or above this trips the collapse
    /// guard (the generator selects everything).
    pub collapse_high: f32,
}

impl GuardPolicy {
    /// Whether a dev/serving selected fraction sits in the collapse band.
    /// Shared by the training guard and the serving circuit breaker so
    /// both layers agree on what "degenerate selector" means.
    pub fn is_collapsed(&self, selected: f32) -> bool {
        selected <= self.collapse_low || selected >= self.collapse_high
    }
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            max_retries: 3,
            lr_decay: 0.5,
            spike_window: 64,
            spike_sigmas: 8.0,
            spike_warmup: 16,
            collapse_low: 0.005,
            collapse_high: 0.995,
        }
    }
}

/// Why a guard tripped.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardReason {
    /// A train step returned NaN/∞ loss. With taint tracking on
    /// (`DAR_TAINT=1`), `origin` names the op that first produced the
    /// non-finite value.
    NonFiniteLoss {
        step: usize,
        origin: Option<&'static str>,
    },
    /// A parameter went NaN/∞ (detected at the epoch boundary); `origin`
    /// as above when the taint latch caught the producing op.
    NonFiniteParams {
        epoch: usize,
        origin: Option<&'static str>,
    },
    /// A batch loss jumped far outside the recent distribution.
    LossSpike {
        step: usize,
        loss: f32,
        mean: f32,
        sigma: f32,
    },
    /// The generator degenerated to selecting (almost) nothing or
    /// (almost) everything on dev.
    RationaleCollapse { epoch: usize, selected: f32 },
}

impl std::fmt::Display for GuardReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardReason::NonFiniteLoss { step, origin } => {
                write!(f, "non-finite loss at step {step}")?;
                if let Some(op) = origin {
                    write!(f, " (first tainted by op `{op}`)")?;
                }
                Ok(())
            }
            GuardReason::NonFiniteParams { epoch, origin } => {
                write!(f, "non-finite parameters after epoch {epoch}")?;
                if let Some(op) = origin {
                    write!(f, " (first tainted by op `{op}`)")?;
                }
                Ok(())
            }
            GuardReason::LossSpike {
                step,
                loss,
                mean,
                sigma,
            } => write!(
                f,
                "loss spike at step {step}: {loss:.4} vs window {mean:.4}±{sigma:.4}"
            ),
            GuardReason::RationaleCollapse { epoch, selected } => {
                write!(
                    f,
                    "rationale collapse at epoch {epoch}: selected {selected:.3}"
                )
            }
        }
    }
}

/// Structured log of a guarded run — the answer to "what did training do".
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// An epoch finished clean and was checkpointed.
    EpochDone {
        epoch: usize,
        train_loss: f32,
        dev_score: f32,
    },
    /// A guard tripped mid-epoch or at the epoch boundary.
    GuardTripped { epoch: usize, reason: GuardReason },
    /// The run rolled back to the last good checkpoint and decayed LR.
    RolledBack {
        to_epoch: usize,
        retry: usize,
        lr_scale: f32,
    },
    /// The retry budget ran out.
    RetriesExhausted { epoch: usize },
}

/// A [`TrainReport`] plus the guard event log.
#[derive(Debug, Clone)]
pub struct GuardedReport {
    pub report: TrainReport,
    pub events: Vec<TrainEvent>,
    /// Rollbacks performed over the whole run.
    pub rollbacks: usize,
}

/// Rolling mean/σ window over recent batch losses.
struct LossWindow {
    buf: VecDeque<f32>,
    cap: usize,
}

impl LossWindow {
    fn new(cap: usize) -> Self {
        LossWindow {
            buf: VecDeque::with_capacity(cap),
            cap: cap.max(2),
        }
    }

    fn push(&mut self, loss: f32) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(loss);
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn mean_sigma(&self) -> (f32, f32) {
        let n = self.buf.len().max(1) as f64;
        let mean = self.buf.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = self
            .buf
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean as f32, var.sqrt() as f32)
    }

    fn clear(&mut self) {
        self.buf.clear();
    }
}

/// What a guarded run tracks beyond the shared [`RunState`]: its event
/// log, the rollback and retry counts, the pending learning-rate scale
/// and the spike window.
struct GuardState {
    events: Vec<TrainEvent>,
    rollbacks: usize,
    retries: usize,
    lr_scale: f32,
    window: LossWindow,
}

/// Fault-tolerant wrapper around the [`Trainer`](crate::Trainer) loop.
#[derive(Debug, Clone, Copy)]
pub struct GuardedTrainer {
    pub cfg: TrainConfig,
    pub policy: GuardPolicy,
}

impl GuardedTrainer {
    pub fn new(cfg: TrainConfig, policy: GuardPolicy) -> Self {
        GuardedTrainer { cfg, policy }
    }

    /// Train with divergence guards, checkpointing every clean epoch to
    /// `ckpt`. Guard trips roll back to that checkpoint and retry with a
    /// decayed learning rate; only an exhausted retry budget is an error
    /// ([`DarError::RetriesExhausted`]). The checkpoint stays compatible
    /// with [`crate::Trainer::fit_resume`].
    pub fn fit(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        ckpt: &Path,
    ) -> DarResult<GuardedReport> {
        let _train_span = dar_obs::span("train");
        let cfg = self.cfg;
        let mut guard = GuardState {
            events: Vec::new(),
            rollbacks: 0,
            retries: 0,
            lr_scale: 1.0,
            window: LossWindow::new(self.policy.spike_window),
        };
        let mut state = RunState::new(model);
        // Seed checkpoint before the first step, so even an epoch-0
        // divergence has a good state to roll back to.
        state.save(model, rng, ckpt)?;

        while state.next_epoch < cfg.epochs && !state.patience_spent(cfg.patience) {
            let epoch = state.next_epoch;
            let verdict = self
                .try_epoch(model, data, rng, epoch, &mut guard.window)
                .and_then(|train_loss| {
                    let dev_metrics = {
                        let _eval_span = dar_obs::span("eval");
                        evaluate_model(model, &data.dev, cfg.batch_size)
                    };
                    let selected = dev_metrics.sparsity;
                    if self.policy.is_collapsed(selected) {
                        Err(GuardReason::RationaleCollapse { epoch, selected })
                    } else {
                        Ok((train_loss, dev_score(&dev_metrics)))
                    }
                });
            match verdict {
                Ok((train_loss, score)) => {
                    guard.events.push(TrainEvent::EpochDone {
                        epoch,
                        train_loss,
                        dev_score: score,
                    });
                    state.record(model, train_loss, score, cfg.verbose, "|guarded");
                    state.save(model, rng, ckpt)?;
                    // The fresh checkpoint carries any LR decay already, so
                    // the pending scale (applied on top of the *stored* LR
                    // during rollback) starts over.
                    guard.retries = 0;
                    guard.lr_scale = 1.0;
                }
                Err(reason) => {
                    state = self.rollback(model, rng, ckpt, epoch, reason, &mut guard)?
                }
            }
        }

        Ok(GuardedReport {
            report: state.finish(model, data, cfg.batch_size),
            events: guard.events,
            rollbacks: guard.rollbacks,
        })
    }

    /// One epoch under per-batch guards; `Err` names the tripped guard.
    fn try_epoch(
        &self,
        model: &mut dyn RationaleModel,
        data: &AspectDataset,
        rng: &mut Rng,
        epoch: usize,
        window: &mut LossWindow,
    ) -> Result<f32, GuardReason> {
        let _epoch_span = dar_obs::span("epoch");
        let policy = self.policy;
        let taint = dar_tensor::taint_enabled();
        let mut loss_sum = 0.0;
        let mut n = 0usize;
        for batch in BatchIter::shuffled(&data.train, self.cfg.batch_size, rng) {
            if taint {
                // Per-step latch: anything recorded now was produced by
                // *this* step's forward/backward graph.
                dar_tensor::clear_taint();
            }
            let loss = model.train_step(&batch, rng);
            let step = n;
            if !loss.is_finite() {
                let origin = dar_tensor::first_taint().map(|t| t.op);
                return Err(GuardReason::NonFiniteLoss { step, origin });
            }
            if window.len() >= policy.spike_warmup {
                let (mean, sigma) = window.mean_sigma();
                // σ floors at a fraction of the mean so a near-constant
                // loss window doesn't turn noise into spikes.
                let sigma = sigma.max(0.05 * mean.abs()).max(1e-6);
                if loss > mean + policy.spike_sigmas * sigma {
                    return Err(GuardReason::LossSpike {
                        step,
                        loss,
                        mean,
                        sigma,
                    });
                }
            }
            window.push(loss);
            loss_sum += loss;
            n += 1;
        }
        let any_bad_param = model
            .params()
            .iter()
            .any(|p| p.to_vec().iter().any(|v| !v.is_finite()));
        if any_bad_param {
            let origin = dar_tensor::first_taint().map(|t| t.op);
            return Err(GuardReason::NonFiniteParams { epoch, origin });
        }
        dar_obs::add("train.steps", n as u64);
        Ok(loss_sum / n.max(1) as f32)
    }

    /// Record the tripped guard, then roll back to the last good checkpoint
    /// with a decayed learning rate and return its run state — or fail once
    /// the retry budget is spent.
    fn rollback(
        &self,
        model: &mut dyn RationaleModel,
        rng: &mut Rng,
        ckpt: &Path,
        epoch: usize,
        reason: GuardReason,
        guard: &mut GuardState,
    ) -> DarResult<RunState> {
        guard.events.push(TrainEvent::GuardTripped {
            epoch,
            reason: reason.clone(),
        });
        dar_obs::event(dar_obs::ObsEvent::GuardTripped {
            epoch: epoch as u64,
            reason: reason.to_string(),
        });
        dar_obs::inc("guard.trips");
        if guard.retries >= self.policy.max_retries {
            guard.events.push(TrainEvent::RetriesExhausted { epoch });
            dar_obs::event(dar_obs::ObsEvent::RetriesExhausted {
                epoch: epoch as u64,
            });
            return Err(DarError::RetriesExhausted {
                retries: guard.retries,
                last: reason.to_string(),
            });
        }
        guard.retries += 1;
        guard.rollbacks += 1;
        guard.lr_scale *= self.policy.lr_decay;
        // Decaying the LR carried inside the restored optimizer states
        // makes the retried epoch take smaller steps than the diverged one.
        let state = RunState::load(model, rng, ckpt, guard.lr_scale)?;
        // The window is poisoned by the diverged trajectory.
        guard.window.clear();
        guard.events.push(TrainEvent::RolledBack {
            to_epoch: state.next_epoch,
            retry: guard.retries,
            lr_scale: guard.lr_scale,
        });
        dar_obs::event(dar_obs::ObsEvent::RolledBack {
            to_epoch: state.next_epoch as u64,
            retry: guard.retries as u64,
            lr_scale: guard.lr_scale,
        });
        dar_obs::inc("guard.rollbacks");
        if self.cfg.verbose {
            println!(
                "[{}|guarded] rollback to epoch {} (retry {}, lr×{:.3})",
                model.name(),
                state.next_epoch,
                guard.retries,
                guard.lr_scale
            );
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::models::Rnp;
    use crate::pretrain::max_len;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_guard_{name}_{}", std::process::id()));
        p
    }

    /// Guards wide open so none can fire; the guarded loop must then be
    /// bit-identical to the plain trainer.
    fn open_policy() -> GuardPolicy {
        GuardPolicy {
            spike_sigmas: f32::INFINITY,
            collapse_low: -1.0,
            collapse_high: 2.0,
            ..GuardPolicy::default()
        }
    }

    #[test]
    fn clean_run_matches_plain_trainer_metrics() {
        let data = tiny_dataset(160);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 161);
        let tcfg = TrainConfig {
            epochs: 3,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };

        let mut rng = dar_tensor::rng(162);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let plain = crate::Trainer::new(tcfg).fit(&mut model, &data, &mut rng);

        let path = tmpfile("clean");
        let mut rng = dar_tensor::rng(162);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let guarded = GuardedTrainer::new(tcfg, open_policy())
            .fit(&mut model, &data, &mut rng, &path)
            .unwrap();

        assert_eq!(
            guarded.rollbacks, 0,
            "unexpected guard trips: {:?}",
            guarded.events
        );
        assert_eq!(guarded.report.test.f1, plain.test.f1);
        assert_eq!(guarded.report.test.acc, plain.test.acc);
        assert_eq!(
            guarded
                .events
                .iter()
                .filter(|e| matches!(e, TrainEvent::EpochDone { .. }))
                .count(),
            3
        );
        std::fs::remove_file(path).ok();
    }

    /// The collapse guard catches a transiently degenerate selector and
    /// the rollback + LR decay lets the run recover and finish (observed
    /// behavior of this fixture under the default policy).
    #[test]
    fn collapse_guard_recovers_via_rollback() {
        let data = tiny_dataset(160);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 161);
        let tcfg = TrainConfig {
            epochs: 3,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };
        let path = tmpfile("collapse");
        let mut rng = dar_tensor::rng(162);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let guarded = GuardedTrainer::new(tcfg, GuardPolicy::default())
            .fit(&mut model, &data, &mut rng, &path)
            .unwrap();
        assert!(
            guarded.rollbacks >= 1,
            "expected a collapse trip: {:?}",
            guarded.events
        );
        assert!(guarded.events.iter().any(|e| matches!(
            e,
            TrainEvent::GuardTripped {
                reason: GuardReason::RationaleCollapse { .. },
                ..
            }
        )));
        assert_eq!(guarded.report.epochs_run, 3, "run must still complete");
        assert!(guarded.report.test.f1.is_finite());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loss_window_statistics() {
        let mut w = LossWindow::new(4);
        for v in [1.0, 1.0, 1.0, 1.0, 5.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 4); // oldest evicted
        let (mean, sigma) = w.mean_sigma();
        assert!((mean - 2.0).abs() < 1e-6);
        assert!(sigma > 1.0);
        w.clear();
        assert_eq!(w.len(), 0);
    }
}
