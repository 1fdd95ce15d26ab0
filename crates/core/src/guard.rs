//! Divergence guards: checks that let a training run survive non-finite
//! losses, loss spikes and rationale collapse instead of silently
//! producing a broken model.
//!
//! A [`GuardPolicy`] on a [`crate::Trainer`] arms them in the trainer's
//! one epoch loop. The loop's [`Guard`] watches every batch loss and
//! every epoch's dev metrics. When a check trips, the guard puts the
//! model — weights, optimizer moments, RNG stream and early-stopping
//! state — back to the [`RestorePoint`] it took in memory at the last
//! clean epoch boundary, decays the learning rate, and retries, up to a
//! bounded number of times. A rollback reads no file. Every decision is
//! recorded as a structured [`TrainEvent`] so a failed run explains
//! itself rather than panicking. The online trainer ([`crate::stream`])
//! rolls a diverged round back through the same [`RestorePoint`] and the
//! same non-finite checks.

use std::collections::VecDeque;

use dar_tensor::optim::AdamState;
use dar_tensor::{DarError, DarResult, Tensor};

use crate::eval::RationaleMetrics;
use crate::models::RationaleModel;
use crate::trainer::RunState;
use crate::Rng;

/// Thresholds and retry budget for a guarded [`crate::Trainer`].
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

/// A guard's trips and rollbacks, in order — the answer to "what did
/// training do" beyond the epoch history.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// A guard tripped mid-epoch or at the epoch boundary.
    GuardTripped { epoch: usize, reason: GuardReason },
    /// The run rolled back to the last clean epoch boundary and decayed LR.
    RolledBack {
        to_epoch: usize,
        retry: usize,
        lr_scale: f32,
    },
}

/// Mean and σ of the losses in a spike window.
fn mean_sigma(window: &VecDeque<f32>) -> (f32, f32) {
    let n = window.len().max(1) as f64;
    let mean = window.iter().map(|&x| x as f64).sum::<f64>() / n;
    let var = window
        .iter()
        .map(|&x| (x as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    (mean as f32, var.sqrt() as f32)
}

/// What a rollback puts back, held in memory: the weights, every
/// optimizer's state (Adam moments, step count, learning rate), the RNG
/// stream position and the caller's own state `S` (the trainer's
/// [`RunState`]; the online trainer keeps none).
pub(crate) struct RestorePoint<S = ()> {
    weights: Vec<Vec<f32>>,
    optim: Vec<AdamState>,
    rng: Rng,
    state: S,
}

impl<S: Clone> RestorePoint<S> {
    pub(crate) fn take(model: &dyn RationaleModel, rng: &Rng, state: S) -> Self {
        RestorePoint {
            weights: model.snapshot(),
            optim: model.optim_states(),
            rng: rng.clone(),
            state,
        }
    }

    /// Put `model` and `rng` back to this point, with every optimizer's
    /// learning rate scaled by `lr_scale` (1 restores it exactly), and
    /// return a copy of the state taken with it.
    pub(crate) fn restore(
        &self,
        model: &mut dyn RationaleModel,
        rng: &mut Rng,
        lr_scale: f32,
    ) -> DarResult<S> {
        model.restore(&self.weights);
        let mut optim = self.optim.clone();
        for s in &mut optim {
            s.lr *= lr_scale;
        }
        model.restore_optim(&optim)?;
        *rng = self.rng.clone();
        Ok(self.state.clone())
    }
}

/// Trips on a NaN/∞ loss from train step `step`, naming the taint
/// latch's culprit op when tracking is on (`DAR_TAINT=1`).
pub(crate) fn check_loss(step: usize, loss: f32) -> Result<(), GuardReason> {
    if loss.is_finite() {
        return Ok(());
    }
    let origin = dar_tensor::first_taint().map(|t| t.op);
    Err(GuardReason::NonFiniteLoss { step, origin })
}

/// Trips when a parameter holds a NaN/∞ after `epoch`, naming the culprit
/// op like [`check_loss`].
pub(crate) fn check_params(model: &dyn RationaleModel, epoch: usize) -> Result<(), GuardReason> {
    let finite = |p: &Tensor| p.to_vec().iter().all(|v| v.is_finite());
    if model.params().iter().all(finite) {
        return Ok(());
    }
    let origin = dar_tensor::first_taint().map(|t| t.op);
    Err(GuardReason::NonFiniteParams { epoch, origin })
}

/// A guarded run's watch over the trainer's epoch loop: the policy, the
/// spike window, the retry budget and the restore point of the last
/// clean epoch boundary.
pub(crate) struct Guard {
    policy: GuardPolicy,
    /// The last `spike_window` (at least 2) clean batch losses.
    window: VecDeque<f32>,
    /// Rollbacks since the last clean epoch.
    retries: usize,
    point: RestorePoint<RunState>,
}

impl Guard {
    /// Arm `policy` over a run at the epoch boundary `point`, fresh or
    /// just resumed.
    pub(crate) fn arm(policy: GuardPolicy, point: RestorePoint<RunState>) -> Self {
        Guard {
            policy,
            window: VecDeque::new(),
            retries: 0,
            point,
        }
    }

    /// Check train step `step`'s loss: non-finite, then a spike beyond
    /// the window. A clean loss joins the window.
    pub(crate) fn check_step(&mut self, step: usize, loss: f32) -> Result<(), GuardReason> {
        check_loss(step, loss)?;
        if self.window.len() >= self.policy.spike_warmup {
            let (mean, sigma) = mean_sigma(&self.window);
            // σ floors at a fraction of the mean so a near-constant
            // loss window doesn't turn noise into spikes.
            let sigma = sigma.max(0.05 * mean.abs()).max(1e-6);
            if loss > mean + self.policy.spike_sigmas * sigma {
                return Err(GuardReason::LossSpike {
                    step,
                    loss,
                    mean,
                    sigma,
                });
            }
        }
        if self.window.len() == self.policy.spike_window.max(2) {
            self.window.pop_front();
        }
        self.window.push_back(loss);
        Ok(())
    }

    /// Check `epoch`'s dev metrics for rationale collapse.
    pub(crate) fn check_dev(
        &self,
        epoch: usize,
        dev: &RationaleMetrics,
    ) -> Result<(), GuardReason> {
        let selected = dev.sparsity;
        if !self.policy.is_collapsed(selected) {
            return Ok(());
        }
        Err(GuardReason::RationaleCollapse { epoch, selected })
    }

    /// Move the restore point to the clean epoch boundary `point`. It
    /// carries any learning-rate decay already, so the retry budget starts
    /// over.
    pub(crate) fn mark_clean(&mut self, point: RestorePoint<RunState>) {
        self.point = point;
        self.retries = 0;
    }

    /// Log the trip of `reason` in `epoch`, then roll back to the restore
    /// point with a decayed learning rate and return its run state — or
    /// fail once the retry budget is spent.
    pub(crate) fn roll_back(
        &mut self,
        model: &mut dyn RationaleModel,
        rng: &mut Rng,
        epoch: usize,
        reason: GuardReason,
        events: &mut Vec<TrainEvent>,
        verbose: bool,
    ) -> DarResult<RunState> {
        dar_obs::event(dar_obs::ObsEvent::GuardTripped {
            epoch: epoch as u64,
            reason: reason.to_string(),
        });
        dar_obs::inc("guard.trips");
        if self.retries >= self.policy.max_retries {
            let (retries, last) = (self.retries, reason.to_string());
            let epoch = epoch as u64;
            dar_obs::event(dar_obs::ObsEvent::RetriesExhausted { epoch });
            return Err(DarError::RetriesExhausted { retries, last });
        }
        events.push(TrainEvent::GuardTripped { epoch, reason });
        self.retries += 1;
        // Decaying the LR carried inside the restored optimizer states,
        // once per retry since the clean epoch, makes the retried epoch
        // take smaller steps than the diverged one.
        let lr_scale = (0..self.retries).fold(1.0, |s, _| s * self.policy.lr_decay);
        let state = self.point.restore(model, rng, lr_scale)?;
        // The window is poisoned by the diverged trajectory.
        self.window.clear();
        let (to_epoch, retry) = (state.next_epoch, self.retries);
        events.push(TrainEvent::RolledBack {
            to_epoch,
            retry,
            lr_scale,
        });
        dar_obs::event(dar_obs::ObsEvent::RolledBack {
            to_epoch: to_epoch as u64,
            retry: retry as u64,
            lr_scale,
        });
        dar_obs::inc("guard.rollbacks");
        if verbose {
            let name = model.name();
            println!(
                "[{name}|guarded] rollback to epoch {to_epoch} (retry {retry}, lr×{lr_scale:.3})"
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
    use crate::trainer::RunState;
    use crate::Trainer;

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
        let plain = Trainer::new(tcfg).fit(&mut model, &data, &mut rng);

        let mut rng = dar_tensor::rng(162);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let guarded = Trainer::guarded(tcfg, open_policy())
            .try_fit(&mut model, &data, &mut rng)
            .unwrap();

        assert_eq!(
            guarded.rollbacks(),
            0,
            "unexpected guard trips: {:?}",
            guarded.events
        );
        assert_eq!(guarded.test.f1, plain.test.f1);
        assert_eq!(guarded.test.acc, plain.test.acc);
        assert_eq!(guarded.epochs_run, 3);
        assert!(guarded.events.is_empty() && plain.events.is_empty());
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
        let mut rng = dar_tensor::rng(162);
        let mut model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let guarded = Trainer::guarded(tcfg, GuardPolicy::default())
            .try_fit(&mut model, &data, &mut rng)
            .unwrap();
        assert!(
            guarded.rollbacks() >= 1,
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
        assert_eq!(guarded.epochs_run, 3, "run must still complete");
        assert!(guarded.test.f1.is_finite());
    }

    /// The spike guard arms once its window holds `spike_warmup` losses,
    /// keeps only the last `spike_window` of them, and trips on a loss
    /// far outside them.
    #[test]
    fn spike_guard_arms_after_warmup_and_forgets_old_losses() {
        let data = tiny_dataset(170);
        let emb = tiny_embedding(&data, 171);
        let mut rng = dar_tensor::rng(172);
        let model = Rnp::new(&tiny_config(), &emb, max_len(&data), &mut rng);
        let policy = GuardPolicy {
            spike_window: 3,
            spike_warmup: 3,
            ..GuardPolicy::default()
        };
        let point = RestorePoint::take(&model, &rng, RunState::new(&model));
        let mut guard = Guard::arm(policy, point);
        // Before the warm-up even an outlier is just another loss.
        for (step, loss) in [100.0, 1.0, 1.0, 1.0].into_iter().enumerate() {
            assert_eq!(guard.check_step(step, loss), Ok(()), "step {step}");
        }
        // The window has forgotten the 100, so 2.0 is far outside it.
        assert!(matches!(
            guard.check_step(4, 2.0),
            Err(GuardReason::LossSpike { step: 4, .. })
        ));
        assert!(matches!(
            guard.check_step(5, f32::NAN),
            Err(GuardReason::NonFiniteLoss { step: 5, .. })
        ));
        let (mean, sigma) = mean_sigma(&VecDeque::from([1.0, 1.0, 1.0, 5.0]));
        assert!((mean - 2.0).abs() < 1e-6);
        assert!(sigma > 1.0);
    }
}
