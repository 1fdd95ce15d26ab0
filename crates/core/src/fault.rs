//! Deterministic fault injection for exercising the fault-tolerant
//! training runtime.
//!
//! A [`FaultPlan`] schedules one-shot faults — a non-finite loss at a given
//! train step, NaN weights at a given step — and a [`FaultyModel`] wrapper
//! fires them around an inner [`RationaleModel`] without the model knowing.
//! File-corruption helpers ([`corrupt_truncate`], [`corrupt_bitflip`])
//! damage checkpoint files the way crashed writers and bad disks do, seeded
//! so every failure a test provokes is reproducible. [`malformed_review`]
//! fabricates the out-of-vocabulary input that
//! [`dar_data::Batch::from_reviews_checked`] must reject.

use std::path::Path;

use dar_data::Review;
use dar_tensor::optim::AdamState;
use dar_tensor::{DarError, DarResult, Rng, Tensor};
use rand::Rng as _;

use crate::models::{Inference, RationaleModel};

// The storage-level fault substrate lives in `dar-store` (seeded short
// writes, torn tails, bit flips, ENOSPC, failed renames, and the
// abort-at-Nth-write crash valve); re-exported here so fault-injection
// users have one front door.
pub use dar_store::{FaultyStorage, RealStorage, Storage, StorageFaultPlan};

/// One-shot fault schedule, counted in train steps of the wrapped model.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Return a NaN loss from this (0-based) train step.
    pub nan_loss_at_step: Option<usize>,
    /// Poison the first parameter tensor with NaNs after this step —
    /// simulates a numerically diverged update reaching the weights.
    pub nan_weights_at_step: Option<usize>,
    /// Add this to every loss (drives the spike guard without breaking
    /// finiteness) at the scheduled step.
    pub loss_spike_at_step: Option<(usize, f32)>,
    /// Return NaN losses from this step *onward* — a persistent fault no
    /// amount of rollback can outrun (exhausts the retry budget).
    pub nan_loss_from_step: Option<usize>,
    /// Produce the NaN loss at this step through a *real* tensor op
    /// (`0/0` via [`Tensor::div`]) instead of overwriting the float, so
    /// taint tracking can attribute the fault to its originating op.
    pub taint_nan_at_step: Option<usize>,
}

impl FaultPlan {
    /// No faults; the wrapper is transparent.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn nan_loss_at(step: usize) -> Self {
        FaultPlan {
            nan_loss_at_step: Some(step),
            ..Default::default()
        }
    }

    pub fn nan_weights_at(step: usize) -> Self {
        FaultPlan {
            nan_weights_at_step: Some(step),
            ..Default::default()
        }
    }

    pub fn loss_spike_at(step: usize, magnitude: f32) -> Self {
        FaultPlan {
            loss_spike_at_step: Some((step, magnitude)),
            ..Default::default()
        }
    }

    pub fn nan_loss_from(step: usize) -> Self {
        FaultPlan {
            nan_loss_from_step: Some(step),
            ..Default::default()
        }
    }

    pub fn taint_nan_at(step: usize) -> Self {
        FaultPlan {
            taint_nan_at_step: Some(step),
            ..Default::default()
        }
    }
}

/// Wraps a model and fires the [`FaultPlan`] during training. Inference,
/// parameters, snapshots, and optimizer state pass straight through, so
/// the wrapper composes with checkpointing and the guards.
pub struct FaultyModel<M: RationaleModel> {
    inner: M,
    plan: FaultPlan,
    step: usize,
    /// Train steps observed (for assertions in tests).
    pub steps_taken: usize,
}

impl<M: RationaleModel> FaultyModel<M> {
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        FaultyModel {
            inner,
            plan,
            step: 0,
            steps_taken: 0,
        }
    }

    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Apply the plan's faults for `step` to a finished step's loss.
    fn inject(&mut self, step: usize, mut loss: f32) -> f32 {
        if self.plan.nan_loss_at_step == Some(step) {
            loss = f32::NAN;
        }
        if self.plan.nan_weights_at_step == Some(step) {
            if let Some(p) = self.inner.params().first() {
                p.set_values(vec![f32::NAN; p.len()]);
            }
        }
        if let Some((s, magnitude)) = self.plan.loss_spike_at_step {
            if s == step {
                loss += magnitude;
            }
        }
        if self.plan.nan_loss_from_step.is_some_and(|s| step >= s) {
            loss = f32::NAN;
        }
        if self.plan.taint_nan_at_step == Some(step) {
            // 0/0 through the graph: the resulting NaN is scanned by the
            // taint layer and latched with op name "div".
            let zero = Tensor::new(vec![0.0], &[1]);
            loss = zero.div(&zero).item();
        }
        loss
    }
}

impl<M: RationaleModel> RationaleModel for FaultyModel<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> Vec<Tensor> {
        self.inner.params()
    }

    fn train_step(&mut self, batch: &dar_data::Batch, rng: &mut Rng) -> f32 {
        let step = self.step;
        self.step += 1;
        self.steps_taken += 1;
        let loss = self.inner.train_step(batch, rng);
        self.inject(step, loss)
    }

    fn answer(&self, batch: &dar_data::Batch) -> Inference {
        self.inner.answer(batch)
    }

    fn full_text_probe(&self, batch: &dar_data::Batch) -> Option<Tensor> {
        self.inner.full_text_probe(batch)
    }

    fn predict_full_text(&self, batch: &dar_data::Batch) -> Option<Tensor> {
        self.inner.predict_full_text(batch)
    }

    fn player_modules(&self) -> (usize, usize) {
        self.inner.player_modules()
    }

    fn optim_states(&self) -> Vec<AdamState> {
        self.inner.optim_states()
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        self.inner.restore_optim(states)
    }
}

/// Serving-side chaos schedule: trigger **token ids** that fire faults
/// inside [`RationaleModel::answer`] — the served path, and so also
/// [`RationaleModel::infer`] — only. The full-text path
/// (`predict_full_text`) stays clean, modelling a failure localized to
/// the generator — exactly the situation the serving breaker's
/// predictor-only degraded mode exists for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosPlan {
    /// A batch containing this token panics mid-`answer`.
    pub panic_token: Option<usize>,
    /// A batch containing this token returns an all-zero rationale
    /// (collapse) from `answer`.
    pub collapse_token: Option<usize>,
    /// A batch containing this token sleeps this many milliseconds
    /// before `answer` returns.
    pub slow_token: Option<(usize, u64)>,
    /// A batch containing this token panics inside `predict_full_text`
    /// too — the fault that drives a breaker past predictor-only
    /// degradation into a full shed.
    pub full_panic_token: Option<usize>,
    /// A batch containing this token gets its `answer` logits poisoned
    /// with NaN through a real `0/0` div op, so the serving taint layer
    /// can attribute the failure to `div`.
    pub nan_logit_token: Option<usize>,
    /// Stall faults: the worker wedges inside `answer` without panicking
    /// — the failure class the serving watchdog (DESIGN.md §16) exists
    /// for, invisible to panic-based supervision.
    pub stall: StallPlan,
}

/// Wedge schedule for [`ChaosModel`]: trigger tokens that make `answer`
/// hang. `sleep` models a worker blocked on I/O or a lock (scheduled but
/// silent); `spin` models a livelock burning its core. `sticky = false`
/// arms the plan once — the first triggered batch stalls, later ones run
/// clean (a transient wedge the replica recovers from); `sticky = true`
/// stalls every triggered batch (a permanently wedged replica that can
/// only be quarantined).
#[derive(Debug, Clone, Copy, Default)]
pub struct StallPlan {
    /// `(token, millis)`: a triggered batch sleeps this long in `answer`.
    pub sleep_token: Option<(usize, u64)>,
    /// `(token, millis)`: a triggered batch busy-spins this long.
    pub spin_token: Option<(usize, u64)>,
    /// Every triggered batch stalls, not just the first.
    pub sticky: bool,
}

impl StallPlan {
    pub fn is_armed(&self) -> bool {
        self.sleep_token.is_some() || self.spin_token.is_some()
    }
}

impl ChaosPlan {
    fn batch_has(batch: &dar_data::Batch, token: usize) -> bool {
        batch.ids.iter().flatten().any(|&t| t == token)
    }
}

/// Wraps a model and fires the [`ChaosPlan`] in its served answer.
/// Training, parameters, snapshots, optimizer state, the alignment probe
/// and (bar `full_panic_token`) the full-text prediction path pass
/// straight through.
pub struct ChaosModel<M: RationaleModel> {
    inner: M,
    plan: ChaosPlan,
    /// One-shot latch for a non-sticky [`StallPlan`]: set by the first
    /// triggered batch so later batches run clean. Atomic because
    /// `answer` takes `&self`.
    stall_fired: std::sync::atomic::AtomicBool,
}

impl<M: RationaleModel> ChaosModel<M> {
    pub fn new(inner: M, plan: ChaosPlan) -> Self {
        ChaosModel {
            inner,
            plan,
            stall_fired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Should a triggered batch stall right now? Consumes the one-shot
    /// arming for non-sticky plans.
    fn stall_due(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.plan.stall.sticky || !self.stall_fired.swap(true, Ordering::SeqCst)
    }
}

impl<M: RationaleModel> RationaleModel for ChaosModel<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn params(&self) -> Vec<Tensor> {
        self.inner.params()
    }

    fn train_step(&mut self, batch: &dar_data::Batch, rng: &mut Rng) -> f32 {
        self.inner.train_step(batch, rng)
    }

    fn answer(&self, batch: &dar_data::Batch) -> Inference {
        if let Some(t) = self.plan.panic_token {
            if ChaosPlan::batch_has(batch, t) {
                panic!("chaos: panic token {t} reached answer");
            }
        }
        if let Some((t, ms)) = self.plan.slow_token {
            if ChaosPlan::batch_has(batch, t) {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        if let Some((t, ms)) = self.plan.stall.sleep_token {
            if ChaosPlan::batch_has(batch, t) && self.stall_due() {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        if let Some((t, ms)) = self.plan.stall.spin_token {
            if ChaosPlan::batch_has(batch, t) && self.stall_due() {
                let until = std::time::Instant::now() + std::time::Duration::from_millis(ms);
                while std::time::Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        let mut inf = self.inner.answer(batch);
        if let Some(t) = self.plan.collapse_token {
            if ChaosPlan::batch_has(batch, t) {
                for row in &mut inf.masks {
                    row.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
        if let Some(t) = self.plan.nan_logit_token {
            if ChaosPlan::batch_has(batch, t) {
                if let Some(logits) = inf.logits.take() {
                    // NaN through the graph (0/0 broadcast-added) so taint
                    // tracking sees a real `div` op produce it.
                    let zero = Tensor::new(vec![0.0], &[1, 1]);
                    inf.logits = Some(logits.add(&zero.div(&zero)));
                }
            }
        }
        inf
    }

    fn full_text_probe(&self, batch: &dar_data::Batch) -> Option<Tensor> {
        self.inner.full_text_probe(batch)
    }

    fn predict_full_text(&self, batch: &dar_data::Batch) -> Option<Tensor> {
        if let Some(t) = self.plan.full_panic_token {
            if ChaosPlan::batch_has(batch, t) {
                panic!("chaos: full-panic token {t} reached predict_full_text");
            }
        }
        self.inner.predict_full_text(batch)
    }

    fn player_modules(&self) -> (usize, usize) {
        self.inner.player_modules()
    }

    fn optim_states(&self) -> Vec<AdamState> {
        self.inner.optim_states()
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        self.inner.restore_optim(states)
    }
}

/// Truncate a checkpoint file to a seeded random strict prefix — what a
/// crash mid-write (without the atomic rename) leaves behind.
pub fn corrupt_truncate(path: impl AsRef<Path>, seed: u64) -> DarResult<u64> {
    let path = path.as_ref();
    let len = std::fs::metadata(path)?.len();
    if len == 0 {
        return Err(DarError::InvalidData(
            "cannot truncate an empty file".to_owned(),
        ));
    }
    let mut rng = dar_tensor::rng(seed);
    let keep = rng.gen_range(0..len);
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    Ok(keep)
}

/// Append seeded garbage bytes (a torn half-frame) to a file — what a
/// crash mid-append leaves at the tail of a write-ahead log. Returns how
/// many bytes were appended. WAL replay must absorb exactly this damage
/// by truncating at the first bad frame.
pub fn corrupt_torn_tail(path: impl AsRef<Path>, seed: u64) -> DarResult<u64> {
    let mut rng = dar_tensor::rng(seed);
    let n = rng.gen_range(1usize..24);
    let garbage: Vec<u8> = (0..n).map(|_| rng.gen_range(0u32..256) as u8).collect();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path.as_ref())?;
    f.write_all(&garbage)?;
    f.sync_all()?;
    Ok(n as u64)
}

/// Flip one seeded random bit in the file — a disk/transfer error. Returns
/// the (byte, bit) flipped.
pub fn corrupt_bitflip(path: impl AsRef<Path>, seed: u64) -> DarResult<(usize, u8)> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(DarError::InvalidData(
            "cannot bit-flip an empty file".to_owned(),
        ));
    }
    let mut rng = dar_tensor::rng(seed);
    let byte = rng.gen_range(0..bytes.len());
    let bit = rng.gen_range(0u8..8);
    bytes[byte] ^= 1 << bit;
    std::fs::write(path, &bytes)?;
    Ok((byte, bit))
}

/// A review whose ids stray outside the vocabulary — the malformed batch
/// the checked loader must reject.
pub fn malformed_review(vocab_size: usize, seed: u64) -> Review {
    let mut rng = dar_tensor::rng(seed);
    let len = rng.gen_range(3usize..12);
    let mut ids: Vec<usize> = (0..len)
        .map(|_| rng.gen_range(0..vocab_size.max(1)))
        .collect();
    let bad = rng.gen_range(0..len);
    ids[bad] = vocab_size + rng.gen_range(1usize..1000);
    Review {
        rationale: vec![false; ids.len()],
        label: rng.gen_range(0usize..2),
        first_sentence_end: 1,
        ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_data::Batch;
    use dar_tensor::serial;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_fault_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn truncated_checkpoint_never_loads() {
        let path = tmpfile("trunc");
        serial::save_path(&path, &[Tensor::param(vec![1.0; 32], &[32])]).unwrap();
        for seed in 0..20 {
            serial::save_path(&path, &[Tensor::param(vec![1.0; 32], &[32])]).unwrap();
            corrupt_truncate(&path, seed).unwrap();
            assert!(
                serial::load_checkpoint_path(&path).is_err(),
                "truncation with seed {seed} loaded"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bitflipped_checkpoint_never_loads() {
        let path = tmpfile("flip");
        for seed in 0..20 {
            serial::save_path(&path, &[Tensor::param(vec![0.25; 16], &[4, 4])]).unwrap();
            let (byte, bit) = corrupt_bitflip(&path, seed).unwrap();
            assert!(
                serial::load_checkpoint_path(&path).is_err(),
                "flip of byte {byte} bit {bit} (seed {seed}) loaded"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corruption_is_seeded_and_reproducible() {
        let a = tmpfile("repro_a");
        let b = tmpfile("repro_b");
        for p in [&a, &b] {
            serial::save_path(p, &[Tensor::param(vec![1.5; 64], &[64])]).unwrap();
        }
        assert_eq!(
            corrupt_bitflip(&a, 7).unwrap(),
            corrupt_bitflip(&b, 7).unwrap()
        );
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn chaos_collapse_fires_on_infer_and_spares_full_text() {
        use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
        use crate::models::Rnp;
        use crate::pretrain::max_len;
        use dar_data::BatchIter;

        let data = tiny_dataset(300);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 301);
        let mut rng = dar_tensor::rng(302);
        let model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 4).next().unwrap();
        let trigger = batch.ids[0][0];
        let absent = batch.ids.iter().flatten().max().unwrap() + 1;
        let baseline = model.infer(&batch).masks;

        let chaos = ChaosModel::new(
            model,
            ChaosPlan {
                collapse_token: Some(trigger),
                ..Default::default()
            },
        );
        let inf = chaos.infer(&batch);
        assert!(
            inf.masks.iter().flatten().all(|&v| v == 0.0),
            "collapse trigger left a selected token"
        );
        let full = chaos.predict_full_text(&batch).expect("full-text path");
        assert!(full.to_vec().iter().all(|v| v.is_finite()));

        // A batch without the trigger token passes through untouched.
        let clean = ChaosModel::new(
            chaos.into_inner(),
            ChaosPlan {
                collapse_token: Some(absent),
                slow_token: Some((absent, 50)),
                ..Default::default()
            },
        );
        assert_eq!(clean.infer(&batch).masks, baseline);
    }

    #[test]
    fn chaos_panic_token_kills_infer_only() {
        use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
        use crate::models::Rnp;
        use crate::pretrain::max_len;
        use dar_data::BatchIter;

        let data = tiny_dataset(310);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 311);
        let mut rng = dar_tensor::rng(312);
        let model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 2).next().unwrap();
        let trigger = batch.ids[0][0];
        let chaos = ChaosModel::new(
            model,
            ChaosPlan {
                panic_token: Some(trigger),
                ..Default::default()
            },
        );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let crashed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.infer(&batch))).is_err();
        std::panic::set_hook(hook);
        assert!(crashed, "panic token did not fire");
        // The generator path is dead; the full-text path still answers.
        assert!(chaos.predict_full_text(&batch).is_some());
    }

    #[test]
    fn stall_plan_one_shot_arms_once_and_sticky_repeats() {
        use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
        use crate::models::Rnp;
        use crate::pretrain::max_len;
        use dar_data::BatchIter;

        let data = tiny_dataset(320);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 321);
        let mut rng = dar_tensor::rng(322);
        let model = Rnp::new(&cfg, &emb, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 2).next().unwrap();
        let trigger = batch.ids[0][0];

        let timed = |m: &dyn RationaleModel, b: &Batch| {
            let start = std::time::Instant::now();
            m.infer(b);
            start.elapsed()
        };

        let one_shot = ChaosModel::new(
            model,
            ChaosPlan {
                stall: StallPlan {
                    sleep_token: Some((trigger, 60)),
                    sticky: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let first = timed(&one_shot, &batch);
        let second = timed(&one_shot, &batch);
        assert!(first.as_millis() >= 60, "first triggered batch must stall");
        assert!(
            second < first,
            "one-shot plan must disarm after firing ({second:?} !< {first:?})"
        );

        let sticky = ChaosModel::new(
            one_shot.into_inner(),
            ChaosPlan {
                stall: StallPlan {
                    spin_token: Some((trigger, 30)),
                    sticky: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(timed(&sticky, &batch).as_millis() >= 30);
        assert!(
            timed(&sticky, &batch).as_millis() >= 30,
            "sticky plan must stall every triggered batch"
        );
    }

    #[test]
    fn malformed_review_is_rejected_by_checked_loader() {
        for seed in 0..10 {
            let bad = malformed_review(50, seed);
            match Batch::from_reviews_checked(&[&bad], 50) {
                Err(DarError::TokenOutOfRange { .. }) => {}
                Err(other) => panic!("seed {seed}: wrong error {other:?}"),
                Ok(_) => panic!("seed {seed}: malformed review accepted"),
            }
        }
    }
}
