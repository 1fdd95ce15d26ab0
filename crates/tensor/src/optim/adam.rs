//! Adam (Kingma & Ba, 2015) — the optimizer used for every player in the
//! paper.

use std::collections::HashMap;

use super::Optimizer;
use crate::error::{DarError, DarResult};
use crate::serial::codec;
use crate::Tensor;

/// Hyper-parameters for [`Adam`].
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled L2 weight decay (0 disables).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

struct Slot {
    m: Vec<f32>,
    v: Vec<f32>,
}

/// Adam optimizer with per-parameter first/second-moment state.
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    state: HashMap<u64, Slot>,
}

impl Adam {
    pub fn new(cfg: AdamConfig) -> Self {
        Adam {
            cfg,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Adam with default moments and the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(AdamConfig {
            lr,
            ..Default::default()
        })
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Capture optimizer state for checkpointing, ordered by `params`.
    ///
    /// Tensor ids are process-local, so durable state is keyed by the
    /// *position* of each parameter in the caller's canonical list; a
    /// parameter that has never been stepped exports an empty slot.
    pub fn export_state(&self, params: &[Tensor]) -> AdamState {
        AdamState {
            t: self.t,
            lr: self.cfg.lr,
            slots: params
                .iter()
                .map(|p| {
                    self.state
                        .get(&p.id())
                        .map(|s| (s.m.clone(), s.v.clone()))
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    /// Restore state captured by [`Self::export_state`] against the same
    /// canonical parameter list (same order, same shapes).
    pub fn import_state(&mut self, params: &[Tensor], state: &AdamState) -> DarResult<()> {
        if state.slots.len() != params.len() {
            return Err(DarError::InvalidData(format!(
                "optimizer state has {} slots, model has {} parameters",
                state.slots.len(),
                params.len()
            )));
        }
        for (p, (m, v)) in params.iter().zip(&state.slots) {
            if !m.is_empty() && (m.len() != p.len() || v.len() != p.len()) {
                return Err(DarError::InvalidData(format!(
                    "optimizer slot of {} elements for a parameter of {}",
                    m.len(),
                    p.len()
                )));
            }
        }
        self.t = state.t;
        self.cfg.lr = state.lr;
        self.state.clear();
        for (p, (m, v)) in params.iter().zip(&state.slots) {
            if !m.is_empty() {
                self.state.insert(
                    p.id(),
                    Slot {
                        m: m.clone(),
                        v: v.clone(),
                    },
                );
            }
        }
        Ok(())
    }
}

/// Durable snapshot of an [`Adam`] instance (see [`Adam::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// Learning rate in effect (guards may have decayed it mid-run).
    pub lr: f32,
    /// Per-parameter first/second moments; empty = never stepped.
    pub slots: Vec<(Vec<f32>, Vec<f32>)>,
}

impl AdamState {
    /// Append the little-endian encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.t);
        codec::put_f32(out, self.lr);
        codec::put_u32(out, self.slots.len() as u32);
        for (m, v) in &self.slots {
            codec::put_f32s(out, m);
            codec::put_f32s(out, v);
        }
    }

    /// Decode an encoding produced by [`Self::encode`].
    pub fn decode(c: &mut codec::Cursor<'_>) -> DarResult<Self> {
        let t = c.u64()?;
        let lr = c.f32()?;
        let n = c.u32()? as usize;
        if n > crate::serial::MAX_TENSORS {
            return Err(DarError::InvalidData(format!(
                "optimizer state claims {n} slots"
            )));
        }
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let m = c.f32s()?;
            let v = c.f32s()?;
            if m.len() != v.len() {
                return Err(DarError::InvalidData(
                    "optimizer moment vectors disagree in length".to_owned(),
                ));
            }
            slots.push((m, v));
        }
        Ok(AdamState { t, lr, slots })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Tensor]) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        for p in params {
            let Some(g) = p.grad_vec() else { continue };
            let slot = self.state.entry(p.id()).or_insert_with(|| Slot {
                m: vec![0.0; g.len()],
                v: vec![0.0; g.len()],
            });
            let cfg = self.cfg;
            p.update_values(|w| {
                for i in 0..g.len() {
                    let mut gi = g[i];
                    if cfg.weight_decay > 0.0 {
                        // Decoupled decay (AdamW-style).
                        w[i] -= cfg.lr * cfg.weight_decay * w[i];
                    }
                    if !gi.is_finite() {
                        gi = 0.0;
                    }
                    slot.m[i] = cfg.beta1 * slot.m[i] + (1.0 - cfg.beta1) * gi;
                    slot.v[i] = cfg.beta2 * slot.v[i] + (1.0 - cfg.beta2) * gi * gi;
                    let mhat = slot.m[i] / bc1;
                    let vhat = slot.v[i] / bc2;
                    w[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
                }
            });
        }
    }

    fn lr(&self) -> f32 {
        self.cfg.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::zero_grads;
    use crate::Tensor;

    /// Adam must minimize a simple convex quadratic.
    #[test]
    fn minimizes_quadratic() {
        let p = Tensor::param(vec![5.0, -3.0], &[2]);
        let mut opt = Adam::with_lr(0.1);
        for _ in 0..300 {
            let loss = p.square().sum();
            zero_grads(std::slice::from_ref(&p));
            loss.backward();
            opt.step(std::slice::from_ref(&p));
        }
        let v = p.to_vec();
        assert!(v.iter().all(|x| x.abs() < 1e-2), "did not converge: {v:?}");
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, |Δw| of step 1 is exactly lr (for g != 0).
        let p = Tensor::param(vec![1.0], &[1]);
        let mut opt = Adam::with_lr(0.5);
        p.accumulate_grad(&[0.123]);
        opt.step(std::slice::from_ref(&p));
        assert!((p.item() - (1.0 - 0.5)).abs() < 1e-3, "got {}", p.item());
    }

    #[test]
    fn skips_params_without_grad() {
        let p = Tensor::param(vec![1.0], &[1]);
        let mut opt = Adam::with_lr(0.5);
        opt.step(std::slice::from_ref(&p));
        assert_eq!(p.item(), 1.0);
    }

    #[test]
    fn nonfinite_grads_are_ignored() {
        let p = Tensor::param(vec![1.0], &[1]);
        let mut opt = Adam::with_lr(0.5);
        p.accumulate_grad(&[f32::NAN]);
        opt.step(std::slice::from_ref(&p));
        assert!(p.item().is_finite());
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        // Two optimizers, same trajectory; export/import mid-run must make
        // their subsequent updates bit-identical.
        let run = |resume_at: Option<usize>| {
            let p = Tensor::param(vec![5.0, -3.0], &[2]);
            let mut opt = Adam::with_lr(0.1);
            for step in 0..20 {
                if resume_at == Some(step) {
                    let state = opt.export_state(std::slice::from_ref(&p));
                    let mut buf = Vec::new();
                    state.encode(&mut buf);
                    let decoded =
                        AdamState::decode(&mut crate::serial::codec::Cursor::new(&buf)).unwrap();
                    assert_eq!(decoded, state);
                    let mut fresh = Adam::with_lr(999.0); // lr comes from the state
                    fresh
                        .import_state(std::slice::from_ref(&p), &decoded)
                        .unwrap();
                    opt = fresh;
                }
                let loss = p.square().sum();
                zero_grads(std::slice::from_ref(&p));
                loss.backward();
                opt.step(std::slice::from_ref(&p));
            }
            p.to_vec()
        };
        assert_eq!(run(None), run(Some(10)));
    }

    #[test]
    fn import_rejects_mismatched_state() {
        let p = Tensor::param(vec![1.0, 2.0], &[2]);
        let mut opt = Adam::with_lr(0.1);
        let bad = AdamState {
            t: 1,
            lr: 0.1,
            slots: vec![],
        };
        assert!(opt.import_state(std::slice::from_ref(&p), &bad).is_err());
        let bad = AdamState {
            t: 1,
            lr: 0.1,
            slots: vec![(vec![0.0; 3], vec![0.0; 3])],
        };
        assert!(opt.import_state(&[p], &bad).is_err());
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let p = Tensor::param(vec![10.0], &[1]);
        let mut opt = Adam::new(AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        });
        p.accumulate_grad(&[0.0]);
        opt.step(std::slice::from_ref(&p));
        assert!(p.item() < 10.0);
    }
}
