//! Atomic hot checkpoint swap, with a canary slot for the online loop.
//!
//! Workers never read weight files. A background loader validates a
//! checkpoint **off the hot path** — CRC-32 footer via
//! [`dar_tensor::serial::load_checkpoint_path`], then tensor count and
//! per-tensor shapes against the serving model — and only a fully
//! validated set is published, by swapping one `Arc` pointer under a
//! mutex. Workers pick the new version up **between batches**: a batch
//! that started on version `n` finishes on version `n`, so a request
//! never sees torn weights, and a corrupted or mismatched offer leaves
//! the runtime serving the old version untouched.
//!
//! The store holds **two** slots. `current` is what every request is
//! served from by default. `canary` holds a candidate generation that is
//! only reachable through canary-routed batches (DESIGN.md §13); it
//! becomes `current` atomically on [`promote_canary`] or vanishes on
//! [`clear_canary`] — the incumbent pointer is untouched either way, so
//! a rollback is the *absence* of a swap, never a second swap.
//!
//! Every rejected offer is journaled as a typed
//! [`ObsEvent::OfferRejected`] with a stable snake_case cause
//! (`crc_mismatch`, `shape_mismatch`, `tensor_count_mismatch`, `io`), so
//! a silent `Err` return can no longer hide a corrupted producer.
//!
//! [`promote_canary`]: WeightStore::promote_canary
//! [`clear_canary`]: WeightStore::clear_canary
//! [`ObsEvent::OfferRejected`]: dar_obs::ObsEvent::OfferRejected

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dar_tensor::{serial, DarError, DarResult, Tensor};

/// One immutable, validated generation of model weights.
#[derive(Debug)]
pub struct WeightSet {
    /// Monotonic generation number (starts at 1).
    pub version: u64,
    /// Flat values, in the model's `params()` order.
    pub values: Vec<Vec<f32>>,
    /// Shapes, parallel to `values`.
    pub shapes: Vec<Vec<usize>>,
}

impl WeightSet {
    /// Snapshot live parameters (the initial serving weights).
    pub fn from_params(params: &[Tensor], version: u64) -> Self {
        WeightSet {
            version,
            values: params.iter().map(|p| p.to_vec()).collect(),
            shapes: params.iter().map(|p| p.shape().to_vec()).collect(),
        }
    }

    /// Copy this generation into live parameters (a worker replica).
    /// All or nothing: every shape is checked before any tensor is
    /// written, so a failed apply leaves the replica on its old weights.
    pub fn apply(&self, params: &[Tensor]) -> DarResult<()> {
        if params.len() != self.values.len() {
            return Err(DarError::InvalidData(format!(
                "weight set v{} has {} tensors, model has {}",
                self.version,
                self.values.len(),
                params.len()
            )));
        }
        for (i, (p, s)) in params.iter().zip(&self.shapes).enumerate() {
            if p.shape() != s.as_slice() {
                return Err(DarError::InvalidData(format!(
                    "weight set v{} tensor {i} is {s:?}, model wants {:?}",
                    self.version,
                    p.shape()
                )));
            }
        }
        for (p, v) in params.iter().zip(&self.values) {
            p.set_values(v.clone());
        }
        Ok(())
    }
}

struct StoreInner {
    current: Arc<WeightSet>,
    canary: Option<Arc<WeightSet>>,
    /// Version the *next* accepted offer gets — monotonic across both
    /// slots, so a rolled-back candidate's number is never reused.
    next_version: u64,
}

/// The published weight generations plus swap bookkeeping.
///
/// The store holds exactly **one** copy of each generation's values —
/// replicas share it through `Arc`, never clone the floats. A lock-free
/// `published` version hint lets every replica's between-batch sync be
/// one relaxed atomic load in the steady state (see
/// [`refresh`](Self::refresh)), so publication cost is O(1) in the
/// replica count: `offer_checkpoint` / `promote_canary` swap one `Arc`
/// pointer and bump one atomic, and all N replicas observe the new
/// generation on their next batch boundary.
pub struct WeightStore {
    inner: Mutex<StoreInner>,
    /// Version of `current`, readable without the lock. Written only
    /// while holding `inner`, so it can never run ahead of the slot.
    published: AtomicU64,
}

impl WeightStore {
    /// Seed the store with the weights the factory model was built with.
    pub fn new(initial: WeightSet) -> Self {
        let next_version = initial.version + 1;
        WeightStore {
            published: AtomicU64::new(initial.version),
            inner: Mutex::new(StoreInner {
                current: Arc::new(initial),
                canary: None,
                next_version,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap()
    }

    /// The newest validated incumbent generation (cheap: one lock, one
    /// Arc clone).
    pub fn current(&self) -> Arc<WeightSet> {
        Arc::clone(&self.lock().current)
    }

    /// The candidate generation under canary evaluation, if any.
    pub fn canary(&self) -> Option<Arc<WeightSet>> {
        self.lock().canary.as_ref().map(Arc::clone)
    }

    pub fn version(&self) -> u64 {
        self.lock().current.version
    }

    /// The published incumbent version, without taking the lock — the
    /// replica hot-path check.
    pub fn version_hint(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Between-batch sync for a replica already holding version `have`:
    /// `None` when `have` is still the published incumbent (the steady
    /// state — one atomic load, no lock, no `Arc` clone), otherwise the
    /// incumbent set to apply. Equality, not ordering: a replica coming
    /// off a canary batch holds a *newer* version than the incumbent
    /// and must still be steered back.
    pub fn refresh(&self, have: u64) -> Option<Arc<WeightSet>> {
        if self.version_hint() == have {
            None
        } else {
            Some(self.current())
        }
    }

    /// Validate a checkpoint file against the currently-published set:
    /// CRC-verified load, tensor count, every shape. On failure the typed
    /// rejection is journaled and classified; no slot changes.
    fn validate(&self, path: impl AsRef<std::path::Path>) -> DarResult<WeightSet> {
        let verdict = self.validate_inner(path);
        if let Err(e) = &verdict {
            dar_obs::event(dar_obs::ObsEvent::OfferRejected {
                cause: rejection_cause(e).to_owned(),
                detail: e.to_string(),
            });
            dar_obs::inc("serve.offers_rejected");
        }
        verdict
    }

    fn validate_inner(&self, path: impl AsRef<std::path::Path>) -> DarResult<WeightSet> {
        let loaded = serial::load_checkpoint_path(path)?;
        let cur = self.current();
        if loaded.tensors.len() != cur.values.len() {
            return Err(DarError::InvalidData(format!(
                "offered checkpoint has {} tensors, serving model has {}",
                loaded.tensors.len(),
                cur.values.len()
            )));
        }
        for (i, (t, s)) in loaded.tensors.iter().zip(&cur.shapes).enumerate() {
            if t.shape() != s.as_slice() {
                return Err(DarError::InvalidData(format!(
                    "offered checkpoint tensor {i} is {:?}, serving model wants {s:?}",
                    t.shape()
                )));
            }
        }
        Ok(WeightSet {
            version: 0, // assigned under the lock by the caller
            values: loaded.tensors.iter().map(|t| t.to_vec()).collect(),
            shapes: cur.shapes.clone(),
        })
    }

    /// Offer a checkpoint file as the next incumbent generation. All
    /// validation happens here, on the offering thread. On any error the
    /// published set is left untouched (and the rejection is journaled).
    /// Returns the new version on success.
    pub fn offer_checkpoint(&self, path: impl AsRef<std::path::Path>) -> DarResult<u64> {
        let mut next = self.validate(path)?;
        let mut inner = self.lock();
        next.version = inner.next_version;
        inner.next_version += 1;
        let version = next.version;
        inner.current = Arc::new(next);
        self.published.store(version, Ordering::Release);
        drop(inner);
        dar_obs::event(dar_obs::ObsEvent::WeightsSwapped { version });
        dar_obs::inc("serve.weight_swaps");
        Ok(version)
    }

    /// Offer a checkpoint file as a **candidate**: validated exactly like
    /// [`offer_checkpoint`](Self::offer_checkpoint) but installed into
    /// the canary slot, leaving `current` serving. Returns the
    /// candidate's version.
    pub fn offer_canary(&self, path: impl AsRef<std::path::Path>) -> DarResult<u64> {
        let mut next = self.validate(path)?;
        let mut inner = self.lock();
        next.version = inner.next_version;
        inner.next_version += 1;
        let version = next.version;
        inner.canary = Some(Arc::new(next));
        Ok(version)
    }

    /// Atomically make the canary the incumbent. Returns its version, or
    /// `None` if no canary was installed.
    pub fn promote_canary(&self) -> Option<u64> {
        let mut inner = self.lock();
        let cand = inner.canary.take()?;
        let version = cand.version;
        inner.current = cand;
        self.published.store(version, Ordering::Release);
        drop(inner);
        dar_obs::event(dar_obs::ObsEvent::WeightsSwapped { version });
        dar_obs::inc("serve.weight_swaps");
        Some(version)
    }

    /// Drop the canary, leaving the incumbent untouched (the rollback
    /// path). Returns the discarded version, if any.
    pub fn clear_canary(&self) -> Option<u64> {
        self.lock().canary.take().map(|c| c.version)
    }
}

/// Stable snake_case classifier for a rejected offer, written into the
/// [`OfferRejected`](dar_obs::ObsEvent::OfferRejected) event.
fn rejection_cause(e: &DarError) -> &'static str {
    match e {
        DarError::Corrupt(_) => "crc_mismatch",
        DarError::Io(_) => "io",
        DarError::InvalidData(m) if m.contains("tensors") => "tensor_count_mismatch",
        DarError::InvalidData(_) => "shape_mismatch",
        _ => "invalid",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_tensor::serial::Checkpoint;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_serve_w_{name}_{}", std::process::id()));
        p
    }

    fn params() -> Vec<Tensor> {
        vec![
            Tensor::param(vec![1.0; 6], &[2, 3]),
            Tensor::param(vec![2.0; 4], &[4]),
        ]
    }

    #[test]
    fn offer_swaps_only_validated_checkpoints() {
        let p = params();
        let store = WeightStore::new(WeightSet::from_params(&p, 1));
        assert_eq!(store.version(), 1);

        // A matching checkpoint flips the version.
        let path = tmpfile("good");
        let good = vec![
            Tensor::param(vec![9.0; 6], &[2, 3]),
            Tensor::param(vec![8.0; 4], &[4]),
        ];
        serial::save_checkpoint_path(&path, &Checkpoint::new(good, Vec::new())).unwrap();
        assert_eq!(store.offer_checkpoint(&path).unwrap(), 2);
        let cur = store.current();
        assert_eq!(cur.version, 2);
        assert_eq!(cur.values[0], vec![9.0; 6]);

        // Wrong shape: rejected, version unchanged.
        let bad = vec![
            Tensor::param(vec![9.0; 6], &[3, 2]),
            Tensor::param(vec![8.0; 4], &[4]),
        ];
        serial::save_checkpoint_path(&path, &Checkpoint::new(bad, Vec::new())).unwrap();
        assert!(store.offer_checkpoint(&path).is_err());
        assert_eq!(store.version(), 2);

        // Wrong tensor count: rejected.
        let short = vec![Tensor::param(vec![9.0; 6], &[2, 3])];
        serial::save_checkpoint_path(&path, &Checkpoint::new(short, Vec::new())).unwrap();
        assert!(store.offer_checkpoint(&path).is_err());
        assert_eq!(store.version(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn apply_round_trips_and_checks_shapes() {
        let p = params();
        let set = WeightSet::from_params(&p, 1);
        let q = params();
        q[0].set_values(vec![0.0; 6]);
        set.apply(&q).unwrap();
        assert_eq!(q[0].to_vec(), vec![1.0; 6]);

        let wrong = vec![Tensor::param(vec![0.0; 6], &[6])];
        assert!(set.apply(&wrong).is_err());

        // Tensor 0 matches, tensor 1 does not: nothing may be written.
        let half = vec![
            Tensor::param(vec![0.0; 6], &[2, 3]),
            Tensor::param(vec![0.0; 4], &[2, 2]),
        ];
        assert!(set.apply(&half).is_err());
        assert_eq!(
            half[0].to_vec(),
            vec![0.0; 6],
            "failed apply wrote tensor 0"
        );
        assert_eq!(half[1].to_vec(), vec![0.0; 4]);
    }

    #[test]
    fn canary_slot_promotes_or_rolls_back_without_touching_incumbent() {
        let p = params();
        let store = WeightStore::new(WeightSet::from_params(&p, 1));
        let path = tmpfile("canary");
        let cand = vec![
            Tensor::param(vec![7.0; 6], &[2, 3]),
            Tensor::param(vec![6.0; 4], &[4]),
        ];
        serial::save_checkpoint_path(&path, &Checkpoint::new(cand, Vec::new())).unwrap();

        // Install: candidate visible only through the canary slot.
        assert_eq!(store.offer_canary(&path).unwrap(), 2);
        assert_eq!(store.version(), 1, "incumbent untouched by the offer");
        assert_eq!(store.canary().unwrap().version, 2);

        // Rollback is the absence of a swap.
        assert_eq!(store.clear_canary(), Some(2));
        assert!(store.canary().is_none());
        assert_eq!(store.version(), 1);
        assert_eq!(store.current().values[0], vec![1.0; 6]);

        // Versions are never reused: the next candidate is v3, and
        // promotion makes it the incumbent atomically.
        assert_eq!(store.offer_canary(&path).unwrap(), 3);
        assert_eq!(store.promote_canary(), Some(3));
        assert!(store.canary().is_none());
        assert_eq!(store.version(), 3);
        assert_eq!(store.current().values[0], vec![7.0; 6]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version_hint_tracks_publication_without_the_lock() {
        let p = params();
        let store = WeightStore::new(WeightSet::from_params(&p, 1));
        assert_eq!(store.version_hint(), 1);
        assert!(
            store.refresh(1).is_none(),
            "steady state: hint matches, no set returned"
        );

        let path = tmpfile("hint");
        let next = vec![
            Tensor::param(vec![3.0; 6], &[2, 3]),
            Tensor::param(vec![4.0; 4], &[4]),
        ];
        serial::save_checkpoint_path(&path, &Checkpoint::new(next, Vec::new())).unwrap();
        assert_eq!(store.offer_checkpoint(&path).unwrap(), 2);
        assert_eq!(store.version_hint(), 2);
        assert_eq!(store.refresh(1).unwrap().version, 2, "stale replica syncs");

        // A canary offer does NOT move the hint (incumbent unchanged)…
        assert_eq!(store.offer_canary(&path).unwrap(), 3);
        assert_eq!(store.version_hint(), 2);
        // …a replica holding the canary version is steered back…
        assert_eq!(store.refresh(3).unwrap().version, 2);
        // …and promotion moves the hint atomically with the slot.
        assert_eq!(store.promote_canary(), Some(3));
        assert_eq!(store.version_hint(), 3);
        assert!(store.refresh(3).is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejection_causes_are_classified() {
        assert_eq!(
            rejection_cause(&DarError::Corrupt("crc".into())),
            "crc_mismatch"
        );
        assert_eq!(
            rejection_cause(&DarError::InvalidData("has 3 tensors, model has 2".into())),
            "tensor_count_mismatch"
        );
        assert_eq!(
            rejection_cause(&DarError::InvalidData("tensor 0 is [3, 2]".into())),
            "shape_mismatch"
        );
    }
}
