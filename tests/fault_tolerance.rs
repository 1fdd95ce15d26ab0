//! Integration tests for the fault-tolerant training runtime: checkpoint
//! corruption can never yield garbage weights, and the divergence guards
//! carry a run across injected faults.

use dar::core::fault::{self, FaultPlan, FaultyModel};
use dar::core::guard::{GuardPolicy, GuardReason, TrainEvent};
use dar::prelude::*;
use dar::store::{FaultyStorage, RealStorage, Storage, StorageFaultPlan};
use dar::tensor::serial::{self, save_checkpoint_atomic, Checkpoint};
use dar::tensor::{DarError, Tensor};
use proptest::prelude::*;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dar_ft_{name}_{}", std::process::id()));
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Save → corrupt → load must always fail with a structured error —
    /// never panic, never return wrong weights — for any seeded
    /// truncation point or bit flip and any tensor geometry.
    #[test]
    fn corrupted_checkpoint_always_fails_to_load(
        seed in 0u64..10_000,
        n in 1usize..40,
        flip in any::<bool>(),
    ) {
        let path = tmpfile(&format!("prop_{seed}_{n}_{flip}"));
        let tensors = vec![
            Tensor::param((0..n).map(|i| i as f32 * 0.5 - 1.0).collect(), &[n]),
            Tensor::param(vec![-2.5; 6], &[2, 3]),
        ];
        serial::save_path(&path, &tensors).expect("save");
        if flip {
            fault::corrupt_bitflip(&path, seed).expect("flip");
        } else {
            fault::corrupt_truncate(&path, seed).expect("truncate");
        }
        let result = serial::load_checkpoint_path(&path);
        std::fs::remove_file(&path).ok();
        match result {
            Err(DarError::Corrupt(_) | DarError::InvalidData(_) | DarError::Io(_)) => {}
            Err(other) => {
                return Err(TestCaseError::Fail(format!("unstructured error: {other:?}")))
            }
            Ok(_) => {
                return Err(TestCaseError::Fail("corrupted checkpoint loaded".to_owned()))
            }
        }
    }
}

fn tiny() -> (AspectDataset, RationaleConfig, SharedEmbedding) {
    let dcfg = SynthConfig {
        n_train: 96,
        n_dev: 32,
        n_test: 32,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&dcfg, &mut dar::rng(700));
    let cfg = RationaleConfig {
        emb_dim: 16,
        hidden: 16,
        sparsity: 0.16,
        ..Default::default()
    };
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut dar::rng(701));
    (data, cfg, emb)
}

/// A one-shot NaN loss trips the guard; rollback + retry completes the run
/// with finite metrics and a structured event trail.
#[test]
fn guarded_run_survives_injected_nan_loss() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let mut rng = dar::rng(702);
    let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
    // 96 rows / batch 32 = 3 steps per epoch; fault in epoch 1.
    let mut model = FaultyModel::new(inner, FaultPlan::nan_loss_at(4));
    let policy = GuardPolicy {
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };
    let guarded = Trainer::guarded(tcfg, policy)
        .try_fit(&mut model, &data, &mut rng)
        .unwrap();
    assert!(
        guarded.events.iter().any(|e| matches!(
            e,
            TrainEvent::GuardTripped {
                reason: GuardReason::NonFiniteLoss { .. },
                ..
            }
        )),
        "no NaN trip recorded: {:?}",
        guarded.events
    );
    assert_eq!(guarded.epochs_run, 3, "run must complete after recovery");
    assert!(guarded.test.f1.is_finite());
    assert!(guarded.rollbacks() >= 1);
}

/// NaN weights are caught by the epoch-boundary parameter scan and rolled
/// back; the final model is finite.
#[test]
fn guarded_run_survives_injected_nan_weights() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let tcfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let mut rng = dar::rng(703);
    let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
    let mut model = FaultyModel::new(inner, FaultPlan::nan_weights_at(1));
    let policy = GuardPolicy {
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };
    let guarded = Trainer::guarded(tcfg, policy)
        .try_fit(&mut model, &data, &mut rng)
        .unwrap();
    assert!(
        guarded.events.iter().any(|e| matches!(
            e,
            TrainEvent::GuardTripped {
                reason: GuardReason::NonFiniteLoss { .. } | GuardReason::NonFiniteParams { .. },
                ..
            }
        )),
        "no trip recorded: {:?}",
        guarded.events
    );
    for p in model.params() {
        assert!(
            p.to_vec().iter().all(|v| v.is_finite()),
            "non-finite weights survived"
        );
    }
}

/// A guard rollback is an exact restore of weights, optimizer moments,
/// RNG stream and run state: with `lr_decay` 1 and a one-shot NaN loss,
/// the run rolls back once and ends bit-identical — weights, history and
/// test metrics — to the same run without the fault.
#[test]
fn guard_rollback_is_an_exact_restore() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let policy = GuardPolicy {
        lr_decay: 1.0,
        spike_sigmas: f32::INFINITY,
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };
    let run = |plan: FaultPlan| {
        let mut rng = dar::rng(704);
        let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
        let mut model = FaultyModel::new(inner, plan);
        let guarded = Trainer::guarded(tcfg, policy)
            .try_fit(&mut model, &data, &mut rng)
            .unwrap();
        let weights: Vec<Vec<u32>> = model
            .params()
            .iter()
            .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect();
        let history: Vec<(usize, u32, u32)> = guarded
            .history
            .iter()
            .map(|e| (e.epoch, e.train_loss.to_bits(), e.dev_score.to_bits()))
            .collect();
        let test = format!("{:?}", guarded.test);
        (guarded.rollbacks(), weights, history, test)
    };
    let (rollbacks, weights, history, test) = run(FaultPlan::none());
    assert_eq!(rollbacks, 0);
    // 96 rows / batch 32 = 3 steps per epoch: step 1 faults in epoch 0,
    // step 4 in epoch 1.
    for k in [1, 4] {
        let (r, w, h, t) = run(FaultPlan::nan_loss_at(k));
        assert_eq!(r, 1, "step {k}: expected exactly one rollback");
        assert!(w == weights, "step {k}: weights differ from the clean run");
        assert_eq!(h, history, "step {k}: history differs from the clean run");
        assert_eq!(t, test, "step {k}: test metrics differ from the clean run");
    }
}

/// A loss far outside the rolling window, planted once the window is past
/// its warm-up, trips the spike guard; the run rolls back to the start of
/// the epoch, retries with a decayed learning rate and finishes.
#[test]
fn guarded_run_survives_a_planted_loss_spike() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    // 96 rows / batch 8 = 12 steps per epoch: by step 18 (step 6 of
    // epoch 1) the window holds 18 losses, past the warm-up of 16.
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 8,
        patience: None,
        ..Default::default()
    };
    let policy = GuardPolicy {
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };
    assert!(policy.spike_warmup <= 18);
    let mut rng = dar::rng(706);
    let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
    let mut model = FaultyModel::new(inner, FaultPlan::loss_spike_at(18, 1e3));
    let guarded = Trainer::guarded(tcfg, policy)
        .try_fit(&mut model, &data, &mut rng)
        .unwrap();
    let trips: Vec<_> = guarded
        .events
        .iter()
        .filter_map(|e| match e {
            TrainEvent::GuardTripped { epoch, reason } => Some((*epoch, reason)),
            _ => None,
        })
        .collect();
    assert!(
        matches!(trips[..], [(1, GuardReason::LossSpike { step: 6, loss, .. })] if *loss > 1e3),
        "expected one spike trip at step 6 of epoch 1: {:?}",
        guarded.events
    );
    assert!(guarded.events.contains(&TrainEvent::RolledBack {
        to_epoch: 1,
        retry: 1,
        lr_scale: policy.lr_decay,
    }));
    assert_eq!(guarded.rollbacks(), 1);
    assert_eq!(guarded.epochs_run, 3, "run must complete after recovery");
    assert!(guarded.test.f1.is_finite());
}

/// A guarded run stopped after epoch 2 and resumed under the guard
/// matches the uninterrupted guarded run bit for bit — history, best
/// epoch, test metrics, final checkpoint, and the guard events (the
/// stopped run's followed by the resumed run's) — with a NaN loss after
/// the cut forcing a rollback past the resume.
#[test]
fn guarded_resume_matches_the_uninterrupted_guarded_run() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let full = TrainConfig {
        epochs: 4,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let policy = GuardPolicy {
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };
    // 96 rows / batch 32 = 3 steps per epoch: absolute step 7 is step 1
    // of epoch 2, the first epoch after the cut.
    const FAULT_STEP: usize = 7;
    let fresh = |plan: FaultPlan| {
        let mut rng = dar::rng(707);
        let model = FaultyModel::new(Rnp::new(&cfg, &emb, ml, &mut rng), plan);
        (model, rng)
    };
    let bits = |r: &TrainReport| {
        let history: Vec<(usize, u32, u32)> = r
            .history
            .iter()
            .map(|e| (e.epoch, e.train_loss.to_bits(), e.dev_score.to_bits()))
            .collect();
        (history, r.best_epoch, format!("{:?}", r.test))
    };

    let path_a = tmpfile("guarded_uninterrupted");
    let (mut model, mut rng) = fresh(FaultPlan::nan_loss_at(FAULT_STEP));
    let uninterrupted = Trainer::guarded(full, policy)
        .fit_checkpointed(&mut model, &data, &mut rng, &path_a)
        .unwrap();
    assert_eq!(uninterrupted.rollbacks(), 1, "{:?}", uninterrupted.events);

    let path_b = tmpfile("guarded_cut");
    let (mut model, mut rng) = fresh(FaultPlan::nan_loss_at(FAULT_STEP));
    let stopped = Trainer::guarded(TrainConfig { epochs: 2, ..full }, policy)
        .fit_checkpointed(&mut model, &data, &mut rng, &path_b)
        .unwrap();
    let cut = model.steps_taken;
    assert_eq!(cut, 6, "the fault must land after the cut");

    // A fresh process: its fault wrapper counts steps from 0.
    let (mut model, _) = fresh(FaultPlan::nan_loss_at(FAULT_STEP - cut));
    let mut rng = dar::rng(9999); // overwritten by the resume
    let resumed = Trainer::guarded(full, policy)
        .fit_resume(&mut model, &data, &mut rng, &path_b)
        .unwrap();

    assert_eq!(bits(&resumed), bits(&uninterrupted));
    assert_eq!(
        [stopped.events, resumed.events].concat(),
        uninterrupted.events
    );
    assert_eq!(
        std::fs::read(&path_b).unwrap(),
        std::fs::read(&path_a).unwrap(),
        "final checkpoints differ"
    );
    std::fs::remove_file(path_a).ok();
    std::fs::remove_file(path_b).ok();
}

/// A persistent fault exhausts the bounded retry budget and surfaces as a
/// structured error, not a panic or an infinite loop.
#[test]
fn persistent_fault_exhausts_retries() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let tcfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let mut rng = dar::rng(704);
    let inner = Rnp::new(&cfg, &emb, ml, &mut rng);
    let mut model = FaultyModel::new(inner, FaultPlan::nan_loss_from(0));
    let err = Trainer::guarded(
        tcfg,
        GuardPolicy {
            max_retries: 2,
            ..Default::default()
        },
    )
    .try_fit(&mut model, &data, &mut rng)
    .unwrap_err();
    assert!(
        matches!(err, DarError::RetriesExhausted { retries: 2, .. }),
        "wrong error: {err:?}"
    );
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dar_ft_dir_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn small_checkpoint(value: f32) -> Checkpoint {
    Checkpoint::new(
        vec![Tensor::param(vec![value; 6], &[2, 3])],
        vec![value as u8],
    )
}

/// A checkpoint save through a disk that fails — `ENOSPC`, a short
/// write, a failed rename — must surface a typed error and leave the
/// destination byte-identical to what was there before: no partial
/// file, no temp dropping masquerading as the real thing. Every
/// production checkpoint save (`serial::save_checkpoint_path`) is this
/// same function on `RealStorage`.
#[test]
fn injected_storage_faults_never_leave_a_partial_checkpoint() {
    let d = tmpdir("inject");
    let dest = d.join("model.ckpt");
    save_checkpoint_atomic(&RealStorage, &dest, &small_checkpoint(1.0)).unwrap();
    let before = std::fs::read(&dest).unwrap();

    let plans: [(&str, StorageFaultPlan); 3] = [
        (
            "enospc",
            StorageFaultPlan {
                enospc_at: Some(0),
                ..Default::default()
            },
        ),
        (
            "short write",
            StorageFaultPlan {
                seed: 11,
                short_write_at: Some(0),
                ..Default::default()
            },
        ),
        (
            "failed rename",
            StorageFaultPlan {
                fail_rename_at: Some(0),
                ..Default::default()
            },
        ),
    ];
    for (what, plan) in plans {
        let s = FaultyStorage::new(plan);
        let err = save_checkpoint_atomic(&s, &dest, &small_checkpoint(2.0))
            .expect_err(&format!("{what} must fail the save"));
        assert!(
            matches!(err, DarError::Io(_)),
            "{what}: untyped error {err:?}"
        );
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            before,
            "{what}: destination was disturbed"
        );
        assert!(
            !RealStorage
                .list(&d)
                .unwrap()
                .iter()
                .any(|n| n.contains(".tmp.")),
            "{what}: temp file left behind"
        );
        // The survivor still loads — the old weights are intact, not
        // merely present.
        let loaded = serial::load_checkpoint_path(&dest).expect("incumbent still loads");
        assert_eq!(loaded.tensors[0].to_vec(), vec![1.0; 6]);
    }
    std::fs::remove_dir_all(&d).ok();
}

/// The atomic save's fsync discipline, asserted on the op log rather
/// than inferred: data is synced before the rename publishes the name,
/// and the parent directory is synced after — the order that makes the
/// rename itself durable.
#[test]
fn checkpoint_save_orders_data_sync_rename_dir_sync() {
    let d = tmpdir("order");
    let s = FaultyStorage::new(StorageFaultPlan::none());
    save_checkpoint_atomic(&s, &d.join("model.ckpt"), &small_checkpoint(3.0)).unwrap();
    let log = s.op_log();
    let wr = log
        .iter()
        .position(|e| e.starts_with("write_file:"))
        .expect("data write logged");
    let rn = log
        .iter()
        .position(|e| e.starts_with("rename:"))
        .expect("rename logged");
    let sd = log
        .iter()
        .position(|e| e.starts_with("sync_dir:"))
        .expect("dir sync logged");
    assert!(wr < rn && rn < sd, "fsync discipline out of order: {log:?}");
    std::fs::remove_dir_all(&d).ok();
}

/// A guarded run's checkpoint is a plain trainer checkpoint: an
/// interrupted guarded run resumes with `Trainer::fit_resume`.
#[test]
fn guarded_checkpoint_is_resumable_by_plain_trainer() {
    let (data, cfg, emb) = tiny();
    let ml = pretrain::max_len(&data);
    let path = tmpfile("guarded_resume");
    let policy = GuardPolicy {
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..Default::default()
    };

    // Guarded run over the partial budget leaves a checkpoint…
    let partial = TrainConfig {
        epochs: 2,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let mut rng = dar::rng(705);
    let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
    Trainer::guarded(partial, policy)
        .fit_checkpointed(&mut model, &data, &mut rng, &path)
        .unwrap();

    // …that a fresh process finishes with the plain trainer.
    let full = TrainConfig {
        epochs: 4,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };
    let mut model = Rnp::new(&cfg, &emb, ml, &mut dar::rng(705));
    let mut rng = dar::rng(9999);
    let resumed = Trainer::new(full)
        .fit_resume(&mut model, &data, &mut rng, &path)
        .unwrap();
    assert_eq!(resumed.epochs_run, 4);
    assert!(resumed.test.f1.is_finite());
    std::fs::remove_file(path).ok();
}
