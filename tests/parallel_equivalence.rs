//! Serial-equivalence harness for the data-parallel training runtime
//! (DESIGN.md §9).
//!
//! The `dar-par` pool promises that the thread budget is an execution
//! detail, never a numeric one: shard boundaries depend only on problem
//! size, every shard runs serially, and partials are reduced in ascending
//! shard order. These tests hold the whole training stack to that promise
//! — for every model of the paper, a full training run under a 4-thread
//! budget must be **bit-identical** to the 1-thread run: same weights,
//! same Adam moments, same loss history, same metrics. Checkpoint/resume
//! must compose with parallelism the same way.
//!
//! Bit-exactness is not a nicety here: the checkpoint format stores raw
//! f32 weights and optimizer moments, and `Trainer::fit_resume` promises
//! a resumed run finishes exactly like an uninterrupted one. That promise
//! only survives a thread-budget change between save and resume if the
//! arithmetic itself is budget-invariant.

use dar::core::models;
use dar::prelude::*;
use dar::tensor::optim::AdamState;

/// Small but not degenerate: batch 32 at hidden 24 keeps the fused GRU
/// kernel above its parallel-dispatch FLOP threshold, so the pool really
/// runs multi-threaded shards rather than falling back to serial.
fn tiny_data(seed: u64) -> AspectDataset {
    let cfg = SynthConfig {
        n_train: 96,
        n_dev: 32,
        n_test: 32,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    SynBeer::generate(&cfg, &mut dar::rng(seed))
}

fn small_cfg() -> RationaleConfig {
    RationaleConfig {
        emb_dim: 16,
        hidden: 24,
        sparsity: 0.16,
        ..Default::default()
    }
}

fn two_epochs() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 32,
        patience: None,
        ..Default::default()
    }
}

/// Everything observable about a finished run, in raw bits/bytes.
#[derive(PartialEq, Debug)]
struct RunFingerprint {
    weights: Vec<Vec<u32>>,
    adam: Vec<u8>,
    history: Vec<(u32, u32)>,
    test: Vec<u32>,
}

fn metric_bits(m: &RationaleMetrics) -> Vec<u32> {
    [
        m.precision,
        m.recall,
        m.f1,
        m.sparsity,
        m.acc.unwrap_or(-1.0),
        m.full_text_acc.unwrap_or(-1.0),
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect()
}

fn fingerprint(model: &dyn RationaleModel, report: &TrainReport) -> RunFingerprint {
    let mut adam = Vec::new();
    for s in model.optim_states() {
        s.encode(&mut adam);
    }
    RunFingerprint {
        weights: model
            .params()
            .iter()
            .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect(),
        adam,
        history: report
            .history
            .iter()
            .map(|e| (e.train_loss.to_bits(), e.dev_score.to_bits()))
            .collect(),
        test: metric_bits(&report.test),
    }
}

fn build(name: &str, cfg: &RationaleConfig, data: &AspectDataset) -> Box<dyn RationaleModel> {
    let mut rng = dar::rng(41);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    models::by_name(name, cfg, &emb, data, 2, &mut rng)
        .unwrap_or_else(|| panic!("unknown model '{name}'"))
}

/// Build the named model fresh and train it for two epochs under the
/// given thread budget. Construction happens inside `with_threads` too:
/// the predictor pretraining DAR does at build time must also be
/// budget-invariant.
fn train_under(name: &str, threads: usize) -> RunFingerprint {
    dar_par::with_threads(threads, || {
        let data = tiny_data(40);
        let cfg = small_cfg();
        let mut model = build(name, &cfg, &data);
        let mut rng = dar::rng(42);
        let report = Trainer::new(two_epochs()).fit(model.as_mut(), &data, &mut rng);
        fingerprint(model.as_ref(), &report)
    })
}

/// The tentpole claim: for every model of the paper, training under a
/// 4-thread budget is bit-identical to the serial run — weights, Adam
/// moments, loss history, and test metrics.
#[test]
fn all_models_train_bit_identically_across_thread_budgets() {
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
        let serial = train_under(name, 1);
        let parallel = train_under(name, 4);
        assert!(
            !serial.weights.is_empty() && !serial.adam.is_empty(),
            "{name}: fingerprint is trivial"
        );
        assert_eq!(
            serial, parallel,
            "{name}: 1-thread and 4-thread runs diverged"
        );
    }
}

/// A checkpoint written under one thread budget must resume under another
/// and still finish bit-identical to an uninterrupted serial run: save at
/// epoch 1 under 4 threads, resume to epoch 2 under 1 thread, compare
/// against a straight 2-epoch serial `fit`.
#[test]
fn checkpoint_resume_composes_with_thread_budgets() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("dar_pareq_resume_{}", std::process::id()));
        p
    };
    let data = tiny_data(40);

    // Interrupted run: one epoch under 4 threads, leaving a checkpoint…
    dar_par::with_threads(4, || {
        let mut model = build("RNP", &small_cfg(), &data);
        let mut rng = dar::rng(42);
        let partial = TrainConfig {
            epochs: 1,
            ..two_epochs()
        };
        Trainer::new(partial)
            .fit_checkpointed(model.as_mut(), &data, &mut rng, &path)
            .expect("checkpointed run");
    });

    // …finished under a *different* budget by a fresh process.
    let resumed = dar_par::with_threads(1, || {
        let mut model = build("RNP", &small_cfg(), &data);
        // fit_resume overwrites the RNG stream from the checkpoint; the
        // seed here is deliberately different to prove it.
        let mut rng = dar::rng(9999);
        let report = Trainer::new(two_epochs())
            .fit_resume(model.as_mut(), &data, &mut rng, &path)
            .expect("resumed run");
        fingerprint(model.as_ref(), &report)
    });
    std::fs::remove_file(&path).ok();

    let uninterrupted = train_under("RNP", 1);
    assert_eq!(
        resumed, uninterrupted,
        "interrupted 4-thread run + 1-thread resume diverged from the serial run"
    );
}

/// The encoded Adam state round-trips losslessly, so byte comparison in
/// the fingerprint is exactly moment comparison.
#[test]
fn adam_state_bytes_are_lossless() {
    dar_par::with_threads(4, || {
        let data = tiny_data(40);
        let mut model = build("RNP", &small_cfg(), &data);
        let mut rng = dar::rng(42);
        Trainer::new(two_epochs()).fit(model.as_mut(), &data, &mut rng);
        for s in model.optim_states() {
            let mut buf = Vec::new();
            s.encode(&mut buf);
            let decoded =
                AdamState::decode(&mut dar::tensor::serial::codec::Cursor::new(&buf)).unwrap();
            assert_eq!(decoded, s);
        }
    });
}

/// The *guarded* trainer — rollback path included — is thread-budget
/// invariant too: a scheduled NaN loss trips the guard at the same step
/// under every budget, rollback restores the same checkpoint bytes, and
/// the retried run finishes bit-identical, down to the event log.
#[test]
fn guarded_rollback_is_bit_identical_across_thread_budgets() {
    use dar::core::fault::{FaultPlan, FaultyModel};

    let run = |threads: usize| {
        dar_par::with_threads(threads, || {
            let data = tiny_data(40);
            let cfg = small_cfg();
            let mut rng = dar::rng(41);
            let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
            let ml = pretrain::max_len(&data);
            // 96 train reviews at batch 32 = 3 steps/epoch: step 4 NaNs
            // mid-epoch-1, forcing a rollback to the epoch-0 checkpoint;
            // the retry (steps 6+) runs clean.
            let mut model = FaultyModel::new(
                Rnp::new(&cfg, &emb, ml, &mut rng),
                FaultPlan::nan_loss_at(4),
            );
            let mut train_rng = dar::rng(42);
            let guarded = Trainer::guarded(two_epochs(), GuardPolicy::default())
                .try_fit(&mut model, &data, &mut train_rng)
                .expect("guarded run recovers from the one-shot fault");
            (
                fingerprint(&model, &guarded),
                guarded.rollbacks(),
                guarded.events,
            )
        })
    };

    let (serial_fp, serial_rb, serial_events) = run(1);
    let (parallel_fp, parallel_rb, parallel_events) = run(4);

    assert!(serial_rb >= 1, "the scheduled fault must force a rollback");
    assert!(
        serial_events
            .iter()
            .any(|e| matches!(e, TrainEvent::RolledBack { .. })),
        "event log records the rollback"
    );
    assert_eq!(serial_rb, parallel_rb);
    assert_eq!(
        serial_events, parallel_events,
        "guard trips and rollbacks diverged across thread budgets"
    );
    assert_eq!(
        serial_fp, parallel_fp,
        "guarded 1-thread and 4-thread runs diverged"
    );
}
