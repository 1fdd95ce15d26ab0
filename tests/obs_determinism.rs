//! Determinism contract of the observability snapshot (DESIGN.md §12).
//!
//! The snapshot's `deterministic` section — counters, gauges, journal
//! events — must be byte-identical for any `DAR_THREADS` budget and must
//! survive checkpoint resume without double-counting. Wall-clock-derived
//! span statistics live in the separate `timing` section and are never
//! compared.
//!
//! The serve comparison is against a golden expected string rather than
//! an in-process 1-vs-4 rerun: `with_threads` is a thread-local override
//! that server worker threads do not inherit, so a budget sweep over the
//! serving runtime only means anything process-wide — which is exactly
//! how CI runs this whole test binary (once under `DAR_THREADS=1`, once
//! under `DAR_THREADS=4`, asserting the same golden bytes both times).

use std::sync::{Arc, Mutex, MutexGuard};

use dar::core::guard::GuardPolicy;
use dar::obs::ObsEvent;
use dar::prelude::*;
use dar::serve::{BreakerPolicy, ServeConfig, Server};

/// The registry is process-global and cargo runs `#[test]`s of one
/// binary concurrently; every test takes this lock and resets.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dar_obs_det_{name}_{}", std::process::id()));
    p
}

fn tiny_dataset(seed: u64) -> AspectDataset {
    let synth = SynthConfig {
        n_train: 64,
        n_dev: 24,
        n_test: 24,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    SynBeer::generate(&synth, &mut dar::rng(seed))
}

fn tiny_cfg() -> RationaleConfig {
    RationaleConfig {
        emb_dim: 12,
        hidden: 12,
        sparsity: 0.16,
        ..Default::default()
    }
}

/// Guards wide open so the run is clean and the event stream is the
/// plain epoch trace.
fn open_policy() -> GuardPolicy {
    GuardPolicy {
        spike_sigmas: f32::INFINITY,
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..GuardPolicy::default()
    }
}

/// Deterministic section of a 2-epoch guarded run under a thread budget.
fn guarded_run_deterministic(threads: usize, ckpt_name: &str) -> String {
    dar_par::with_threads(threads, || {
        dar::obs::reset();
        dar::obs::set_enabled(true);
        let data = tiny_dataset(900);
        let cfg = tiny_cfg();
        let mut rng = dar::rng(901);
        let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
        let ml = pretrain::max_len(&data);
        let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
        let tcfg = TrainConfig {
            epochs: 2,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };
        let path = tmpfile(ckpt_name);
        Trainer::guarded(tcfg, open_policy())
            .fit_checkpointed(&mut model, &data, &mut rng, &path)
            .expect("guarded run failed");
        std::fs::remove_file(path).ok();
        dar::obs::snapshot("train").deterministic_json()
    })
}

/// The tentpole invariant: identical logical run → identical
/// deterministic bytes, whatever the thread budget. (CI additionally
/// runs this binary under `DAR_THREADS=1` and `=4`, covering the
/// process-global path the thread-local override cannot reach.)
#[test]
fn guarded_train_deterministic_section_is_thread_invariant() {
    let _g = obs_lock();
    let one = guarded_run_deterministic(1, "t1");
    let four = guarded_run_deterministic(4, "t4");
    assert_eq!(one, four, "deterministic section diverged across budgets");

    // And it actually carries the signals: 2 epochs, their events, the
    // 2 epoch-boundary checkpoints.
    assert!(one.contains("\"train.epochs\":2"), "missing epochs: {one}");
    assert!(
        one.contains("\"kind\":\"epoch_done\""),
        "missing events: {one}"
    );
    assert!(
        one.contains("\"train.checkpoints_saved\":2"),
        "guarded runs checkpoint every epoch: {one}"
    );
}

/// A 100-request serve run on one worker with guards held open produces
/// an exactly known deterministic section — golden bytes, not a rerun.
#[test]
fn serve_run_matches_golden_deterministic_section() {
    let _g = obs_lock();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let data = tiny_dataset(910);
    let cfg = tiny_cfg();
    let vocab = data.vocab.len();
    let ml = pretrain::max_len(&data);
    let factory: dar::serve::ModelFactory = Arc::new(move || {
        let mut rng = dar::rng(911);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
    });
    let serve_cfg = ServeConfig {
        replicas: 1,
        vocab_size: vocab,
        max_len: ml,
        breaker: BreakerPolicy {
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(serve_cfg, factory);
    for i in 0..100 {
        let out = server
            .submit(data.test[i % data.test.len()].clone())
            .wait()
            .expect("request failed");
        assert!(!out.degraded, "collapse band is open; no degraded answers");
    }
    server.shutdown();

    let det = dar::obs::snapshot("serve").deterministic_json();
    assert_eq!(
        det,
        "{\"counters\":{\"serve.served_full\":100,\"serve.submitted\":100},\
         \"gauges\":{},\"events\":[],\"events_dropped\":0}"
    );
}

/// Crash recovery followed by serving produces an exactly known
/// deterministic section: the typed durability events (DESIGN.md §15)
/// land in the journal in protocol order — recovery start, torn-tail
/// truncation, the truncation's own WAL commit, recovery complete —
/// followed by the serve counters, byte-identical under any thread
/// budget (CI re-runs this binary under `DAR_THREADS=1` and `=4`).
#[test]
fn recover_then_serve_matches_golden_deterministic_section() {
    use dar::store::{DurableState, RealStorage, Storage, WAL_FILE};

    let _g = obs_lock();
    let dir = std::env::temp_dir().join(format!("dar_obs_det_recover_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A journal with one settled promotion… (obs off: setup is not the
    // run under test)
    dar::obs::set_enabled(false);
    {
        let cand = {
            std::fs::create_dir_all(&dir).unwrap();
            let p = dir.join("cand.ckpt");
            std::fs::write(&p, b"weights").unwrap();
            p
        };
        let (mut st, _) = DurableState::open(Arc::new(RealStorage), &dir).unwrap();
        st.log_canary_started(0).unwrap();
        st.log_promoted(0, &cand).unwrap();
        st.log_feed_cursor(1).unwrap();
    }
    // …plus a 7-byte torn half-frame a crashed writer left at the tail.
    RealStorage
        .append_sync(&dir.join(WAL_FILE), &[44, 0, 0, 0, 7, 7, 7])
        .unwrap();

    dar::obs::reset();
    dar::obs::set_enabled(true);

    // Recovery: replays 3 records, truncates the tail, journals the
    // truncation (the 4th record), keeps generation 1.
    let (st, rec) = DurableState::open(Arc::new(RealStorage), &dir).unwrap();
    assert_eq!(rec.truncated_bytes, 7);
    assert_eq!(st.generation(), 1);
    assert_eq!(st.resume_round(), 1);
    drop(st);

    // Then serve: the same 100-request flow as the serve golden.
    let data = tiny_dataset(910);
    let cfg = tiny_cfg();
    let vocab = data.vocab.len();
    let ml = pretrain::max_len(&data);
    let factory: dar::serve::ModelFactory = Arc::new(move || {
        let mut rng = dar::rng(911);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
    });
    let serve_cfg = ServeConfig {
        replicas: 1,
        vocab_size: vocab,
        max_len: ml,
        breaker: BreakerPolicy {
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(serve_cfg, factory);
    for i in 0..100 {
        server
            .submit(data.test[i % data.test.len()].clone())
            .wait()
            .expect("request failed");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let det = dar::obs::snapshot("recover_serve").deterministic_json();
    assert_eq!(
        det,
        "{\"counters\":{\"serve.served_full\":100,\"serve.submitted\":100},\
         \"gauges\":{},\"events\":[\
         {\"seq\":0,\"kind\":\"recovery_started\"},\
         {\"seq\":1,\"kind\":\"wal_truncated_tail\",\"lost_bytes\":7},\
         {\"seq\":2,\"kind\":\"wal_append\",\"record\":\"tail_truncated\"},\
         {\"seq\":3,\"kind\":\"recovery_complete\",\"records\":4,\"generation\":1}],\
         \"events_dropped\":0}"
    );
}

/// Checkpoint resume must not double-count: epochs already recorded by
/// the interrupted run are not re-emitted, and the resume is marked.
#[test]
fn resume_does_not_double_count() {
    let _g = obs_lock();
    let data = tiny_dataset(920);
    let cfg = tiny_cfg();
    let emb_seed = 921;
    let path = tmpfile("resume");
    let full = TrainConfig {
        epochs: 4,
        batch_size: 32,
        patience: None,
        ..Default::default()
    };

    // Interrupted run: first 2 of 4 epochs.
    dar::obs::reset();
    dar::obs::set_enabled(true);
    let mut rng = dar::rng(emb_seed);
    let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
    let ml = pretrain::max_len(&data);
    let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
    Trainer::new(TrainConfig { epochs: 2, ..full })
        .fit_checkpointed(&mut model, &data, &mut rng, &path)
        .expect("interrupted run failed");
    let first = dar::obs::snapshot("train");

    // Fresh "process": reset the registry, resume to completion.
    dar::obs::reset();
    let mut rng = dar::rng(emb_seed);
    let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
    let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
    let mut rng = dar::rng(999); // wrong on purpose; overwritten by resume
    Trainer::new(full)
        .fit_resume(&mut model, &data, &mut rng, &path)
        .expect("resume failed");
    let second = dar::obs::snapshot("train");
    std::fs::remove_file(path).ok();

    let epochs = |snap: &dar::obs::Snapshot| -> Vec<u64> {
        snap.events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::EpochDone { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect()
    };
    assert_eq!(epochs(&first), vec![0, 1]);
    assert_eq!(
        epochs(&second),
        vec![2, 3],
        "resume re-emitted already-recorded epochs"
    );
    assert!(
        second
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::CheckpointResumed { next_epoch: 2 })),
        "resume not marked in the journal: {:?}",
        second.events
    );
    let counter = |snap: &dar::obs::Snapshot, name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter(&first, "train.epochs"), 2);
    assert_eq!(counter(&second, "train.epochs"), 2);
    assert_eq!(counter(&second, "train.resumes"), 1);
}
