//! `dar-loop` — demo + benchmark driver for the closed online loop:
//! train-while-serve with canary evaluation and auto-rollback.
//!
//! Topology (DESIGN.md §13): a background trainer consumes a streaming
//! synthetic review feed (with a poison hook exercising feed admission)
//! and writes one candidate checkpoint per round; the controller canaries
//! each candidate on a deterministic traffic slice against the incumbent
//! and promotes or rolls back. Results land in `results/BENCH_online.json`
//! and the obs snapshot in `results/obs_online.json`.
//!
//! With `--state-dir` the loop becomes *durable* (DESIGN.md §15): every
//! verdict is committed to a write-ahead journal before it takes effect,
//! and `--recover` replays the journal, republishes the incumbent, and
//! resumes the feed at the logged cursor.
//!
//! `--drill` runs the deterministic kill-and-recover fixture the chaos
//! harness (`tests/crash_recovery.rs`) SIGKILLs at seeded points:
//! structurally biased candidates alternate promote/rollback verdicts
//! that are independent of traffic position, so a recovered run's
//! journal must continue the uninterrupted golden exactly.
//!
//! ```sh
//! dar-loop                           # defaults: 3 rounds, auto replicas
//! dar-loop --rounds 5 --seed 7 --wave 24 --out results
//! dar-loop --state-dir target/loop-state --recover
//! dar-loop --drill --rounds 4 --state-dir target/drill
//! ```

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use dar::cli::{bool_flag, checked, flag, Spec};
use dar::core::stream::{spawn_online_trainer, CandidateMsg, FeedConfig, OnlineTrainerConfig};
use dar::data::Review;
use dar::prelude::*;
use dar::serve::{
    run_online_loop, CanaryPolicy, OnlineLoopConfig, PromotionPhase, ServeConfig, Server,
};
use dar::store::{DurableState, RealStorage};
use dar::tensor::serial::{self, Checkpoint};
use dar::tensor::Tensor;

/// A checkpoint that predicts `label` for *every* input: all parameters
/// zeroed except 2-element tensors (the classifier bias), which get +8
/// on the wanted logit. The verdict such a candidate earns on
/// single-label traffic is structural — independent of traffic position,
/// canary slice, or restart — which is what makes the drill's recovered
/// journal byte-comparable to the uninterrupted golden.
fn biased_checkpoint(factory: &dar::serve::ModelFactory, label: usize) -> Checkpoint {
    let model = factory();
    let tensors: Vec<Tensor> = model
        .params()
        .iter()
        .map(|p| {
            let shape = p.shape().to_vec();
            if shape.iter().product::<usize>() == 2 {
                let v = if label == 1 {
                    vec![0.0, 8.0]
                } else {
                    vec![8.0, 0.0]
                };
                Tensor::new(v, &shape)
            } else {
                Tensor::zeros(&shape)
            }
        })
        .collect();
    Checkpoint::new(tensors, Vec::new())
}

/// The deterministic kill-and-recover fixture. Candidates alternate:
/// even rounds predict label 1 (the traffic's label → accuracy 1.0 →
/// promoted), odd rounds predict label 0 (accuracy 0.0 → rolled back).
fn drill_main(args: &[String]) {
    let rounds = flag(args, "--rounds").unwrap_or(4);
    let state_dir: PathBuf = flag(args, "--state-dir").expect("--drill requires --state-dir DIR");
    let recover = bool_flag(args, "--recover");
    let delay_ms = flag(args, "--round-delay-ms").unwrap_or(0);

    if !recover {
        std::fs::remove_dir_all(&state_dir).ok();
    }
    std::fs::create_dir_all(&state_dir).expect("creating state dir");

    // Fixed fixture (seed 603): small synthetic beer corpus, tiny model.
    let synth = SynthConfig {
        n_train: 96,
        n_dev: 24,
        n_test: 32,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(603));
    let cfg = RationaleConfig {
        emb_dim: 12,
        hidden: 12,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(&data);
    let vocab = data.vocab.len();
    let factory: dar::serve::ModelFactory = Arc::new(move || {
        let mut rng = dar::rng(603);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
    });

    // Single-label traffic: every request is label 1, so the label-1
    // candidate scores 1.0 and the label-0 one 0.0 on any slice.
    let traffic: Vec<Review> = data.test.iter().filter(|r| r.label == 1).cloned().collect();
    assert!(!traffic.is_empty(), "drill fixture needs label-1 traffic");

    let (mut state, recovery) =
        DurableState::open(Arc::new(RealStorage), &state_dir).expect("opening durable state");
    eprintln!(
        "[dar-loop] drill state: {} records, generation {}, resume round {}, \
         torn {} bytes, {} orphans swept",
        recovery.records.len(),
        recovery.generation,
        recovery.resume_round,
        recovery.truncated_bytes,
        recovery.orphans_swept,
    );

    // Candidate checkpoints for every remaining round, written up front
    // so the feeder thread only paces message delivery.
    let start_round = state.resume_round();
    let mut cand_paths = Vec::new();
    for r in start_round..rounds {
        let path = state_dir.join(format!("drill_cand_r{r}.ckpt"));
        let label = if r % 2 == 0 { 1 } else { 0 };
        serial::save_checkpoint_path(&path, &biased_checkpoint(&factory, label))
            .expect("saving drill candidate");
        cand_paths.push((r, path));
    }

    let serve_cfg = ServeConfig {
        vocab_size: vocab,
        max_len: ml,
        ..ServeConfig::default()
    };
    let server = Server::start(serve_cfg, Arc::clone(&factory));

    // Incumbent: the recovered generation when there is one, else the
    // label-0 loser every even-round candidate beats.
    let incumbent_path = match state.incumbent_path() {
        Some(p) if recover => p,
        _ => {
            let p = state_dir.join("drill_incumbent.ckpt");
            serial::save_checkpoint_path(&p, &biased_checkpoint(&factory, 0))
                .expect("saving drill incumbent");
            p
        }
    };
    server
        .offer_checkpoint(&incumbent_path)
        .expect("publishing drill incumbent");

    // Feeder thread: paced candidate delivery so the harness can SIGKILL
    // the process between (and inside) rounds.
    let (tx, rx) = mpsc::channel();
    let feeder = std::thread::spawn(move || {
        for (round, path) in cand_paths {
            if delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            if tx
                .send(CandidateMsg::Candidate {
                    round,
                    path,
                    trained_on: 0,
                    rejected: 0,
                })
                .is_err()
            {
                return;
            }
        }
        let _ = tx.send(CandidateMsg::Finished);
    });

    let loop_cfg = OnlineLoopConfig {
        // Verdicts must ride on accuracy alone: the biased drill
        // checkpoints have all-zero generators (degraded answers trip
        // the faults gate) and no meaningful rationales, so both of
        // those gates are opened wide.
        policy: CanaryPolicy {
            window: 24,
            max_f1_drop: 1.0,
            max_candidate_faults: u64::MAX,
            ..CanaryPolicy::default()
        },
        wave: 16,
        max_waves: 64,
    };
    let report = run_online_loop(&server, &rx, &traffic, &loop_cfg, Some(&mut state));
    feeder.join().expect("joining drill feeder");
    let stats = server.shutdown();

    for r in &report.rounds {
        match (&r.outcome, &r.note) {
            (Some(o), _) => eprintln!(
                "[dar-loop] drill round {}: {:?} cause {:?} (cand acc {:.2} vs inc {:.2})",
                r.round,
                o.phase,
                o.cause,
                o.snapshot.candidate.accuracy(),
                o.snapshot.incumbent.accuracy(),
            ),
            (None, Some(note)) => eprintln!("[dar-loop] drill round {}: {note}", r.round),
            _ => {}
        }
    }

    eprintln!(
        "[dar-loop] drill done: {} promoted, {} rolled back, generation {}, \
         served {} (panics {})",
        report.promoted,
        report.rolled_back,
        state.generation(),
        report.rounds.iter().map(|r| r.served_ok).sum::<u64>(),
        stats.panics,
    );
    eprintln!("[dar-loop] ok");
}

const SPEC: Spec = Spec {
    usage: "usage: dar-loop [--rounds N] [--wave N] [--seed N] [--out DIR]\n\
            \x20       [--state-dir DIR [--recover]]\n\
            \x20       --drill --state-dir DIR [--rounds N] [--round-delay-ms D] [--recover]",
    valued: &[
        "--rounds",
        "--wave",
        "--seed",
        "--out",
        "--state-dir",
        "--round-delay-ms",
    ],
    switches: &["--drill", "--recover"],
    positionals: 0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    checked(&args, &SPEC);
    if bool_flag(&args, "--drill") {
        drill_main(&args);
        return;
    }
    let rounds = flag(&args, "--rounds").unwrap_or(3);
    let wave = flag(&args, "--wave").unwrap_or(16);
    let seed = flag(&args, "--seed").unwrap_or(42);
    let out_dir = flag(&args, "--out").unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&out_dir).expect("creating output dir");
    let recover = bool_flag(&args, "--recover");

    // Optional durable journal: verdicts WAL-committed before effect.
    let mut durable = flag::<PathBuf>(&args, "--state-dir").map(|dir| {
        if !recover {
            std::fs::remove_dir_all(&dir).ok();
        }
        let (state, recovery) =
            DurableState::open(Arc::new(RealStorage), &dir).expect("opening durable state dir");
        eprintln!(
            "[dar-loop] durable state: {} records, generation {}, resume round {}",
            recovery.records.len(),
            recovery.generation,
            recovery.resume_round,
        );
        state
    });

    // Base dataset: serving traffic + the incumbent's training set.
    let synth = SynthConfig {
        n_train: 128,
        n_dev: 32,
        n_test: 64,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(seed));
    let cfg = RationaleConfig {
        emb_dim: 16,
        hidden: 24,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(&data);
    let vocab = data.vocab.len();

    // Incumbent: recovered from the durable journal when possible, else
    // one trained epoch, hot-swapped in before the loop runs, so
    // candidates have a real bar to clear.
    let recovered_incumbent = durable
        .as_ref()
        .filter(|_| recover)
        .and_then(|st| st.incumbent_path());
    let incumbent_path = match &recovered_incumbent {
        Some(p) => {
            eprintln!(
                "[dar-loop] republishing recovered incumbent {}",
                p.display()
            );
            p.clone()
        }
        None => {
            eprintln!("[dar-loop] training the incumbent...");
            let path = out_dir.join("loop_incumbent.ckpt");
            let mut rng = dar::rng(seed + 1);
            let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
            let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
            let mut rng = dar::rng(seed + 2);
            let report = Trainer::new(TrainConfig {
                epochs: 1,
                batch_size: 32,
                patience: None,
                ..Default::default()
            })
            .fit(&mut model, &data, &mut rng);
            eprintln!(
                "[dar-loop] incumbent: acc {:.1}%  rationale F1 {:.1}%",
                report.test.acc.unwrap_or(0.0) * 100.0,
                report.test.f1 * 100.0
            );
            serial::save_checkpoint_path(&path, &Checkpoint::new(model.params(), Vec::new()))
                .expect("saving incumbent checkpoint");
            path
        }
    };

    let factory: dar::serve::ModelFactory = Arc::new(move || {
        let mut rng = dar::rng(seed + 1);
        let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
        Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
    });
    let serve_cfg = ServeConfig {
        vocab_size: vocab,
        max_len: ml,
        ..ServeConfig::default()
    };
    let n_replicas = serve_cfg.effective_replicas();
    let server = Server::start(serve_cfg, Arc::clone(&factory));
    let incumbent_version = server
        .offer_checkpoint(&incumbent_path)
        .expect("incumbent checkpoint accepted");
    eprintln!(
        "[dar-loop] serving with {n_replicas} replicas, incumbent v{incumbent_version} \
         (DAR_THREADS budget {})",
        dar_par::max_threads()
    );

    // Background trainer on a streaming feed (poison every 9th review to
    // exercise feed admission), resuming at the journal's cursor when
    // recovering so completed rounds are never re-trained.
    let first_round = durable.as_ref().map_or(0, |st| st.resume_round());
    let trainer_cfg = OnlineTrainerConfig {
        rounds,
        first_round,
        epochs_per_round: 2,
        batch_size: 32,
        vocab_size: vocab,
        max_len: ml,
        candidate_dir: out_dir.clone(),
        seed: seed + 3,
        resume_from: recovered_incumbent.clone(),
        panic_at_round: None,
    };
    let feed = FeedConfig {
        synth: SynthConfig {
            n_train: 96,
            ..synth
        },
        seed: seed + 4,
        poison_every: Some(9),
    };
    let (trainer, candidates) = spawn_online_trainer(trainer_cfg, Arc::clone(&factory), feed);

    let loop_cfg = OnlineLoopConfig {
        policy: CanaryPolicy {
            window: 40,
            ..CanaryPolicy::default()
        },
        wave,
        max_waves: 64,
    };
    let traffic: Vec<Review> = data.test.clone();
    let started = Instant::now();
    let report = run_online_loop(&server, &candidates, &traffic, &loop_cfg, durable.as_mut());
    let elapsed = started.elapsed();
    trainer.join().expect("joining the trainer thread");

    let served: u64 = report.rounds.iter().map(|r| r.served_ok).sum();
    let failed: u64 = report.rounds.iter().map(|r| r.failed).sum();
    for r in &report.rounds {
        match (&r.outcome, &r.note) {
            (Some(o), _) => eprintln!(
                "[dar-loop] round {}: v{} {:?} (cand acc {:.1}% vs inc {:.1}%)",
                r.round,
                o.version,
                o.phase,
                o.snapshot.candidate.accuracy() * 100.0,
                o.snapshot.incumbent.accuracy() * 100.0,
            ),
            (None, Some(note)) => eprintln!("[dar-loop] round {}: {note}", r.round),
            _ => {}
        }
    }
    let candidates_seen = report.rounds.iter().filter(|r| r.outcome.is_some()).count();
    let stats = server.shutdown();

    let throughput = served as f64 / elapsed.as_secs_f64().max(1e-9);
    let summary = format!(
        "dar-loop bench — {rounds} rounds, {n_replicas} replicas, seed {seed}\n\
         candidates canaried:    {candidates_seen}\n\
         promoted:               {p}\n\
         rolled back:            {rb}\n\
         offers rejected:        {orej}\n\
         served / failed:        {served} / {failed}\n\
         final weights version:  v{fv}\n\
         throughput:             {tp:.1} req/s\n\
         latency p50 / p99:      {p50} / {p99} us\n",
        p = report.promoted,
        rb = report.rolled_back,
        orej = report.offers_rejected,
        fv = report.final_version,
        tp = throughput,
        p50 = stats.p50_us,
        p99 = stats.p99_us,
    );
    print!("{summary}");
    std::fs::write(out_dir.join("loop_bench.txt"), &summary).expect("writing loop_bench.txt");

    let json = format!(
        "{{\"rounds\": {rounds}, \"workers\": {n_replicas}, \"seed\": {seed}, \
          \"candidates\": {candidates_seen}, \"promoted\": {}, \"rolled_back\": {}, \
          \"offers_rejected\": {}, \"served\": {served}, \"failed\": {failed}, \
          \"final_version\": {}, \"trainer_died\": {}, \
          \"throughput_rps\": {throughput:.2}, \"p50_us\": {}, \"p99_us\": {}}}\n",
        report.promoted,
        report.rolled_back,
        report.offers_rejected,
        report.final_version,
        report.trainer_died,
        stats.p50_us,
        stats.p99_us,
    );
    std::fs::write(out_dir.join("BENCH_online.json"), json).expect("writing BENCH_online.json");

    match dar::obs::write_snapshot(&out_dir, "online") {
        Ok(p) => eprintln!("[dar-loop] obs snapshot: {}", p.display()),
        Err(e) => eprintln!("[dar-loop] obs snapshot failed: {e}"),
    }

    // Healthy: every request resolved, the trainer survived, every round
    // reached a verdict, and no verdict displaced the incumbent with a
    // worse model (a promotion must have cleared the accuracy bar).
    let verdicts_sound = report.rounds.iter().all(|r| match &r.outcome {
        Some(o) if o.phase == PromotionPhase::Promoted => {
            o.snapshot.candidate.accuracy() + loop_cfg.policy.max_acc_drop
                >= o.snapshot.incumbent.accuracy()
        }
        _ => true,
    });
    let healthy = failed == 0
        && !report.trainer_died
        && candidates_seen == rounds
        && verdicts_sound
        && stats.panics == 0;
    if recovered_incumbent.is_none() {
        std::fs::remove_file(&incumbent_path).ok();
    }
    if !healthy {
        eprintln!("[dar-loop] UNHEALTHY run — see counters above");
        std::process::exit(1);
    }
    eprintln!("[dar-loop] ok");
}
