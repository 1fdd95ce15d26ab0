//! Chaos suite for the closed online loop (DESIGN.md §13): canary
//! evaluation, atomic promotion, auto-rollback, and the train-while-serve
//! controller.
//!
//! The invariants under test:
//!
//! * **The incumbent is never displaced by a worse model** — a candidate
//!   that regresses accuracy, answers degraded/non-finite, or fails CRC
//!   validation is rolled back (or rejected at the door) while the
//!   incumbent keeps serving on its own weights.
//! * **Rollback drops nothing** — every request in flight across a
//!   rollback resolves to exactly one outcome; `ServeError::Lost` is
//!   never observed.
//! * **The promotion journal is deterministic** — the event sequence in
//!   the obs deterministic section is a pure function of the inputs.
//!   The golden byte-compares below hold under any `DAR_THREADS`; CI
//!   runs this binary under `=1` and `=4`.
//! * **Trainer failure is a message, not a fault** — a trainer panic
//!   mid-epoch surfaces as `TrainerDied` and leaves serving untouched.

use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use dar::core::guard::GuardPolicy;
use dar::core::stream::{spawn_online_trainer, CandidateMsg, FeedConfig, OnlineTrainerConfig};
use dar::data::Review;
use dar::prelude::*;
use dar::serve::{
    decide, run_online_loop, BreakerPolicy, BreakerState, CanaryDecision, CanaryOutcome,
    CanaryPolicy, OnlineLoopConfig, PromotionPhase, RollbackCause, ServeConfig, Server,
};
use dar::store::{DurableState, FaultyStorage, RealStorage, StorageFaultPlan};
use dar::tensor::serial::{self, Checkpoint};
use dar::tensor::{DarError, DarResult};

/// The obs registry is process-global and cargo runs `#[test]`s of one
/// binary concurrently; every test takes this lock and resets.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dar_online_{name}_{}", std::process::id()));
    p
}

/// Guards wide open so clean traffic never degrades and the journal
/// carries only promotion events.
fn open_policy() -> GuardPolicy {
    GuardPolicy {
        spike_sigmas: f32::INFINITY,
        collapse_low: -1.0,
        collapse_high: 2.0,
        ..GuardPolicy::default()
    }
}

struct Fixture {
    data: AspectDataset,
    cfg: RationaleConfig,
    vocab: usize,
    ml: usize,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let synth = SynthConfig {
            n_train: 96,
            n_dev: 24,
            n_test: 32,
            ..SynthConfig::beer(Aspect::Aroma)
        };
        let data = SynBeer::generate(&synth, &mut dar::rng(seed));
        let cfg = RationaleConfig {
            emb_dim: 12,
            hidden: 12,
            sparsity: 0.16,
            ..Default::default()
        };
        let vocab = data.vocab.len();
        let ml = pretrain::max_len(&data);
        Fixture {
            data,
            cfg,
            vocab,
            ml,
        }
    }

    /// Deterministic factory: every replica is the same random-init model.
    fn factory(&self) -> dar::serve::ModelFactory {
        let cfg = self.cfg;
        let vocab = self.vocab;
        let ml = self.ml;
        Arc::new(move || {
            let mut rng = dar::rng(603);
            let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
            Box::new(Rnp::new(&cfg, &emb, ml, &mut rng))
        })
    }

    /// Open collapse band, generous queue: clean traffic is never
    /// degraded, shed, or bounced, so canary verdicts only reflect the
    /// models under comparison.
    fn serve_cfg(&self, replicas: usize) -> ServeConfig {
        ServeConfig {
            replicas,
            queue_cap: 256,
            vocab_size: self.vocab,
            max_len: self.ml,
            breaker: BreakerPolicy {
                collapse: open_policy(),
                ..BreakerPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    /// A model that answers `label` for *every* input: all weights
    /// zeroed except the 2-way head biases, steered hard toward that
    /// class. On label-1-only traffic the two variants score exactly 1.0
    /// and 0.0 — margins in these tests are structural, not a bet on
    /// what a few epochs of training happen to learn at test scale.
    fn biased_checkpoint(&self, name: &str, label: usize) -> std::path::PathBuf {
        let model = (self.factory())();
        let bias = if label == 1 { [0.0, 8.0] } else { [8.0, 0.0] };
        let mut biased = 0;
        for p in model.params() {
            let n = p.len();
            if n == 2 {
                p.set_values(bias.to_vec());
                biased += 1;
            } else {
                p.set_values(vec![0.0; n]);
            }
        }
        assert!(biased > 0, "expected a 2-way head bias to steer");
        let path = tmpfile(name);
        serial::save_checkpoint_path(&path, &Checkpoint::new(model.params(), Vec::new()))
            .expect("saving biased checkpoint");
        path
    }

    /// A same-shaped checkpoint with every parameter set to `value` —
    /// useful as valid checkpoint bytes (CRC test) or, with a non-finite
    /// `value`, as a numerically poisoned candidate.
    fn constant_checkpoint(&self, name: &str, value: f32) -> std::path::PathBuf {
        let model = (self.factory())();
        for p in model.params() {
            let n = p.len();
            p.set_values(vec![value; n]);
        }
        let path = tmpfile(name);
        serial::save_checkpoint_path(&path, &Checkpoint::new(model.params(), Vec::new()))
            .expect("saving constant checkpoint");
        path
    }

    fn clean(&self, i: usize) -> Review {
        self.data.test[i % self.data.test.len()].clone()
    }

    /// The label-1 half of the test split — the traffic that makes the
    /// label-one/constant model pair a structural 1.0-vs-0.0 contrast.
    fn ones(&self) -> Vec<Review> {
        let ones: Vec<Review> = self
            .data
            .test
            .iter()
            .filter(|r| r.label == 1)
            .cloned()
            .collect();
        assert!(!ones.is_empty());
        ones
    }
}

/// Submit traffic strictly sequentially (submit, wait, next — so batch
/// composition and routing are reproducible) until the canary reaches a
/// verdict.
fn drive_until_verdict(server: &Server, traffic: &[Review], cursor: &mut usize) -> CanaryOutcome {
    for _ in 0..4000 {
        let out = server
            .submit(traffic[*cursor % traffic.len()].clone())
            .wait()
            .expect("clean traffic serves");
        assert!(out.label < 2);
        *cursor += 1;
        if let Some(outcome) = server.try_conclude_canary() {
            return outcome;
        }
    }
    panic!("canary never filled its window");
}

fn events_section(det: &str) -> &str {
    let start = det.find("\"events\":").expect("snapshot has events");
    &det[start..]
}

/// A candidate that genuinely beats the incumbent is promoted, the swap
/// is atomic, and the promotion journal is byte-for-byte the golden
/// sequence — the determinism CI re-asserts under `DAR_THREADS=1` and
/// `=4`.
#[test]
fn better_candidate_is_promoted_with_golden_journal() {
    let _g = obs_lock();
    let fx = Fixture::new(600);
    // Build the candidate *before* the obs reset so the journal holds
    // promotion events only.
    let ckpt = fx.biased_checkpoint("promote", 1);
    let traffic = fx.ones();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    assert_eq!(server.weights_version(), 1);
    let policy = CanaryPolicy {
        window: 20,
        max_f1_drop: 1.0, // accuracy is the gate under test
        ..CanaryPolicy::default()
    };
    let version = server.begin_canary(&ckpt, policy).expect("canary begins");
    assert_eq!(version, 2);

    let mut cursor = 0;
    let outcome = drive_until_verdict(&server, &traffic, &mut cursor);
    assert_eq!(outcome.phase, PromotionPhase::Promoted);
    assert_eq!(outcome.version, 2);
    assert_eq!(
        outcome.snapshot.candidate.accuracy(),
        1.0,
        "the label-one candidate is exact on label-1 traffic"
    );
    assert_eq!(outcome.snapshot.candidate.degraded, 0);
    assert_eq!(outcome.snapshot.candidate.errors, 0);

    // The promotion is visible: the next answer carries the new version.
    let out = server
        .submit(traffic[cursor % traffic.len()].clone())
        .wait()
        .expect("serves");
    assert_eq!(out.weights_version, 2);
    assert_eq!(server.weights_version(), 2);
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert_eq!(
        events_section(&det),
        "\"events\":[\
         {\"seq\":0,\"kind\":\"canary_started\",\"version\":2},\
         {\"seq\":1,\"kind\":\"weights_swapped\",\"version\":2},\
         {\"seq\":2,\"kind\":\"candidate_promoted\",\"version\":2}],\
         \"events_dropped\":0}",
        "full deterministic section: {det}"
    );
    std::fs::remove_file(ckpt).ok();
}

/// A regressing candidate (answers label 0 on label-1 traffic) is rolled
/// back with cause `accuracy_regressed`; the incumbent is never
/// displaced and the journal is golden.
#[test]
fn regressing_candidate_is_rolled_back_with_golden_journal() {
    let _g = obs_lock();
    let fx = Fixture::new(610);
    let good = fx.biased_checkpoint("rb_good", 1);
    let bad = fx.biased_checkpoint("rb_bad", 0);
    let traffic = fx.ones();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    // Install the exact model the plain way first, so the incumbent has
    // a structural margin over the constant candidate.
    assert_eq!(server.offer_checkpoint(&good).expect("good offer"), 2);
    let policy = CanaryPolicy {
        window: 20,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&bad, policy).expect("begins"), 3);

    let mut cursor = 0;
    let outcome = drive_until_verdict(&server, &traffic, &mut cursor);
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);
    assert_eq!(outcome.cause, Some(RollbackCause::AccuracyRegressed));
    assert_eq!(outcome.snapshot.candidate.accuracy(), 0.0);
    assert_eq!(outcome.snapshot.incumbent.accuracy(), 1.0);

    // Rollback is the absence of a swap: the incumbent serves on.
    let out = server
        .submit(traffic[cursor % traffic.len()].clone())
        .wait()
        .expect("serves");
    assert_eq!(out.weights_version, 2);
    assert_eq!(server.weights_version(), 2);
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert_eq!(
        events_section(&det),
        "\"events\":[\
         {\"seq\":0,\"kind\":\"weights_swapped\",\"version\":2},\
         {\"seq\":1,\"kind\":\"canary_started\",\"version\":3},\
         {\"seq\":2,\"kind\":\"candidate_rolled_back\",\"version\":3,\
           \"cause\":\"accuracy_regressed\"}],\
         \"events_dropped\":0}",
        "full deterministic section: {det}"
    );
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

/// A numerically poisoned candidate (NaN weights) answers its slice
/// degraded; the fault gate rolls it back before accuracy is even
/// consulted, and the incumbent arm never degrades.
#[test]
fn nan_candidate_is_rolled_back_for_faults() {
    let _g = obs_lock();
    let fx = Fixture::new(620);
    let bad = fx.constant_checkpoint("nan", f32::NAN);
    dar::obs::reset();
    dar::obs::set_enabled(true);

    // Degraded canary batches count as full-path failures in the
    // breaker; hold its thresholds far out of reach so the incumbent's
    // service mode is untouched by the candidate's sickness.
    let cfg = ServeConfig {
        breaker: BreakerPolicy {
            failure_threshold: 10_000,
            collapse: open_policy(),
            ..BreakerPolicy::default()
        },
        ..fx.serve_cfg(1)
    };
    let server = Server::start(cfg, fx.factory());
    let policy = CanaryPolicy {
        window: 16,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&bad, policy).expect("begins"), 2);

    let mut cursor = 0;
    let traffic = fx.data.test.clone();
    let outcome = drive_until_verdict(&server, &traffic, &mut cursor);
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);
    assert_eq!(outcome.cause, Some(RollbackCause::CandidateFaults));
    assert!(
        outcome.snapshot.candidate.degraded > 0,
        "the NaN slice must have been answered degraded"
    );
    assert_eq!(
        outcome.snapshot.incumbent.degraded, 0,
        "the incumbent arm stayed on the full path"
    );
    assert_eq!(server.breaker_state(), BreakerState::Closed);

    // Post-rollback service is full-path on the incumbent weights.
    let out = server.submit(fx.clean(cursor)).wait().expect("serves");
    assert!(!out.degraded);
    assert_eq!(out.weights_version, 1);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(
        det.contains(
            "\"kind\":\"candidate_rolled_back\",\"version\":2,\"cause\":\"candidate_faults\""
        ),
        "journal: {det}"
    );
    std::fs::remove_file(bad).ok();
}

/// A bit-flipped candidate never reaches the canary slot: `begin_canary`
/// fails CRC validation, journals a typed `offer_rejected`, and the slot
/// stays free for the next (valid) candidate.
#[test]
fn corrupt_candidate_is_rejected_at_the_door() {
    let _g = obs_lock();
    let fx = Fixture::new(630);
    let good = fx.biased_checkpoint("crc_good", 1);
    let bad = fx.constant_checkpoint("crc_bad", 0.05);
    dar::core::fault::corrupt_bitflip(&bad, 9).expect("flipping a byte");
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    let policy = CanaryPolicy {
        window: 8,
        max_acc_drop: 1.0,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert!(server.begin_canary(&bad, policy.clone()).is_err());
    assert_eq!(server.weights_version(), 1, "rejection changes nothing");

    // Serving never blinked, and the slot is free for a valid candidate.
    let out = server.submit(fx.clean(0)).wait().expect("serves");
    assert_eq!(out.weights_version, 1);
    assert_eq!(server.begin_canary(&good, policy).expect("valid begins"), 2);
    server.abort_canary();
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(
        det.contains("\"kind\":\"offer_rejected\",\"cause\":\"crc_mismatch\""),
        "journal: {det}"
    );
    assert!(
        det.contains("\"cause\":\"aborted\""),
        "the aborted canary is journaled as a rollback: {det}"
    );
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

/// A concurrent burst spanning a rollback: every ticket in flight across
/// the verdict resolves (zero `Lost`), and requests claimed after the
/// rollback serve on the incumbent weights.
#[test]
fn burst_spanning_rollback_drops_nothing() {
    let _g = obs_lock();
    let fx = Fixture::new(640);
    let bad = fx.biased_checkpoint("burst_bad", 0);
    let good = fx.biased_checkpoint("burst_good", 1);
    let traffic = fx.ones();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let cfg = ServeConfig {
        max_batch: 4,
        ..fx.serve_cfg(2)
    };
    let server = Server::start(cfg, fx.factory());
    assert_eq!(server.offer_checkpoint(&good).expect("good offer"), 2);
    let policy = CanaryPolicy {
        window: 16,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&bad, policy).expect("begins"), 3);

    // Fire the whole burst without waiting, then poll for the verdict
    // while requests are still in flight.
    let tickets: Vec<_> = (0..96)
        .map(|i| server.submit(traffic[i % traffic.len()].clone()))
        .collect();
    let mut outcome = None;
    for _ in 0..20_000 {
        if let Some(o) = server.try_conclude_canary() {
            outcome = Some(o);
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let mut cursor = 96;
    let outcome = match outcome {
        Some(o) => o,
        // The burst drained before the window filled — finish the canary
        // with sequential traffic; the burst tickets are already settled.
        None => drive_until_verdict(&server, &traffic, &mut cursor),
    };
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);

    let mut ok = 0;
    for t in tickets {
        let out = t.wait().expect("no burst request may fail");
        assert!(out.weights_version == 2 || out.weights_version == 3);
        ok += 1;
    }
    assert_eq!(ok, 96, "every in-flight request resolved across rollback");

    // After the rollback, new traffic is all-incumbent.
    let out = server
        .submit(traffic[cursor % traffic.len()].clone())
        .wait()
        .expect("serves");
    assert_eq!(out.weights_version, 2);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

/// The promotion verdict journal is a pure function of the traffic and
/// the candidate — not of the replica count. A full promotion round at 4
/// replicas must produce byte-identical journal events to the 1-replica
/// golden run: sequential traffic all routes to tenant 0's home shard,
/// never crosses the steal threshold, and verdict events are emitted
/// from the driving thread.
#[test]
fn promotion_journal_is_replica_count_invariant() {
    let _g = obs_lock();
    let fx = Fixture::new(670);
    let ckpt = fx.biased_checkpoint("inv", 1);
    let traffic = fx.ones();

    let run = |replicas: usize| -> String {
        dar::obs::reset();
        dar::obs::set_enabled(true);
        let server = Server::start(fx.serve_cfg(replicas), fx.factory());
        let policy = CanaryPolicy {
            window: 20,
            max_f1_drop: 1.0,
            ..CanaryPolicy::default()
        };
        assert_eq!(server.begin_canary(&ckpt, policy).expect("begins"), 2);
        let mut cursor = 0;
        let outcome = drive_until_verdict(&server, &traffic, &mut cursor);
        assert_eq!(outcome.phase, PromotionPhase::Promoted);
        let stats = server.shutdown();
        assert_eq!(stats.steals, 0, "sequential traffic must never steal");
        let det = dar::obs::snapshot("loop").deterministic_json();
        events_section(&det).to_owned()
    };

    let golden = run(1);
    let scaled = run(4);
    assert_eq!(
        golden, scaled,
        "the promotion journal diverged across replica counts"
    );
    assert!(
        golden.contains("\"kind\":\"candidate_promoted\",\"version\":2"),
        "journal: {golden}"
    );
    std::fs::remove_file(ckpt).ok();
}

/// A trainer panic mid-epoch surfaces as a `TrainerDied` message through
/// the candidate channel; the serving side records it and keeps serving.
#[test]
fn trainer_panic_leaves_serving_untouched() {
    let _g = obs_lock();
    let fx = Fixture::new(650);
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let dir = tmpfile("panic_dir");
    std::fs::create_dir_all(&dir).expect("candidate dir");
    let trainer_cfg = OnlineTrainerConfig {
        rounds: 3,
        first_round: 0,
        epochs_per_round: 1,
        batch_size: 16,
        vocab_size: fx.vocab,
        max_len: fx.ml,
        candidate_dir: dir.clone(),
        seed: 651,
        resume_from: None,
        panic_at_round: Some(1),
    };
    let feed = FeedConfig {
        synth: SynthConfig {
            n_train: 48,
            ..SynthConfig::beer(Aspect::Aroma)
        },
        seed: 652,
        poison_every: None,
    };
    let (trainer, candidates) = spawn_online_trainer(trainer_cfg, fx.factory(), feed);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    let loop_cfg = OnlineLoopConfig {
        policy: CanaryPolicy {
            window: 8,
            max_acc_drop: 1.0,
            max_f1_drop: 1.0,
            max_candidate_faults: 10_000,
            ..CanaryPolicy::default()
        },
        wave: 8,
        max_waves: 64,
    };
    let report = run_online_loop(&server, &candidates, &fx.data.test, &loop_cfg, None);
    trainer.join().expect("the panic was caught inside");

    assert!(report.trainer_died, "the death must surface as a message");
    let verdicts = report.rounds.iter().filter(|r| r.outcome.is_some()).count();
    assert_eq!(verdicts, 1, "round 0 completed before the panic");
    let failed: u64 = report.rounds.iter().map(|r| r.failed).sum();
    assert_eq!(failed, 0, "serving is untouched by the trainer's death");

    // Liveness after the death, directly.
    let out = server.submit(fx.clean(0)).wait().expect("still serving");
    assert!(out.label < 2);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0, "the panic stayed in the trainer thread");

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(det.contains("\"loop.trainer_deaths\":1"), "journal: {det}");
    std::fs::remove_dir_all(dir).ok();
}

/// End-to-end closed loop: a background trainer on a poisoned streaming
/// feed produces candidates; every round reaches a verdict, feed
/// admission filters the poison, and nothing is dropped.
#[test]
fn closed_loop_survives_a_poisoned_feed() {
    let _g = obs_lock();
    let fx = Fixture::new(660);
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let dir = tmpfile("loop_dir");
    std::fs::create_dir_all(&dir).expect("candidate dir");
    let trainer_cfg = OnlineTrainerConfig {
        rounds: 2,
        first_round: 0,
        epochs_per_round: 1,
        batch_size: 16,
        vocab_size: fx.vocab,
        max_len: fx.ml,
        candidate_dir: dir.clone(),
        seed: 661,
        resume_from: None,
        panic_at_round: None,
    };
    let feed = FeedConfig {
        synth: SynthConfig {
            n_train: 48,
            ..SynthConfig::beer(Aspect::Aroma)
        },
        seed: 662,
        poison_every: Some(4),
    };
    let (trainer, candidates) = spawn_online_trainer(trainer_cfg, fx.factory(), feed);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    let loop_cfg = OnlineLoopConfig {
        policy: CanaryPolicy {
            window: 12,
            max_acc_drop: 1.0,
            max_f1_drop: 1.0,
            max_candidate_faults: 10_000,
            ..CanaryPolicy::default()
        },
        wave: 12,
        max_waves: 64,
    };
    let report = run_online_loop(&server, &candidates, &fx.data.test, &loop_cfg, None);
    trainer.join().expect("trainer exits cleanly");

    assert!(!report.trainer_died);
    assert_eq!(report.rounds.len(), 2);
    assert!(
        report.rounds.iter().all(|r| r.outcome.is_some()),
        "every round reaches a verdict: {report:?}"
    );
    assert_eq!(report.promoted + report.rolled_back, 2);
    let failed: u64 = report.rounds.iter().map(|r| r.failed).sum();
    assert_eq!(failed, 0);
    // With an all-tolerant policy every candidate promotes, and the
    // final generation is the last candidate's.
    assert_eq!(report.promoted, 2);
    assert_eq!(report.final_version, 3);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 0);

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(det.contains("\"loop.candidates\":2"), "journal: {det}");
    assert!(
        det.contains("\"loop.feed_rejected\""),
        "poison was injected and filtered: {det}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A durability pre-commit hook whose journal never commits.
fn failing_journal(_: &CanaryDecision) -> DarResult<()> {
    Err(DarError::InvalidData("journal unavailable".into()))
}

/// Drive sequential traffic until the verdict is due and settle it
/// through [`failing_journal`].
fn conclude_with_a_failing_journal(server: &Server, traffic: &[Review]) -> CanaryOutcome {
    for i in 0..4000 {
        server
            .submit(traffic[i % traffic.len()].clone())
            .wait()
            .expect("clean traffic serves");
        if let Some(outcome) = server.try_conclude_canary_with(failing_journal) {
            return outcome;
        }
    }
    panic!("canary never filled its window");
}

/// A promotion whose durable record cannot commit must not happen: the
/// server vetoes it into a `durability_failed` rollback, the incumbent
/// keeps serving, and no swap is journaled.
#[test]
fn failed_durable_record_vetoes_a_promotion() {
    let _g = obs_lock();
    let fx = Fixture::new(600);
    let ckpt = fx.biased_checkpoint("veto_promote", 1);
    let traffic = fx.ones();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    let policy = CanaryPolicy {
        window: 20,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert_eq!(
        server.begin_canary(&ckpt, policy.clone()).expect("begins"),
        2
    );
    let outcome = conclude_with_a_failing_journal(&server, &traffic);
    assert_eq!(
        decide(&policy, &outcome.snapshot),
        Ok(()),
        "the verdict itself was a promotion"
    );
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);
    assert_eq!(outcome.cause, Some(RollbackCause::DurabilityFailed));
    assert_eq!(outcome.version, 2);
    assert!(server.canary_snapshot().is_none(), "the run is settled");

    let out = server.submit(traffic[0].clone()).wait().expect("serves");
    assert_eq!(out.weights_version, 1, "the incumbent was never displaced");
    assert_eq!(server.weights_version(), 1);
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert_eq!(
        events_section(&det),
        "\"events\":[\
         {\"seq\":0,\"kind\":\"canary_started\",\"version\":2},\
         {\"seq\":1,\"kind\":\"candidate_rolled_back\",\"version\":2,\
           \"cause\":\"durability_failed\"}],\
         \"events_dropped\":0}",
        "full deterministic section: {det}"
    );
    std::fs::remove_file(ckpt).ok();
}

/// A failed durable record vetoes promotions only: a rollback verdict
/// keeps its own cause.
#[test]
fn failed_durable_record_keeps_a_rollbacks_own_cause() {
    let _g = obs_lock();
    let fx = Fixture::new(610);
    let good = fx.biased_checkpoint("veto_good", 1);
    let bad = fx.biased_checkpoint("veto_bad", 0);
    let traffic = fx.ones();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    assert_eq!(server.offer_checkpoint(&good).expect("good offer"), 2);
    let policy = CanaryPolicy {
        window: 20,
        max_f1_drop: 1.0,
        ..CanaryPolicy::default()
    };
    assert_eq!(server.begin_canary(&bad, policy).expect("begins"), 3);
    let outcome = conclude_with_a_failing_journal(&server, &traffic);
    assert_eq!(outcome.phase, PromotionPhase::RolledBack);
    assert_eq!(outcome.cause, Some(RollbackCause::AccuracyRegressed));
    assert_eq!(server.weights_version(), 2);
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(
        det.contains(
            "\"kind\":\"candidate_rolled_back\",\"version\":3,\"cause\":\"accuracy_regressed\""
        ),
        "journal: {det}"
    );
    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

/// The WAL append is a promotion's commit point (DESIGN.md §15): a
/// manifest swap that fails after it leaves the promotion standing. The
/// durable loop reports `Promoted`, the candidate serves, and a reopen
/// rolls the manifest forward to the committed generation.
#[test]
fn durable_promotion_survives_a_failed_manifest_swap() {
    let _g = obs_lock();
    let fx = Fixture::new(600);
    let ckpt = fx.biased_checkpoint("swapfail_cand", 1);
    let traffic = fx.ones();
    let dir = tmpfile("swapfail_state");
    std::fs::remove_dir_all(&dir).ok();
    dar::obs::reset();
    dar::obs::set_enabled(true);

    // Rename 0 lands the incumbent copy; rename 1 is the manifest swap,
    // after the WAL append has committed the promotion.
    let storage = Arc::new(FaultyStorage::new(StorageFaultPlan {
        fail_rename_at: Some(1),
        ..StorageFaultPlan::default()
    }));
    let (mut state, _) = DurableState::open(storage, &dir).expect("opening state");
    let (tx, candidates) = mpsc::channel();
    tx.send(CandidateMsg::Candidate {
        round: 0,
        path: ckpt.clone(),
        trained_on: 0,
        rejected: 0,
    })
    .unwrap();
    tx.send(CandidateMsg::Finished).unwrap();

    let server = Server::start(fx.serve_cfg(1), fx.factory());
    let loop_cfg = OnlineLoopConfig {
        policy: CanaryPolicy {
            window: 20,
            max_f1_drop: 1.0,
            ..CanaryPolicy::default()
        },
        wave: 8,
        max_waves: 64,
    };
    let report = run_online_loop(&server, &candidates, &traffic, &loop_cfg, Some(&mut state));
    assert_eq!(report.promoted, 1, "{report:?}");
    let outcome = report.rounds[0].outcome.as_ref().expect("a verdict");
    assert_eq!(outcome.phase, PromotionPhase::Promoted);
    assert_eq!(state.generation(), 1);
    let out = server.submit(traffic[0].clone()).wait().expect("serves");
    assert_eq!(out.weights_version, 2, "the candidate serves");
    server.shutdown();

    let det = dar::obs::snapshot("loop").deterministic_json();
    assert!(
        det.contains("\"store.manifest_swap_failed\":1"),
        "the swap failure stays visible: {det}"
    );
    drop(state);
    let (state, recovery) = DurableState::open(Arc::new(RealStorage), &dir).expect("reopening");
    assert!(recovery.rolled_forward);
    assert_eq!(state.generation(), 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(ckpt).ok();
}
