//! Streaming review feed + guarded background trainer for the online
//! loop (`dar-loop`).
//!
//! The feed generates an endless sequence of synthetic review chunks —
//! each chunk is a fresh `SynBeer::generate` draw under a per-round seed
//! derived from the feed seed, so the stream is reproducible and every
//! chunk shares the *same* vocabulary (the synthetic vocab is built from
//! the fixed domain lexicon, independent of the RNG), which keeps every
//! candidate checkpoint shape- and vocab-compatible with the serving
//! replicas. A chaos hook can poison the stream with malformed reviews;
//! the trainer filters them through the same typed admission check the
//! server uses ([`dar_data::Review::admissible`]).
//!
//! The trainer is guarded like a guarded [`crate::Trainer`] run, but
//! scoped to a round: it takes a [`RestorePoint`] before each round and
//! runs the guard's non-finite checks, and a round that produces a
//! non-finite loss or non-finite parameters is rolled back to that point
//! and reported as `Skipped` — a poisoned round can never become a
//! candidate checkpoint, nor steer later rounds through its Adam moments,
//! and the serving side additionally re-validates (CRC/shape) and
//! canaries whatever it is offered. Trainer panics are
//! caught at the thread boundary and surfaced as a `TrainerDied`
//! message: the background loop dying must never take serving with it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;

use dar_data::{BatchIter, Review, SynBeer, SynthConfig};
use dar_obs::ObsEvent;
use dar_tensor::serial::{self, Checkpoint};
use dar_tensor::Rng;

use crate::fault::malformed_review;
use crate::guard::{check_loss, check_params, GuardReason, RestorePoint};
use crate::models::{ModelFactory, RationaleModel};

/// Knobs for [`ReviewFeed`].
#[derive(Debug, Clone, Copy)]
pub struct FeedConfig {
    /// Chunk shape: `n_train` is the chunk size (`n_dev`/`n_test` are
    /// forced to 0).
    pub synth: SynthConfig,
    /// Stream seed; round `r` draws from `seed ^ (r · φ64)`.
    pub seed: u64,
    /// Chaos hook: replace every k-th review with a malformed one
    /// (out-of-vocabulary ids), exercising feed admission.
    pub poison_every: Option<usize>,
}

/// One chunk of the stream.
#[derive(Debug, Clone)]
pub struct FeedChunk {
    pub round: u64,
    pub reviews: Vec<Review>,
    /// How many reviews the poison hook replaced.
    pub poisoned: usize,
}

impl FeedChunk {
    /// Typed admission, mirroring the serving door: returns the reviews
    /// a server would accept and the count it would bounce.
    pub fn admit(&self, vocab_size: usize, max_len: usize) -> (Vec<Review>, usize) {
        let mut clean = Vec::with_capacity(self.reviews.len());
        let mut rejected = 0usize;
        for r in &self.reviews {
            if r.admissible(vocab_size, max_len).is_ok() {
                clean.push(r.clone());
            } else {
                rejected += 1;
            }
        }
        (clean, rejected)
    }
}

/// Deterministic infinite stream of synthetic review chunks.
pub struct ReviewFeed {
    cfg: FeedConfig,
    next_round: u64,
}

impl ReviewFeed {
    pub fn new(cfg: FeedConfig) -> Self {
        ReviewFeed { cfg, next_round: 0 }
    }

    /// A feed positioned at `round` — after crash recovery the cursor
    /// resumes where the durable journal says completed rounds end, and
    /// because every chunk is drawn from a per-round seed, the resumed
    /// stream is byte-identical to an uninterrupted one.
    pub fn starting_at(cfg: FeedConfig, round: u64) -> Self {
        ReviewFeed {
            cfg,
            next_round: round,
        }
    }

    pub fn next_chunk(&mut self) -> FeedChunk {
        let round = self.next_round;
        self.next_round += 1;
        let seed = self.cfg.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let synth = SynthConfig {
            n_dev: 0,
            n_test: 0,
            ..self.cfg.synth
        };
        let data = SynBeer::generate(&synth, &mut dar_tensor::rng(seed));
        let vocab = data.vocab.len();
        let mut reviews = data.train;
        let mut poisoned = 0usize;
        if let Some(k) = self.cfg.poison_every {
            if k > 0 {
                let mut i = k - 1;
                while i < reviews.len() {
                    reviews[i] = malformed_review(vocab, seed ^ i as u64);
                    poisoned += 1;
                    i += k;
                }
            }
        }
        FeedChunk {
            round,
            reviews,
            poisoned,
        }
    }
}

/// Knobs for [`OnlineTrainer`].
#[derive(Debug, Clone)]
pub struct OnlineTrainerConfig {
    /// Candidate rounds to produce before `Finished`.
    pub rounds: usize,
    /// First round number to train (0 for a fresh loop). After crash
    /// recovery this is the durable journal's resume round, so completed
    /// rounds are never re-trained or re-offered.
    pub first_round: usize,
    /// Passes over each chunk.
    pub epochs_per_round: usize,
    pub batch_size: usize,
    /// Admission bounds, mirroring the serving config.
    pub vocab_size: usize,
    pub max_len: usize,
    /// Where candidate checkpoints land (`candidate_r<round>.ckpt`).
    pub candidate_dir: PathBuf,
    /// Trainer RNG seed (batch shuffles, Gumbel noise). Each round uses
    /// `seed ^ (round · φ64)`, so a resumed trainer draws the same
    /// per-round randomness an uninterrupted one would.
    pub seed: u64,
    /// Warm-start the model from this checkpoint before the first round
    /// (recovery: the last durable incumbent or candidate). A load
    /// failure is journaled and training continues from fresh init —
    /// a stale checkpoint must not wedge the loop.
    pub resume_from: Option<PathBuf>,
    /// Chaos hook: panic at the start of this round, mid-"epoch" from
    /// the loop's perspective. Leave `None` in production.
    pub panic_at_round: Option<usize>,
}

/// One message from the trainer to the promotion controller.
#[derive(Debug)]
pub enum CandidateMsg {
    /// A round produced a candidate checkpoint at `path`.
    Candidate {
        round: usize,
        path: PathBuf,
        /// Admitted reviews the round trained on.
        trained_on: usize,
        /// Reviews the feed admission bounced (poisoned data).
        rejected: usize,
    },
    /// The round produced no candidate (guard rollback, empty chunk,
    /// checkpoint I/O failure); `cause` is a stable snake_case-ish tag.
    Skipped { round: usize, cause: String },
    /// The trainer thread panicked; no further candidates will come.
    TrainerDied { msg: String },
    /// All configured rounds completed.
    Finished,
}

/// The guarded background trainer. Synchronous by design — drive it
/// directly for deterministic tests, or hand it to
/// [`spawn_online_trainer`] for the real train-while-serve topology.
pub struct OnlineTrainer {
    cfg: OnlineTrainerConfig,
    feed: ReviewFeed,
    model: Box<dyn RationaleModel>,
}

impl OnlineTrainer {
    pub fn new(
        cfg: OnlineTrainerConfig,
        factory: &dyn Fn() -> Box<dyn RationaleModel>,
        feed: ReviewFeed,
    ) -> Self {
        let model = factory();
        if let Some(path) = &cfg.resume_from {
            if let Err(e) = serial::load_into(path, &model.params()) {
                dar_obs::event(ObsEvent::Custom {
                    kind: "trainer_resume_failed".into(),
                    detail: format!("{}: {e}", path.display()),
                });
            }
        }
        OnlineTrainer { cfg, feed, model }
    }

    /// Round-scoped RNG: `seed ^ (round · φ64)`, the same derivation the
    /// feed uses. Making the randomness a pure function of (seed, round)
    /// — instead of one RNG threaded across rounds — is what lets a
    /// recovered trainer resume mid-stream bit-identically.
    fn round_rng(&self, round: usize) -> Rng {
        dar_tensor::rng(self.cfg.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Consume one chunk, train on it, and either write a candidate
    /// checkpoint or roll the round back.
    pub fn train_round(&mut self, round: usize) -> CandidateMsg {
        let chunk = self.feed.next_chunk();
        let (clean, rejected) = chunk.admit(self.cfg.vocab_size, self.cfg.max_len);
        dar_obs::add("loop.feed_reviews", chunk.reviews.len() as u64);
        dar_obs::add("loop.feed_rejected", rejected as u64);
        if clean.is_empty() {
            return CandidateMsg::Skipped {
                round,
                cause: "empty_chunk".into(),
            };
        }

        // Round-scoped guard: any divergence rolls back to here — weights
        // and optimizer states — and the round yields no candidate.
        let mut rng = self.round_rng(round);
        let point = RestorePoint::take(self.model.as_ref(), &rng, ());
        if self.cfg.panic_at_round == Some(round) {
            panic!("online trainer chaos panic (round {round})");
        }
        if let Err(reason) = self.train_on(&clean, round, &mut rng) {
            // A failed optimizer restore skips the round with its own cause.
            let what = match reason {
                GuardReason::NonFiniteLoss { .. } => "non-finite loss",
                _ => "non-finite params",
            };
            let cause = match point.restore(self.model.as_mut(), &mut rng, 1.0) {
                Ok(()) => what.replace(['-', ' '], "_"),
                Err(e) => format!("optim_restore: {e}"),
            };
            let reason = format!("online: {what}");
            let epoch = round as u64;
            dar_obs::event(ObsEvent::GuardTripped { epoch, reason });
            return CandidateMsg::Skipped { round, cause };
        }

        let path = self
            .cfg
            .candidate_dir
            .join(format!("candidate_r{round}.ckpt"));
        match serial::save_checkpoint_path(&path, &Checkpoint::new(self.model.params(), Vec::new()))
        {
            Ok(()) => {
                dar_obs::inc("loop.candidates");
                CandidateMsg::Candidate {
                    round,
                    path,
                    trained_on: clean.len(),
                    rejected,
                }
            }
            Err(e) => CandidateMsg::Skipped {
                round,
                cause: format!("checkpoint_io: {e}"),
            },
        }
    }

    /// Train `epochs_per_round` passes over `reviews` under the guard's
    /// non-finite checks; `Err` names the check that tripped.
    fn train_on(
        &mut self,
        reviews: &[Review],
        round: usize,
        rng: &mut Rng,
    ) -> Result<(), GuardReason> {
        for _ in 0..self.cfg.epochs_per_round.max(1) {
            for (step, batch) in BatchIter::shuffled(reviews, self.cfg.batch_size, rng).enumerate()
            {
                check_loss(step, self.model.train_step(&batch, rng))?;
            }
        }
        check_params(self.model.as_ref(), round)
    }
}

/// Spawn the trainer on its own thread. Every round's outcome arrives on
/// the returned channel; a panic anywhere in training surfaces as
/// [`CandidateMsg::TrainerDied`] and the thread exits cleanly — serving
/// is structurally unaffected.
pub fn spawn_online_trainer(
    cfg: OnlineTrainerConfig,
    factory: ModelFactory,
    feed: FeedConfig,
) -> (JoinHandle<()>, mpsc::Receiver<CandidateMsg>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("dar-loop-trainer".into())
        .spawn(move || {
            let rounds = cfg.rounds;
            let first = cfg.first_round;
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                let mut trainer = OnlineTrainer::new(
                    cfg,
                    factory.as_ref(),
                    ReviewFeed::starting_at(feed, first as u64),
                );
                for round in first..first + rounds {
                    let msg = trainer.train_round(round);
                    if tx.send(msg).is_err() {
                        return; // controller gone; stop quietly
                    }
                }
                let _ = tx.send(CandidateMsg::Finished);
            }));
            if let Err(payload) = verdict {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                dar_obs::inc("loop.trainer_deaths");
                let _ = tx.send(CandidateMsg::TrainerDied { msg });
            }
        })
        .expect("spawning dar-loop trainer");
    (handle, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RationaleConfig;
    use crate::embedder::SharedEmbedding;
    use crate::fault::{FaultPlan, FaultyModel};
    use crate::models::Rnp;
    use dar_data::Aspect;

    fn feed_cfg(seed: u64, poison_every: Option<usize>) -> FeedConfig {
        FeedConfig {
            synth: SynthConfig {
                n_train: 24,
                ..SynthConfig::beer(Aspect::Aroma)
            },
            seed,
            poison_every,
        }
    }

    #[test]
    fn feed_is_deterministic_and_chunks_share_the_vocab() {
        let mut a = ReviewFeed::new(feed_cfg(7, None));
        let mut b = ReviewFeed::new(feed_cfg(7, None));
        let (c0a, c0b) = (a.next_chunk(), b.next_chunk());
        assert_eq!(c0a.reviews.len(), 24);
        assert_eq!(
            c0a.reviews[0].ids, c0b.reviews[0].ids,
            "same seed, same stream"
        );

        // Different rounds draw different reviews over the same vocab:
        // every id fits the vocab bound derived from any chunk's draw.
        let c1 = a.next_chunk();
        assert_ne!(c0a.reviews[0].ids, c1.reviews[0].ids, "rounds differ");
        let bound = SynBeer::generate(
            &SynthConfig {
                n_train: 1,
                n_dev: 0,
                n_test: 0,
                ..feed_cfg(7, None).synth
            },
            &mut dar_tensor::rng(999),
        )
        .vocab
        .len();
        for r in c0a.reviews.iter().chain(&c1.reviews) {
            assert!(r.ids.iter().all(|&id| id < bound), "vocab drifted");
        }
    }

    #[test]
    fn poison_is_injected_and_admission_filters_it() {
        let mut feed = ReviewFeed::new(feed_cfg(11, Some(4)));
        let chunk = feed.next_chunk();
        assert_eq!(chunk.poisoned, 6, "every 4th of 24 reviews poisoned");
        let vocab = SynBeer::generate(
            &SynthConfig {
                n_train: 1,
                n_dev: 0,
                n_test: 0,
                ..feed_cfg(11, None).synth
            },
            &mut dar_tensor::rng(999),
        )
        .vocab
        .len();
        let (clean, rejected) = chunk.admit(vocab, 512);
        assert_eq!(rejected, 6, "admission bounces exactly the poison");
        assert_eq!(clean.len(), 18);
        for r in &clean {
            assert!(r.admissible(vocab, 512).is_ok());
        }
    }

    /// Train rounds `first..first + rounds` with an 8-d RNP wrapped in
    /// `plan`, returning each round's message and its candidate's bytes.
    fn run_rounds(
        plan: FaultPlan,
        first: usize,
        rounds: usize,
        tag: &str,
    ) -> Vec<(CandidateMsg, Option<Vec<u8>>)> {
        let feed = feed_cfg(21, None);
        let vocab = SynBeer::generate(&feed.synth, &mut dar_tensor::rng(0))
            .vocab
            .len();
        let dir = std::env::temp_dir().join(format!("dar_stream_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let factory = move || -> Box<dyn RationaleModel> {
            let cfg = RationaleConfig {
                emb_dim: 8,
                hidden: 8,
                ..Default::default()
            };
            let mut rng = dar_tensor::rng(5);
            let emb = SharedEmbedding::random(vocab, cfg.emb_dim, &mut rng);
            Box::new(FaultyModel::new(Rnp::new(&cfg, &emb, 64, &mut rng), plan))
        };
        let cfg = OnlineTrainerConfig {
            rounds,
            first_round: first,
            epochs_per_round: 1,
            batch_size: 8,
            vocab_size: vocab,
            max_len: 64,
            candidate_dir: dir.clone(),
            seed: 9,
            resume_from: None,
            panic_at_round: None,
        };
        let mut trainer =
            OnlineTrainer::new(cfg, &factory, ReviewFeed::starting_at(feed, first as u64));
        let out = (first..first + rounds)
            .map(|round| {
                let msg = trainer.train_round(round);
                let bytes = match &msg {
                    CandidateMsg::Candidate { path, .. } => Some(std::fs::read(path).unwrap()),
                    _ => None,
                };
                (msg, bytes)
            })
            .collect();
        std::fs::remove_dir_all(dir).ok();
        out
    }

    /// A skipped round leaves nothing behind: after a round-0 divergence,
    /// the later candidates are byte-identical to those of a trainer that
    /// started at round 1, so the round's Adam moments and step count were
    /// rolled back with its weights.
    #[test]
    fn skipped_round_restores_optimizer_state() {
        let clean = run_rounds(FaultPlan::none(), 1, 2, "clean");
        for (tag, plan) in [
            ("nan_loss", FaultPlan::nan_loss_at(1)),
            ("nan_weights", FaultPlan::nan_weights_at(0)),
        ] {
            let faulty = run_rounds(plan, 0, 3, tag);
            assert!(
                matches!(&faulty[0].0, CandidateMsg::Skipped { round: 0, cause }
                    if cause.starts_with("non_finite")),
                "{tag}: round 0 must be skipped, got {:?}",
                faulty[0].0
            );
            for ((msg, bytes), (_, want)) in faulty[1..].iter().zip(&clean) {
                assert!(bytes.is_some(), "{tag}: expected a candidate, got {msg:?}");
                assert!(bytes == want, "{tag}: {msg:?} differs from a fresh start");
            }
        }
    }
}
