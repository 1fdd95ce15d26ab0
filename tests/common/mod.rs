//! Shared serving-test fixture: a tiny deterministic dataset + model
//! factory with chaos-trigger hooks, parameterized by replica count so
//! the same scenarios run single-replica (`tests/serving_chaos.rs`) and
//! scaled out (`tests/scale_out.rs`).
//!
//! Cargo compiles this module into each test binary that declares
//! `mod common;`, and not every binary uses every helper.
#![allow(dead_code)]

use std::sync::Arc;

use dar::data::Review;
use dar::prelude::*;
use dar::serve::{ServeConfig, StatsSnapshot};

/// Trigger token ids live in embedding rows past the dataset vocabulary,
/// so no organic review ever contains one.
pub const N_TRIGGERS: usize = 8;

pub struct ServeFixture {
    pub data: AspectDataset,
    pub cfg: RationaleConfig,
    /// Embedding rows = vocab + trigger space; also the admission cap.
    pub vocab_rows: usize,
    pub ml: usize,
}

impl ServeFixture {
    /// The standard chaos workload: enough model (emb 12 / hidden 12)
    /// that batches take real time, so backlogs form and stealing,
    /// deadlines, and breaker windows are all reachable.
    pub fn new(seed: u64) -> Self {
        let synth = SynthConfig {
            n_train: 64,
            n_dev: 24,
            n_test: 24,
            ..SynthConfig::beer(Aspect::Aroma)
        };
        Self::build(seed, synth, 12, 12)
    }

    /// The saturation workload: short filler-free reviews and a minimal
    /// model (emb 8 / hidden 8), so a sweep measures runtime overhead —
    /// queue handoff, routing, batching, stealing — rather than GRU math.
    pub fn light(seed: u64) -> Self {
        let synth = SynthConfig {
            n_train: 128,
            n_dev: 32,
            n_test: 64,
            filler_sentences: 0,
            filler_in_sentence: (0, 1),
            sentiment_tokens: 1,
            ..SynthConfig::beer(Aspect::Aroma)
        };
        Self::build(seed, synth, 8, 8)
    }

    fn build(seed: u64, synth: SynthConfig, emb_dim: usize, hidden: usize) -> Self {
        let data = SynBeer::generate(&synth, &mut dar::rng(seed));
        let cfg = RationaleConfig {
            emb_dim,
            hidden,
            sparsity: 0.16,
            ..Default::default()
        };
        let vocab_rows = data.vocab.len() + N_TRIGGERS;
        let ml = pretrain::max_len(&data);
        ServeFixture {
            data,
            cfg,
            vocab_rows,
            ml,
        }
    }

    /// Trigger token `i` (guaranteed absent from every organic review).
    pub fn trigger(&self, i: usize) -> usize {
        assert!(i < N_TRIGGERS);
        self.data.vocab.len() + i
    }

    /// A deterministic model factory: every call (on any thread) builds
    /// the same replica, wrapped in the given chaos plan.
    pub fn factory(&self, plan: ChaosPlan) -> dar::serve::ModelFactory {
        let cfg = self.cfg;
        let vocab_rows = self.vocab_rows;
        let ml = self.ml;
        Arc::new(move || {
            let mut rng = dar::rng(77);
            let emb = SharedEmbedding::random(vocab_rows, cfg.emb_dim, &mut rng);
            let rnp = Rnp::new(&cfg, &emb, ml, &mut rng);
            Box::new(ChaosModel::new(rnp, plan))
        })
    }

    /// Base serving config at the given replica count; tests override
    /// batching/breaker knobs per scenario with struct update syntax.
    pub fn serve_cfg(&self, replicas: usize) -> ServeConfig {
        ServeConfig {
            replicas,
            vocab_size: self.vocab_rows,
            max_len: self.ml,
            ..ServeConfig::default()
        }
    }

    pub fn clean(&self, i: usize) -> Review {
        self.data.test[i % self.data.test.len()].clone()
    }

    /// A review carrying a trigger token in its first position.
    pub fn triggered(&self, i: usize, trigger: usize) -> Review {
        let mut r = self.clean(i);
        r.ids[0] = trigger;
        r
    }

    /// A lead request that holds the replica claiming it for
    /// [`HOLD_MS`], once per replica under [`hold_plan`](Self::hold_plan):
    /// requests submitted right behind it queue up, so the replica that
    /// claims them next takes several at once.
    pub fn lead(&self) -> Review {
        self.triggered(0, self.trigger(HOLD_TRIGGER))
    }

    /// The chaos plan under which a [`lead`](Self::lead) request holds
    /// its replica: a non-sticky sleep.
    pub fn hold_plan(&self) -> ChaosPlan {
        ChaosPlan {
            stall: StallPlan {
                sleep_token: Some((self.trigger(HOLD_TRIGGER), HOLD_MS)),
                sticky: false,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Trigger index of [`ServeFixture::lead`].
const HOLD_TRIGGER: usize = 7;

/// How long a [`ServeFixture::lead`] request holds its replica.
const HOLD_MS: u64 = 150;

/// Some micro-batch carried two or more requests: the replicas served
/// more requests than they answered batches.
pub fn assert_mixed_batches(stats: &StatsSnapshot) {
    let served: u64 = stats.replicas.iter().map(|r| r.served).sum();
    let batches: u64 = stats.replicas.iter().map(|r| r.ok_batches).sum();
    assert!(
        served > batches,
        "every batch carried one request: {served} served in {batches} batches"
    );
}

/// The request ledger balances: every submitted request landed in exactly
/// one outcome counter. Meaningful once the server is quiet — after
/// `Server::shutdown`, every submission has its verdict.
pub fn assert_ledger_balances(stats: &StatsSnapshot) {
    let outcomes = [
        ("served_full", stats.served_full),
        ("served_degraded", stats.served_degraded),
        ("rejected", stats.rejected),
        ("queue_full", stats.queue_full),
        ("shed", stats.shed),
        ("deadline_exceeded", stats.deadline_exceeded),
        ("throttled", stats.throttled),
        ("worker_panicked", stats.worker_panicked),
        ("shutdown", stats.shutdown),
        ("abandoned", stats.abandoned),
    ];
    let total: u64 = outcomes.iter().map(|(_, n)| n).sum();
    assert_eq!(
        stats.submitted, total,
        "ledger out of balance: {} submitted, outcomes {outcomes:?}",
        stats.submitted
    );
}
