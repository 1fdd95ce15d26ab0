//! `dar-core`: the paper's contribution — self-explaining rationalization
//! with **Discriminatively Aligned Rationalization (DAR)** — together with
//! the vanilla RNP framework it repairs and the published baselines it is
//! compared against.
//!
//! # The cooperative game
//!
//! A [`Generator`] selects a binary token mask `M` (Gumbel-softmax
//! straight-through, Eq. (1)); the rationale `Z = M ⊙ X` (embeddings zeroed
//! outside the mask) goes to a [`Predictor`] whose cross-entropy trains both
//! players (Eq. (2)), under the sparsity/coherence regularizer of Eq. (3)
//! ([`regularizer`]).
//!
//! # Rationale shift and DAR
//!
//! The game is prone to *rationale shift*: the generator can smuggle the
//! label through trivial patterns, the predictor overfits them, and its
//! feedback corrupts the generator further. DAR ([`models::Dar`]) adds a
//! predictor pretrained on the **full input** (Eq. (4)), frozen, as a
//! third-party discriminator whose loss on the rationale (Eq. (5)) aligns
//! `Z` with `X` (Theorem 1).
//!
//! # Quick start
//!
//! ```no_run
//! use dar_core::prelude::*;
//!
//! let mut rng = dar_core::rng(0);
//! let data = SynBeer::default_aspect(Aspect::Aroma, &mut rng);
//! let cfg = RationaleConfig { sparsity: 0.15, ..Default::default() };
//! let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
//! let disc = pretrain::full_text_predictor(&cfg, &emb, &data, 10, &mut rng);
//! let max_len = pretrain::max_len(&data);
//! let mut dar = Dar::new(&cfg, &emb, disc, max_len, &mut rng);
//! let report = Trainer::default().fit(&mut dar, &data, &mut rng);
//! println!("rationale F1 = {:.1}", report.test.f1 * 100.0);
//! ```

pub mod config;
pub mod embedder;
pub mod eval;
pub mod fault;
pub mod generator;
pub mod guard;
pub mod models;
pub mod predictor;
pub mod pretrain;
pub mod regularizer;
pub mod sentence;
pub mod stream;
pub mod trainer;

pub use config::{EncoderKind, RationaleConfig, TrainConfig};
pub use embedder::SharedEmbedding;
pub use eval::{class_metrics, evaluate_model, ClassMetrics, RationaleMetrics};
pub use generator::Generator;
pub use guard::{GuardPolicy, TrainEvent};
pub use models::{Inference, ModelFactory, RationaleModel};
pub use predictor::Predictor;
pub use stream::{
    spawn_online_trainer, CandidateMsg, FeedConfig, OnlineTrainer, OnlineTrainerConfig, ReviewFeed,
};
pub use trainer::{TrainReport, Trainer};

pub use dar_tensor::{rng, Rng, Tensor};

/// Convenient glob-import surface for examples and benches.
pub mod prelude {
    pub use crate::config::{EncoderKind, RationaleConfig, TrainConfig};
    pub use crate::embedder::SharedEmbedding;
    pub use crate::eval::{class_metrics, evaluate_model, RationaleMetrics};
    pub use crate::fault::{ChaosModel, ChaosPlan, FaultPlan, FaultyModel, StallPlan};
    pub use crate::generator::Generator;
    pub use crate::guard::{GuardPolicy, GuardReason, TrainEvent};
    pub use crate::models::{
        A2r, Car, Dar, Dmr, Inference, InterRat, RationaleModel, Rnp, ThreePlayer, Vib,
    };
    pub use crate::predictor::Predictor;
    pub use crate::pretrain;
    pub use crate::sentence::{SentenceGenerator, SentenceRnp, SentenceSplitter};
    pub use crate::trainer::{TrainReport, Trainer};
    pub use dar_data::{Aspect, AspectDataset, Batch, BatchIter, SynBeer, SynHotel, SynthConfig};
    pub use dar_nn::Module;
}
