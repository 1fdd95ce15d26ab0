//! `dar` — a from-scratch Rust reproduction of *Enhancing the
//! Rationale-Input Alignment for Self-explaining Rationalization*
//! (Liu et al., ICDE 2024).
//!
//! This meta-crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense tensors + reverse-mode autograd + optimizers;
//! * [`nn`] — layers (Linear/Embedding/BiGRU/Transformer), Gumbel-softmax,
//!   losses;
//! * [`text`] — vocabulary, tokenizer, GloVe-style embedding pretraining;
//! * [`data`] — synthetic BeerAdvocate/HotelReview stand-ins with planted
//!   token-level rationales;
//! * [`core`] — the rationalization models (RNP, **DAR**, A2R, DMR,
//!   Inter_RAT, CAR, 3PLAYER, VIB), trainer, and evaluation;
//! * [`serve`] — the resilient inference serving runtime (bounded queue,
//!   micro-batching, circuit breaker, hot checkpoint swap);
//! * [`obs`] — the zero-dependency observability layer (metrics registry,
//!   hierarchical span timings, typed event journal, deterministic
//!   snapshots; see DESIGN.md §12);
//! * [`store`] — the crash-consistent durability layer (write-ahead
//!   state journal, generation manifest, fault-injectable storage; see
//!   DESIGN.md §15);
//! * [`cli`] — the flag parsing the binaries under `src/bin/` share.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```no_run
//! use dar::prelude::*;
//!
//! let mut rng = dar::rng(42);
//! let data = SynBeer::default_aspect(Aspect::Aroma, &mut rng);
//! let cfg = RationaleConfig { sparsity: 0.16, ..Default::default() };
//! let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
//! let disc = pretrain::full_text_predictor(&cfg, &emb, &data, 6, &mut rng);
//! let max_len = pretrain::max_len(&data);
//! let mut model = Dar::new(&cfg, &emb, disc, max_len, &mut rng);
//! let report = Trainer::default().fit(&mut model, &data, &mut rng);
//! println!("rationale F1: {:.1}%", report.test.f1 * 100.0);
//! ```

pub mod cli;

pub use dar_core as core;
pub use dar_data as data;
pub use dar_nn as nn;
pub use dar_obs as obs;
pub use dar_serve as serve;
pub use dar_store as store;
pub use dar_tensor as tensor;
pub use dar_text as text;

pub use dar_core::prelude;
pub use dar_tensor::{rng, Rng, Tensor};
