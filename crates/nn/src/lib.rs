//! `dar-nn`: neural-network layers built on [`dar_tensor`], providing every
//! component the DAR paper's players are assembled from.
//!
//! * [`Linear`], [`Embedding`], [`Dropout`], [`LayerNorm`] — basic layers.
//! * [`Gru`] / [`BiGru`] — the bidirectional GRU encoders used by both the
//!   generator and the predictors (paper §V-A "Models"), always on the
//!   fused `gru_seq` kernel.
//! * [`gumbel`] — Gumbel-softmax straight-through binarization for the
//!   rationale mask `M` of Eq. (1).
//! * [`pooling`] — masked max/mean pooling over time.
//! * [`TransformerEncoder`] — a small pre-trainable transformer standing in
//!   for BERT in the Table VI experiment.
//! * [`loss`] — cross-entropy, KL and JS divergences, accuracy.
//! * [`numeric`] — always-on guard rails that repair NaN/Inf in the
//!   hazard-prone layers (the identity on healthy inputs).

pub mod dropout;
pub mod embedding;
pub mod gru;
pub mod gumbel;
pub mod layer_norm;
pub mod linear;
pub mod loss;
pub mod module;
pub mod numeric;
pub mod pooling;
pub mod transformer;

pub use dropout::Dropout;
pub use embedding::Embedding;
pub use gru::{BiGru, Gru};
pub use layer_norm::LayerNorm;
pub use linear::Linear;
pub use module::Module;
pub use numeric::guard_rails_enabled;
pub use transformer::{TransformerConfig, TransformerEncoder};

pub use dar_tensor::{rng, Rng, Tensor};
