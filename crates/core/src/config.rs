//! Model and training configuration.

/// Which encoder architecture the players use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// Bidirectional GRU — the paper's main setting (§V-A "Models").
    BiGru,
    /// Small pretrained transformer — the BERT substitute of Table VI.
    Transformer,
}

/// Hyper-parameters of a rationalization model.
///
/// Dimensions default to a CPU-sized version of the paper's setup
/// (100-d GloVe embeddings, 200-d BiGRU): the *ratios* are preserved while
/// absolute sizes keep training tractable without a GPU.
#[derive(Debug, Clone, Copy)]
pub struct RationaleConfig {
    pub encoder: EncoderKind,
    /// Embedding dimension (paper: 100-d GloVe).
    pub emb_dim: usize,
    /// GRU hidden size per direction (paper: 200).
    pub hidden: usize,
    /// Number of classes (binary sentiment).
    pub classes: usize,
    /// Target rationale sparsity `α` of Eq. (3), set near the
    /// human-annotation sparsity of the dataset.
    pub sparsity: f32,
    /// Sparsity weight `λ1` of Eq. (3).
    pub lambda1: f32,
    /// Coherence weight `λ2` of Eq. (3).
    pub lambda2: f32,
    /// Gumbel-softmax temperature.
    pub tau: f32,
    /// Adam learning rate (paper Table X uses 1e-4–2e-4 at 200-d scale).
    pub lr: f32,
    /// Weight of auxiliary losses (DAR's discriminative term, A2R's JS,
    /// DMR's matching, ...).
    pub aux_weight: f32,
}

impl Default for RationaleConfig {
    fn default() -> Self {
        RationaleConfig {
            encoder: EncoderKind::BiGru,
            emb_dim: 50,
            hidden: 64,
            classes: 2,
            sparsity: 0.15,
            lambda1: 1.0,
            lambda2: 1.0,
            tau: 0.7,
            lr: 1e-3,
            aux_weight: 1.0,
        }
    }
}

impl RationaleConfig {
    /// Encoder output feature dimension.
    pub fn enc_out_dim(&self) -> usize {
        match self.encoder {
            EncoderKind::BiGru => 2 * self.hidden,
            EncoderKind::Transformer => self.emb_dim,
        }
    }
}

/// Training-loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    /// Early-stopping patience in epochs, keyed on dev accuracy (paper
    /// App. B); `None` disables early stopping.
    pub patience: Option<usize>,
    /// Print one line per epoch.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            patience: Some(8),
            verbose: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enc_out_dim_by_kind() {
        let mut cfg = RationaleConfig::default();
        assert_eq!(cfg.enc_out_dim(), 128);
        cfg.encoder = EncoderKind::Transformer;
        assert_eq!(cfg.enc_out_dim(), cfg.emb_dim);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = RationaleConfig::default();
        assert!(cfg.sparsity > 0.0 && cfg.sparsity < 1.0);
        assert!(cfg.tau > 0.0);
        let t = TrainConfig::default();
        assert!(t.epochs > 0 && t.batch_size > 0);
    }
}
