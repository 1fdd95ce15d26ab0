//! Sentence-level rationale selection — the "os" (one-sentence) regime of
//! the paper's Table II rows quoted from A2R, where the generator picks
//! one whole sentence instead of individual tokens. Provided as an
//! extension: the paper's own re-implementations (and this repo's main
//! results) use the harder token-level selection.

use std::collections::HashSet;

use dar_data::Batch;
use dar_nn::gumbel::{gumbel_softmax_st, hard_softmax_st};
use dar_nn::loss::cross_entropy;
use dar_nn::{Linear, Module};
use dar_tensor::optim::{Adam, AdamState};
use dar_tensor::{DarResult, Rng, Tensor};
use dar_text::Vocab;

use crate::config::RationaleConfig;
use crate::embedder::SharedEmbedding;
use crate::generator::Encoder;
use crate::models::{descend, rationale_answer, restore_single, Inference, RationaleModel};
use crate::predictor::Predictor;

/// Splits id sequences into sentences at terminal punctuation.
#[derive(Debug, Clone)]
pub struct SentenceSplitter {
    terminal_ids: HashSet<usize>,
}

impl SentenceSplitter {
    /// Build from a vocabulary: `.` and `!` end sentences.
    pub fn from_vocab(vocab: &Vocab) -> Self {
        let terminal_ids = [".", "!"]
            .iter()
            .filter(|t| vocab.contains(t))
            .map(|t| vocab.id(t))
            .collect();
        SentenceSplitter { terminal_ids }
    }

    /// Sentence spans `(start, end_exclusive)` of an id sequence; the
    /// terminator belongs to its sentence. A trailing fragment without a
    /// terminator forms a final sentence.
    pub fn spans(&self, ids: &[usize]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = 0usize;
        for (i, id) in ids.iter().enumerate() {
            if self.terminal_ids.contains(id) {
                spans.push((start, i + 1));
                start = i + 1;
            }
        }
        if start < ids.len() {
            spans.push((start, ids.len()));
        }
        if spans.is_empty() {
            spans.push((0, ids.len().max(1)));
        }
        spans
    }
}

/// A generator that scores sentences and selects exactly one
/// (straight-through over the sentence axis).
pub struct SentenceGenerator {
    pub embedding: SharedEmbedding,
    pub encoder: Encoder,
    pub head: Linear,
    splitter: SentenceSplitter,
    tau: f32,
}

impl SentenceGenerator {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        splitter: SentenceSplitter,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        SentenceGenerator {
            embedding: embedding.clone(),
            encoder: Encoder::new(cfg, embedding.vocab(), max_len, rng),
            head: Linear::new(rng, cfg.enc_out_dim(), 1),
            splitter,
            tau: cfg.tau,
        }
    }

    /// Per-review sentence spans, truncated to real (unpadded) tokens.
    pub fn batch_spans(&self, batch: &Batch) -> Vec<Vec<(usize, usize)>> {
        batch
            .ids
            .iter()
            .zip(&batch.lengths)
            .map(|(ids, &len)| self.splitter.spans(&ids[..len]))
            .collect()
    }

    /// Sample a token mask `[b, l]` that covers exactly one sentence per
    /// review (Gumbel-ST during training, argmax at eval).
    pub fn sample_mask(&self, batch: &Batch, rng: Option<&mut Rng>) -> Tensor {
        let spans = self.batch_spans(batch);
        let b = batch.len();
        let l = batch.seq_len();
        let s_max = spans.iter().map(Vec::len).max().unwrap_or(1);

        let x = self.embedding.lookup(&batch.ids);
        let h = self.encoder.forward(&x, &batch.mask); // [b, l, d]
        let d = h.shape()[2];

        // Mean-pool each sentence with a constant [b, s_max, l] matrix.
        let mut pool = vec![0.0f32; b * s_max * l];
        let mut pad = vec![0.0f32; b * s_max]; // -1e9 on missing sentences
        for (i, review_spans) in spans.iter().enumerate() {
            for (s, &(st, en)) in review_spans.iter().enumerate() {
                let w = 1.0 / (en - st).max(1) as f32;
                for t in st..en {
                    pool[(i * s_max + s) * l + t] = w;
                }
            }
            for s in review_spans.len()..s_max {
                pad[i * s_max + s] = -1e9;
            }
        }
        let pool_t = Tensor::new(pool, &[b, s_max, l]);
        let sent_repr = pool_t.bmm(&h); // [b, s_max, d]
        let logits = self
            .head
            .forward(&sent_repr.reshape(&[b * s_max, d]))
            .reshape(&[b, s_max])
            .add(&Tensor::new(pad, &[b, s_max]));

        // One-hot over sentences, straight-through.
        let sel = match rng {
            Some(r) => gumbel_softmax_st(&logits, self.tau, r),
            None => hard_softmax_st(&logits),
        }; // [b, s_max]

        // Scatter the sentence choice back to a token mask: member[b,s,l]
        // is 1 where token t belongs to sentence s.
        let mut member = vec![0.0f32; b * s_max * l];
        for (i, review_spans) in spans.iter().enumerate() {
            for (s, &(st, en)) in review_spans.iter().enumerate() {
                for t in st..en {
                    member[(i * s_max + s) * l + t] = 1.0;
                }
            }
        }
        let member_t = Tensor::new(member, &[b, s_max, l]);
        sel.reshape(&[b, 1, s_max])
            .bmm(&member_t)
            .reshape(&[b, l])
            .mul(&batch.mask)
    }
}

impl Module for SentenceGenerator {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.head.params());
        p
    }
}

/// RNP with one-sentence selection — the "os" rows of Table II.
pub struct SentenceRnp {
    pub cfg: RationaleConfig,
    pub gen: SentenceGenerator,
    pub pred: Predictor,
    opt: Adam,
}

impl SentenceRnp {
    pub fn new(
        cfg: &RationaleConfig,
        embedding: &SharedEmbedding,
        splitter: SentenceSplitter,
        max_len: usize,
        rng: &mut Rng,
    ) -> Self {
        SentenceRnp {
            cfg: *cfg,
            gen: SentenceGenerator::new(cfg, embedding, splitter, max_len, rng),
            pred: Predictor::new(cfg, embedding, max_len, rng),
            opt: Adam::with_lr(cfg.lr),
        }
    }
}

impl RationaleModel for SentenceRnp {
    fn name(&self) -> &'static str {
        "RNP-os"
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.gen.params();
        p.extend(self.pred.params());
        p
    }

    fn train_step(&mut self, batch: &Batch, rng: &mut Rng) -> f32 {
        let z = self.gen.sample_mask(batch, Some(rng));
        // One-sentence selection needs no sparsity/coherence regularizer:
        // the structure is enforced by construction (as in A2R*).
        let loss = cross_entropy(&self.pred.forward_masked(batch, &z), &batch.labels);
        let params = self.params();
        descend(&mut self.opt, &params, &loss)
    }

    fn optim_states(&self) -> Vec<AdamState> {
        vec![self.opt.export_state(&self.params())]
    }

    fn restore_optim(&mut self, states: &[AdamState]) -> DarResult<()> {
        let params = self.params();
        restore_single(self.name(), &mut self.opt, &params, states)
    }

    fn answer(&self, batch: &Batch) -> Inference {
        let z = self.gen.sample_mask(batch, None);
        rationale_answer(&self.pred, batch, &z)
    }

    /// The probe only: one-sentence selection has no degraded
    /// predictor-only path.
    fn full_text_probe(&self, batch: &Batch) -> Option<Tensor> {
        Some(self.pred.forward_full(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};
    use crate::pretrain::max_len;
    use dar_data::BatchIter;

    #[test]
    fn splitter_finds_sentences() {
        let mut vocab = Vocab::empty();
        let dot = vocab.insert(".");
        let bang = vocab.insert("!");
        let w = vocab.insert("w");
        let sp = SentenceSplitter::from_vocab(&vocab);
        let ids = vec![w, w, dot, w, bang, w];
        assert_eq!(sp.spans(&ids), vec![(0, 3), (3, 5), (5, 6)]);
    }

    #[test]
    fn splitter_handles_no_terminator() {
        let mut vocab = Vocab::empty();
        let w = vocab.insert("w");
        let sp = SentenceSplitter::from_vocab(&vocab);
        assert_eq!(sp.spans(&[w, w, w]), vec![(0, 3)]);
    }

    #[test]
    fn mask_covers_exactly_one_sentence() {
        let data = tiny_dataset(140);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 141);
        let mut rng = dar_tensor::rng(142);
        let sp = SentenceSplitter::from_vocab(&data.vocab);
        let gen = SentenceGenerator::new(&cfg, &emb, sp, max_len(&data), &mut rng);
        let batch = BatchIter::sequential(&data.test, 6).next().unwrap();
        let z = gen.sample_mask(&batch, None);
        let spans = gen.batch_spans(&batch);
        let zv = z.to_vec();
        let l = batch.seq_len();
        for (i, review_spans) in spans.iter().enumerate() {
            let row = &zv[i * l..(i + 1) * l];
            // Exactly one span fully selected; everything else zero.
            let mut selected_spans = 0;
            for &(st, en) in review_spans {
                let ones = row[st..en].iter().filter(|&&v| v == 1.0).count();
                if ones > 0 {
                    assert_eq!(ones, en - st, "partial sentence selected");
                    selected_spans += 1;
                }
            }
            assert_eq!(selected_spans, 1, "selected {selected_spans} sentences");
            let total: f32 = row.iter().sum();
            let span_len = review_spans
                .iter()
                .map(|&(st, en)| en - st)
                .find(|&len| (total as usize) == len);
            assert!(span_len.is_some(), "mask does not match any span length");
        }
    }

    #[test]
    fn sentence_rnp_trains() {
        let data = tiny_dataset(143);
        let cfg = tiny_config();
        let emb = tiny_embedding(&data, 144);
        let mut rng = dar_tensor::rng(145);
        let sp = SentenceSplitter::from_vocab(&data.vocab);
        let mut model = SentenceRnp::new(&cfg, &emb, sp, max_len(&data), &mut rng);
        for batch in BatchIter::shuffled(&data.train, 32, &mut rng).take(3) {
            assert!(model.train_step(&batch, &mut rng).is_finite());
        }
        let batch = BatchIter::sequential(&data.test, 8).next().unwrap();
        let inf = model.infer(&batch);
        assert!(inf.logits.is_some());
        // Sentence masks are binary by construction.
        assert!(inf.masks.iter().flatten().all(|&v| v == 0.0 || v == 1.0));
    }
}
