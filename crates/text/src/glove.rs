//! GloVe-style embedding pretraining (Pennington et al., 2014), the repo's
//! substitute for the paper's downloaded GloVe-100d vectors.
//!
//! Builds a windowed co-occurrence matrix over the (synthetic) corpus and
//! minimizes the weighted least-squares GloVe objective
//! `f(X_ij) (w_i·w̃_j + b_i + b̃_j − ln X_ij)²` with AdaGrad. The final
//! embedding for a token is `w + w̃`, as in the original paper.

use std::collections::HashMap;

use rand::Rng as _;

use dar_tensor::Rng;

use crate::corpus::Corpus;

/// Hyper-parameters of the pretrainer.
#[derive(Debug, Clone, Copy)]
pub struct GloveConfig {
    pub dim: usize,
    pub window: usize,
    pub epochs: usize,
    pub lr: f32,
    /// `x_max` of the weighting function.
    pub x_max: f32,
    /// `alpha` of the weighting function.
    pub alpha: f32,
}

impl Default for GloveConfig {
    fn default() -> Self {
        GloveConfig {
            dim: 100,
            window: 5,
            epochs: 15,
            lr: 0.05,
            x_max: 50.0,
            alpha: 0.75,
        }
    }
}

/// Trains token embeddings from co-occurrence statistics.
pub struct GloveTrainer {
    pub cfg: GloveConfig,
}

impl GloveTrainer {
    pub fn new(cfg: GloveConfig) -> Self {
        GloveTrainer { cfg }
    }

    /// Symmetric windowed co-occurrence counts, weighted by `1/distance`
    /// as in GloVe.
    pub fn cooccurrences(&self, corpus: &Corpus) -> HashMap<(usize, usize), f32> {
        let mut counts: HashMap<(usize, usize), f32> = HashMap::new();
        for doc in &corpus.docs {
            for (i, &wi) in doc.iter().enumerate() {
                let end = (i + 1 + self.cfg.window).min(doc.len());
                for (dist, &wj) in doc[i + 1..end].iter().enumerate() {
                    let w = 1.0 / (dist + 1) as f32;
                    *counts.entry((wi, wj)).or_insert(0.0) += w;
                    *counts.entry((wj, wi)).or_insert(0.0) += w;
                }
            }
        }
        counts
    }

    /// Train and return a `[vocab * dim]` embedding table (row-major),
    /// scaled to unit-ish norms for direct use as frozen embeddings.
    pub fn train(&self, corpus: &Corpus, vocab_len: usize, rng: &mut Rng) -> Vec<f32> {
        let dim = self.cfg.dim;
        let mut pairs: Vec<((usize, usize), f32)> =
            self.cooccurrences(corpus).into_iter().collect();
        // Deterministic order before shuffling with the seeded RNG.
        pairs.sort_by_key(|&((i, j), _)| (i, j));

        let n = vocab_len * dim;
        let scale = 0.5 / dim as f32;
        let mut w: Vec<f32> = (0..n).map(|_| rng.gen_range(-scale..scale)).collect();
        let mut wt: Vec<f32> = (0..n).map(|_| rng.gen_range(-scale..scale)).collect();
        let mut b = vec![0.0f32; vocab_len];
        let mut bt = vec![0.0f32; vocab_len];
        let mut gw = vec![1e-8f32; n];
        let mut gwt = vec![1e-8f32; n];
        let mut gb = vec![1e-8f32; vocab_len];
        let mut gbt = vec![1e-8f32; vocab_len];

        for _ in 0..self.cfg.epochs {
            // Fisher–Yates shuffle of pair order per epoch.
            for k in (1..pairs.len()).rev() {
                let j = rng.gen_range(0..=k);
                pairs.swap(k, j);
            }
            for &((i, j), x) in &pairs {
                let weight = (x / self.cfg.x_max).powf(self.cfg.alpha).min(1.0);
                let wi = &w[i * dim..(i + 1) * dim];
                let wj = &wt[j * dim..(j + 1) * dim];
                let dot: f32 = wi.iter().zip(wj).map(|(a, c)| a * c).sum();
                let diff = dot + b[i] + bt[j] - x.ln();
                let coeff = (weight * diff).clamp(-10.0, 10.0);
                for d in 0..dim {
                    let gi = coeff * wt[j * dim + d];
                    let gj = coeff * w[i * dim + d];
                    gw[i * dim + d] += gi * gi;
                    gwt[j * dim + d] += gj * gj;
                    w[i * dim + d] -= self.cfg.lr * gi / gw[i * dim + d].sqrt();
                    wt[j * dim + d] -= self.cfg.lr * gj / gwt[j * dim + d].sqrt();
                }
                gb[i] += coeff * coeff;
                gbt[j] += coeff * coeff;
                b[i] -= self.cfg.lr * coeff / gb[i].sqrt();
                bt[j] -= self.cfg.lr * coeff / gbt[j].sqrt();
            }
        }

        // Combine main and context vectors.
        let mut out = vec![0.0f32; n];
        for k in 0..n {
            out[k] = w[k] + wt[k];
        }
        out
    }
}

/// Cosine similarity of two embedding rows.
pub fn cosine(table: &[f32], dim: usize, a: usize, b: usize) -> f32 {
    let va = &table[a * dim..(a + 1) * dim];
    let vb = &table[b * dim..(b + 1) * dim];
    let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
    let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    /// A corpus where ids 3,4 always co-occur and 5,6 always co-occur,
    /// with no cross-group mixing.
    fn clustered_corpus() -> Corpus {
        let mut docs = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                docs.push(vec![3, 4, 3, 4, 3]);
            } else {
                docs.push(vec![5, 6, 5, 6, 5]);
            }
        }
        Corpus { docs }
    }

    #[test]
    fn cooccurrence_symmetry() {
        let t = GloveTrainer::new(GloveConfig {
            window: 2,
            ..Default::default()
        });
        let counts = t.cooccurrences(&clustered_corpus());
        for (&(i, j), &c) in &counts {
            assert_eq!(counts.get(&(j, i)).copied().unwrap_or(0.0), c);
        }
        assert!(!counts.contains_key(&(3, 5)), "cross-cluster co-occurrence");
    }

    #[test]
    fn embeddings_cluster_cooccurring_tokens() {
        let cfg = GloveConfig {
            dim: 16,
            window: 2,
            epochs: 20,
            ..Default::default()
        };
        let t = GloveTrainer::new(cfg);
        let mut rng = dar_tensor::rng(0);
        let table = t.train(&clustered_corpus(), 8, &mut rng);
        let within = cosine(&table, 16, 3, 4);
        let across = cosine(&table, 16, 3, 5);
        assert!(
            within > across + 0.15,
            "within-cluster sim {within} not above cross-cluster {across}"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let cfg = GloveConfig {
            dim: 8,
            epochs: 3,
            ..Default::default()
        };
        let c = clustered_corpus();
        let a = GloveTrainer::new(cfg).train(&c, 8, &mut dar_tensor::rng(9));
        let b = GloveTrainer::new(cfg).train(&c, 8, &mut dar_tensor::rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_finite() {
        let cfg = GloveConfig {
            dim: 8,
            epochs: 5,
            ..Default::default()
        };
        let table = GloveTrainer::new(cfg).train(&clustered_corpus(), 8, &mut dar_tensor::rng(1));
        assert!(table.iter().all(|x| x.is_finite()));
    }
}
