//! Evaluation: rationale quality (token-overlap P/R/F1 against human
//! annotations), sparsity, predictive accuracy with the rationale input,
//! and the paper's full-text accuracy probe (Fig. 3 / Fig. 6).

use dar_data::{BatchIter, Review};

use crate::models::RationaleModel;

/// Aggregate metrics over an annotated split.
#[derive(Debug, Clone, Copy)]
pub struct RationaleMetrics {
    /// Token-overlap precision against human annotation (micro).
    pub precision: f32,
    /// Token-overlap recall (micro).
    pub recall: f32,
    /// Token-overlap F1 (micro).
    pub f1: f32,
    /// Mean fraction of tokens selected (the `S` column).
    pub sparsity: f32,
    /// Accuracy with the rationale as input (`Acc`), when the model
    /// predicts from rationales (CAR/DMR-style label-conditioned selectors
    /// report `None`).
    pub acc: Option<f32>,
    /// Accuracy of the same predictor on the full input — the alignment
    /// probe of Fig. 3b / Fig. 6.
    pub full_text_acc: Option<f32>,
}

impl RationaleMetrics {
    /// Render like a paper table row: `S  Acc  P  R  F1` in percent.
    pub fn row(&self) -> String {
        let acc = self
            .acc
            .map_or("N/A ".to_owned(), |a| format!("{:5.1}", a * 100.0));
        format!(
            "{:5.1} {acc} {:5.1} {:5.1} {:5.1}",
            self.sparsity * 100.0,
            self.precision * 100.0,
            self.recall * 100.0,
            self.f1 * 100.0
        )
    }
}

/// Per-class predictive precision/recall/F1 (Table I). `precision` is NaN
/// when the class is never predicted, mirroring the paper's "nan" entries.
#[derive(Debug, Clone, Copy)]
pub struct ClassMetrics {
    pub precision: f32,
    pub recall: f32,
    pub f1: f32,
}

/// Compute [`ClassMetrics`] of predictions for one class.
pub fn class_metrics(preds: &[usize], gold: &[usize], class: usize) -> ClassMetrics {
    assert_eq!(preds.len(), gold.len());
    let tp = preds
        .iter()
        .zip(gold)
        .filter(|&(&p, &g)| p == class && g == class)
        .count() as f32;
    let pred_pos = preds.iter().filter(|&&p| p == class).count() as f32;
    let gold_pos = gold.iter().filter(|&&g| g == class).count() as f32;
    let precision = tp / pred_pos; // NaN when 0/0, as in Table I.
    let recall = if gold_pos > 0.0 {
        tp / gold_pos
    } else {
        f32::NAN
    };
    let f1 = if precision.is_nan() || (precision + recall) == 0.0 {
        f32::NAN
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    ClassMetrics {
        precision,
        recall,
        f1,
    }
}

/// Evaluate a model over annotated reviews.
pub fn evaluate_model(
    model: &dyn RationaleModel,
    reviews: &[Review],
    batch_size: usize,
) -> RationaleMetrics {
    let mut tp = 0usize;
    let mut selected = 0usize;
    let mut annotated = 0usize;
    let mut tokens = 0usize;
    let mut correct = 0usize;
    let mut full_correct = 0usize;
    let mut n_pred = 0usize;
    let mut has_logits = false;
    let mut has_full = false;

    for batch in BatchIter::sequential(reviews, batch_size) {
        let inf = dar_tensor::no_grad(|| model.infer(&batch));
        for (i, rat) in batch.rationales.iter().enumerate() {
            let len = batch.lengths[i];
            for (t, &ann) in rat.iter().enumerate().take(len) {
                let sel = inf.masks[i][t] > 0.5;
                tp += (sel && ann) as usize;
                selected += sel as usize;
                annotated += ann as usize;
            }
            tokens += len;
        }
        if let Some(logits) = &inf.logits {
            has_logits = true;
            for (p, &g) in logits.argmax_rows().iter().zip(&batch.labels) {
                correct += (*p == g) as usize;
            }
        }
        if let Some(full) = &inf.full_logits {
            has_full = true;
            for (p, &g) in full.argmax_rows().iter().zip(&batch.labels) {
                full_correct += (*p == g) as usize;
            }
        }
        n_pred += batch.len();
    }

    let precision = if selected > 0 {
        tp as f32 / selected as f32
    } else {
        0.0
    };
    let recall = if annotated > 0 {
        tp as f32 / annotated as f32
    } else {
        0.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    RationaleMetrics {
        precision,
        recall,
        f1,
        sparsity: if tokens > 0 {
            selected as f32 / tokens as f32
        } else {
            0.0
        },
        acc: has_logits.then(|| correct as f32 / n_pred as f32),
        full_text_acc: has_full.then(|| full_correct as f32 / n_pred as f32),
    }
}

/// Predicted labels of the model's alignment probe over a split (Table I
/// inputs): [`RationaleModel::full_text_probe`] alone, without the
/// rationale passes of `infer`.
pub fn full_text_predictions(
    model: &dyn RationaleModel,
    reviews: &[Review],
    batch_size: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut preds = Vec::with_capacity(reviews.len());
    let mut gold = Vec::with_capacity(reviews.len());
    for batch in BatchIter::sequential(reviews, batch_size) {
        let logits = dar_tensor::no_grad(|| model.full_text_probe(&batch))
            .expect("model has no full-text path");
        preds.extend(logits.argmax_rows());
        gold.extend_from_slice(&batch.labels);
    }
    (preds, gold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Inference;
    use dar_data::Batch;
    use dar_tensor::Tensor;

    /// A stub model that selects exactly the annotated tokens and predicts
    /// the gold label.
    struct Oracle;
    impl RationaleModel for Oracle {
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn params(&self) -> Vec<Tensor> {
            Vec::new()
        }
        fn train_step(&mut self, _: &Batch, _: &mut dar_tensor::Rng) -> f32 {
            0.0
        }
        fn answer(&self, batch: &Batch) -> Inference {
            let masks: Vec<Vec<f32>> = batch
                .rationales
                .iter()
                .map(|r| r.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
                .collect();
            let mut logits = vec![0.0f32; batch.len() * 2];
            for (i, &l) in batch.labels.iter().enumerate() {
                logits[i * 2 + l] = 10.0;
            }
            let logits = Tensor::new(logits, &[batch.len(), 2]);
            Inference {
                masks,
                logits: Some(logits.clone()),
                full_logits: Some(logits),
            }
        }
    }

    /// A stub that selects everything and predicts class 0 always.
    struct AllSelector;
    impl RationaleModel for AllSelector {
        fn name(&self) -> &'static str {
            "all"
        }
        fn params(&self) -> Vec<Tensor> {
            Vec::new()
        }
        fn train_step(&mut self, _: &Batch, _: &mut dar_tensor::Rng) -> f32 {
            0.0
        }
        fn answer(&self, batch: &Batch) -> Inference {
            let masks = vec![vec![1.0; batch.seq_len()]; batch.len()];
            let mut logits = vec![0.0f32; batch.len() * 2];
            for i in 0..batch.len() {
                logits[i * 2] = 5.0;
            }
            Inference {
                masks,
                logits: Some(Tensor::new(logits, &[batch.len(), 2])),
                full_logits: None,
            }
        }
    }

    fn reviews() -> Vec<Review> {
        vec![
            Review {
                ids: vec![3, 4, 5, 6],
                label: 1,
                rationale: vec![false, true, true, false],
                first_sentence_end: 2,
            },
            Review {
                ids: vec![7, 8],
                label: 0,
                rationale: vec![true, false],
                first_sentence_end: 2,
            },
        ]
    }

    #[test]
    fn oracle_scores_perfectly() {
        let m = evaluate_model(&Oracle, &reviews(), 2);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.acc, Some(1.0));
        assert_eq!(m.full_text_acc, Some(1.0));
        assert!((m.sparsity - 0.5).abs() < 1e-6);
    }

    #[test]
    fn all_selector_has_full_recall_low_precision() {
        let m = evaluate_model(&AllSelector, &reviews(), 1);
        assert_eq!(m.recall, 1.0);
        assert!((m.precision - 0.5).abs() < 1e-6);
        assert_eq!(m.sparsity, 1.0);
        assert_eq!(m.acc, Some(0.5)); // predicts 0 always; one gold 0.
        assert_eq!(m.full_text_acc, None);
    }

    #[test]
    fn full_text_predictions_read_the_probe_of_infer() {
        use crate::models::by_name;
        use crate::models::test_support::{tiny_config, tiny_dataset, tiny_embedding};

        let data = tiny_dataset(60);
        let emb = tiny_embedding(&data, 61);
        let mut rng = dar_tensor::rng(62);
        for name in ["RNP", "DAR", "DMR", "RNP-os"] {
            let model = by_name(name, &tiny_config(), &emb, &data, 1, &mut rng).unwrap();
            let (preds, gold) = full_text_predictions(model.as_ref(), &data.test, 16);
            let mut want = Vec::new();
            for batch in BatchIter::sequential(&data.test, 16) {
                let full = dar_tensor::no_grad(|| model.infer(&batch)).full_logits;
                want.extend(full.unwrap().argmax_rows());
            }
            assert_eq!(preds, want, "{name}: probe predictions differ from infer's");
            let labels: Vec<usize> = data.test.iter().map(|r| r.label).collect();
            assert_eq!(gold, labels);
        }
    }

    #[test]
    fn class_metrics_nan_when_never_predicted() {
        // Predict all-negative: positive-class precision must be NaN
        // (Table I's "nan" for Cleanliness).
        let cm = class_metrics(&[0, 0, 0, 0], &[0, 1, 0, 1], 1);
        assert!(cm.precision.is_nan());
        assert_eq!(cm.recall, 0.0);
        assert!(cm.f1.is_nan());
    }

    #[test]
    fn class_metrics_mixed() {
        let cm = class_metrics(&[1, 1, 0, 0], &[1, 0, 1, 0], 1);
        assert!((cm.precision - 0.5).abs() < 1e-6);
        assert!((cm.recall - 0.5).abs() < 1e-6);
        assert!((cm.f1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn row_formats_na() {
        let m = RationaleMetrics {
            precision: 0.5,
            recall: 0.25,
            f1: 1.0 / 3.0,
            sparsity: 0.1,
            acc: None,
            full_text_acc: None,
        };
        assert!(m.row().contains("N/A"));
    }
}
