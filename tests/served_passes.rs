//! The served answer runs only the passes it returns: DAR's answer is the
//! generator's BiGRU and the predictor's BiGRU on the rationale (4
//! `gru_seq` calls), and `infer` adds the full-text probe (6).
//!
//! The count reads `dar-obs` spans, which are process-global, so this
//! binary holds this one test and nothing else records spans beside it.

use dar::core::models::RationaleModel;
use dar::prelude::*;
use dar::tensor::no_grad;

/// `gru_seq` calls recorded under the root span `root`.
fn gru_calls(root: &str) -> u64 {
    dar::obs::snapshot("passes")
        .spans
        .iter()
        .filter(|s| s.path.starts_with(root) && s.path.ends_with("/gru_seq"))
        .map(|s| s.count)
        .sum()
}

#[test]
fn dar_answer_skips_the_full_text_probe() {
    let synth = SynthConfig {
        n_train: 32,
        n_dev: 8,
        n_test: 16,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(3));
    let cfg = RationaleConfig {
        emb_dim: 12,
        hidden: 12,
        ..Default::default()
    };
    let mut rng = dar::rng(4);
    let ml = pretrain::max_len(&data);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    let disc = Predictor::new(&cfg, &emb, ml, &mut rng);
    let model = Dar::new(&cfg, &emb, disc, ml, &mut rng);
    let batch = BatchIter::sequential(&data.test, 16)
        .next()
        .expect("a batch");

    dar::obs::set_enabled(true);
    dar::obs::reset();
    {
        let _root = dar::obs::span("passes_answer");
        no_grad(|| model.answer(&batch));
    }
    {
        let _root = dar::obs::span("passes_infer");
        no_grad(|| model.infer(&batch));
    }
    assert_eq!(
        gru_calls("passes_answer/"),
        4,
        "answer: generator + rationale pass"
    );
    assert_eq!(
        gru_calls("passes_infer/"),
        6,
        "infer: answer + full-text probe"
    );
}
