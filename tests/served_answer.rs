//! A server answers with the model's served answer (`RationaleModel::answer`,
//! DESIGN.md §10), never with a pass of its own: every Ok label and
//! rationale equals a solo `infer` of the same weights, whether the request
//! ran alone or in a mixed micro-batch of up to 16. `serving_chaos`'s
//! batching invariance compares served answers with each other; this pins
//! them to `infer` itself.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::ServeFixture;
use dar::data::Review;
use dar::prelude::*;
use dar::serve::{ModelFactory, ServeConfig, ServeOutput, Server};
use dar::tensor::no_grad;
use dar::Tensor;

/// Epochs of the served DAR's training. Untrained, its labels from the
/// rationale and from the full text agreed on every review, which would
/// leave the label check blind to a server answering from the probe.
const TRAIN_EPOCHS: usize = 8;

/// Replicas of one DAR trained briefly on the fixture: each builds the
/// same architecture and restores the trained values. The discriminator
/// stays untrained: only the degraded path reads it.
fn dar_factory(fx: &ServeFixture) -> ModelFactory {
    let (cfg, vocab_rows, ml) = (fx.cfg, fx.vocab_rows, fx.ml);
    let build = move || {
        let mut rng = dar::rng(91);
        let emb = SharedEmbedding::random(vocab_rows, cfg.emb_dim, &mut rng);
        let disc = Predictor::new(&cfg, &emb, ml, &mut rng);
        Dar::new(&cfg, &emb, disc, ml, &mut rng)
    };
    let mut model = build();
    let mut rng = dar::rng(92);
    for _ in 0..TRAIN_EPOCHS {
        for batch in BatchIter::shuffled(&fx.data.train, 16, &mut rng) {
            model.train_step(&batch, &mut rng);
        }
    }
    let trained = model.snapshot();
    Arc::new(move || {
        let mut model = build();
        model.restore(&trained);
        Box::new(model)
    })
}

/// Submit every review before waiting, so a batching server groups them.
fn serve(cfg: ServeConfig, factory: ModelFactory, reviews: &[Review]) -> Vec<ServeOutput> {
    let server = Server::start(cfg, factory);
    let tickets: Vec<_> = reviews.iter().map(|r| server.submit(r.clone())).collect();
    let outs = tickets
        .into_iter()
        .map(|t| t.wait().expect("a clean review is served"))
        .collect();
    server.shutdown();
    outs
}

#[test]
fn every_served_answer_equals_a_solo_infer() {
    let fx = ServeFixture::new(600);
    let factory = dar_factory(&fx);
    let reviews: Vec<Review> = fx.data.train.iter().take(40).cloned().collect();
    let solo = serve(
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            ..fx.serve_cfg(1)
        },
        Arc::clone(&factory),
        &reviews,
    );
    let batched = serve(
        ServeConfig {
            max_batch: 16,
            linger: Duration::from_millis(10),
            ..fx.serve_cfg(2)
        },
        Arc::clone(&factory),
        &reviews,
    );

    let reference = factory();
    let mut probe_differs = 0;
    for (mode, outs) in [("solo", &solo), ("batched", &batched)] {
        for (i, (review, out)) in reviews.iter().zip(outs).enumerate() {
            let at = format!("{mode} review {i}");
            // No review's selection collapses alone, so no batch's does.
            assert!(!out.degraded, "{at}: answered from the degraded path");
            let batch = Batch::from_reviews(&[review]).expect("one review");
            let inf = no_grad(|| reference.infer(&batch));
            let label = |t: Option<Tensor>| t.expect("DAR has both logits").argmax_rows()[0];
            let (answer, probe) = (label(inf.logits), label(inf.full_logits));
            probe_differs += usize::from(answer != probe);
            assert_eq!(out.label, answer, "{at}: label");
            let rationale: Vec<bool> = inf.masks[0][..review.len()]
                .iter()
                .map(|&v| v > 0.5)
                .collect();
            assert_eq!(out.rationale, rationale, "{at}: rationale");
        }
    }
    // The label check has teeth: on some review the full-text probe's
    // label differs from the answer's, so a server answering from the
    // probe fails it.
    assert!(probe_differs > 0, "the probe agrees with every answer");
}
