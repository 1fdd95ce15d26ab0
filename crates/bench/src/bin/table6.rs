//! Table VI: powerful pretrained encoders on SynBeer-Appearance. The
//! paper's BERT-base is substituted by the small MLM-pretrained transformer
//! of `dar-nn` (DESIGN.md §4). VIB and re-RNP degrade with a strong
//! encoder; DAR stays robust.
//!
//! ```sh
//! DAR_PROFILE=quick cargo run --release -p dar-bench --bin table6
//! ```

use dar_bench::{dataset, print_header, Profile};
use dar_core::generator::Encoder;
use dar_core::models::descend;
use dar_core::prelude::*;
use dar_data::BatchIter;
use dar_nn::module::copy_params;
use dar_nn::{Module, TransformerConfig, TransformerEncoder};
use dar_tensor::optim::Adam;

fn main() {
    let profile = Profile::from_env();
    let aspect = Aspect::Appearance;
    let cfg = RationaleConfig {
        encoder: EncoderKind::Transformer,
        emb_dim: 48,
        sparsity: 0.19,
        lr: 5e-4,
        ..Default::default()
    };

    print_header(
        "Table VI — pretrained-encoder setting, SynBeer-Appearance",
        &profile,
    );
    for name in ["VIB", "RNP", "DAR"] {
        let mut rows = Vec::new();
        for &seed in &profile.seeds {
            let data = dataset(aspect, &profile, seed);
            let mut rng = dar_core::rng(seed + 1000);
            let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
            let ml = pretrain::max_len(&data);

            // "BERT": one transformer pretrained with MLM on the corpus,
            // then copied into every player's encoder.
            let pretrained = mlm_pretrain(&data, &cfg, ml, &mut rng);
            let mut model: Box<dyn RationaleModel> = match name {
                "VIB" => {
                    let m = Vib::new(&cfg, &emb, ml, &mut rng);
                    load(&m.gen.encoder, &pretrained);
                    load(&m.pred.encoder, &pretrained);
                    Box::new(m)
                }
                "RNP" => {
                    let m = Rnp::new(&cfg, &emb, ml, &mut rng);
                    load(&m.gen.encoder, &pretrained);
                    load(&m.pred.encoder, &pretrained);
                    Box::new(m)
                }
                "DAR" => {
                    // The discriminator is fine-tuned from the pretrained
                    // encoder on full text (Eq. (4)), then frozen.
                    let disc = Predictor::new(&cfg, &emb, ml, &mut rng);
                    load(&disc.encoder, &pretrained);
                    pretrain::train_full_text(
                        &disc,
                        &data.train,
                        profile.pretrain_epochs,
                        32,
                        cfg.lr,
                        &mut rng,
                    );
                    let m = Dar::new(&cfg, &emb, disc, ml, &mut rng);
                    load(&m.gen.encoder, &pretrained);
                    load(&m.pred.encoder, &pretrained);
                    Box::new(m)
                }
                _ => unreachable!(),
            };
            let rep = Trainer::new(profile.train_config()).fit(model.as_mut(), &data, &mut rng);
            rows.push(rep.test);
        }
        let m = dar_bench::MeanMetrics::of(&rows);
        println!("{name:<16} {}", m.row());
    }
    println!("\npaper shape: with BERT encoders VIB=20.5 and re-RNP=20.5 F1 while");
    println!("DAR=72.8 — strong encoders amplify rationale shift except under DAR.");
}

/// Copy pretrained weights into a player's transformer encoder.
fn load(enc: &Encoder, pretrained: &TransformerEncoder) {
    if let Encoder::Transformer(t) = enc {
        copy_params(pretrained, t.as_ref());
    }
}

/// MLM-pretrain a transformer encoder on the dataset's corpus.
fn mlm_pretrain(
    data: &AspectDataset,
    cfg: &RationaleConfig,
    max_len: usize,
    rng: &mut dar_core::Rng,
) -> TransformerEncoder {
    let tcfg = TransformerConfig {
        vocab: data.vocab.len(),
        dim: cfg.emb_dim,
        heads: 4,
        layers: 2,
        ff_dim: 2 * cfg.emb_dim,
        max_len: max_len.max(256),
        mask_token: dar_text::vocab::MASK,
    };
    let enc = TransformerEncoder::new(rng, tcfg);
    let mut opt = Adam::with_lr(1e-3);
    let params = enc.params();
    for _ in 0..2 {
        for batch in BatchIter::shuffled(&data.train, 32, rng) {
            let loss = enc.mlm_loss(&batch.ids, &batch.mask, 0.15, rng);
            descend(&mut opt, &params, &loss);
        }
    }
    enc
}
