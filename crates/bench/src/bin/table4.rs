//! Table IV: model complexity — player modules and parameter multiples
//! relative to a single generator/predictor pair's half.
//!
//! ```sh
//! cargo run --release -p dar-bench --bin table4
//! ```

use dar_bench::{dataset, Profile};
use dar_core::models;
use dar_core::prelude::*;

fn main() {
    let profile = Profile::quick();
    let data = dataset(Aspect::Aroma, &profile, 1);
    let cfg = RationaleConfig::default();
    let mut rng = dar_core::rng(0);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);

    println!("== Table IV — model complexity ==");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "model", "modules", "params", "multiple", "paper"
    );
    // Reference: one player's parameter count (half of RNP).
    let rnp = models::by_name("RNP", &cfg, &emb, &data, 1, &mut rng).expect("paper model");
    let single = rnp.num_params() / 2;
    let paper = [
        ("RNP", "2x"),
        ("CAR", "3x"),
        ("DMR", "4x"),
        ("A2R", "3x"),
        ("DAR", "3x"),
        ("3PLAYER", "3x"),
        ("Inter_RAT", "2x"),
        ("VIB", "-"),
    ];
    for (name, paper_mult) in paper {
        let m = models::by_name(name, &cfg, &emb, &data, 1, &mut rng).expect("paper model");
        let (gens, preds) = m.player_modules();
        // DAR's frozen discriminator is excluded from trainable params but
        // still occupies memory; count it for the multiple.
        let trainable = m.num_params();
        let total = match name {
            "DAR" => trainable + single,
            _ => trainable,
        };
        println!(
            "{name:<12} {:>12} {:>12} {:>9.1}x {:>8}",
            format!("{gens}gen+{preds}pred"),
            total,
            total as f32 / single as f32,
            paper_mult
        );
    }
    println!("\nnote: this DMR folds the paper's class-wise predictor pair into one");
    println!("conditioned head (3x here vs 4x in the paper); DAR's 3x includes the");
    println!("frozen predictor^t, of which only 2x is trainable.");
}
