//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! 1. frozen vs co-trained discriminator (the DAR-vs-DMR-family argument);
//! 2. the discriminative-loss weight of Eq. (6);
//! 3. straight-through vs soft Gumbel masks;
//! 4. decorrelated vs raw (correlated) Beer labels.
//!
//! ```sh
//! DAR_PROFILE=quick cargo run --release -p dar-bench --bin ablations
//! ```

use dar_bench::{aspect_alpha, dataset, Profile};
use dar_core::prelude::*;

fn main() {
    let profile = Profile::from_env();
    let aspect = Aspect::Aroma;
    let seed = profile.seeds[0];
    println!(
        "== Ablations on SynBeer-{} (profile {}, seed {seed}) ==\n",
        aspect.name(),
        profile.name
    );

    // ------------------------------------------------------------------
    // 1. Frozen vs co-trained discriminator.
    // ------------------------------------------------------------------
    println!("[1] frozen vs co-trained discriminator");
    let cfg = RationaleConfig {
        sparsity: aspect_alpha(aspect),
        ..Default::default()
    };
    let frozen = dar_bench::run_once("DAR", aspect, &cfg, &profile, seed);
    // Co-trained: DMR has exactly that structure (full-text module trained
    // jointly); compare against it plus plain RNP as the no-alignment
    // floor.
    let cotrained = dar_bench::run_once("DMR", aspect, &cfg, &profile, seed);
    let none = dar_bench::run_once("RNP", aspect, &cfg, &profile, seed);
    println!(
        "  DAR  (frozen disc)     F1 {:>5.1}",
        frozen.test.f1 * 100.0
    );
    println!(
        "  DMR  (co-trained disc) F1 {:>5.1}",
        cotrained.test.f1 * 100.0
    );
    println!(
        "  RNP  (no alignment)    F1 {:>5.1}\n",
        none.test.f1 * 100.0
    );

    // ------------------------------------------------------------------
    // 2. Discriminative-loss weight sweep.
    // ------------------------------------------------------------------
    println!("[2] Eq.(6) alignment weight sweep");
    for w in [0.0f32, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let cfg = RationaleConfig {
            aux_weight: w,
            sparsity: aspect_alpha(aspect),
            ..Default::default()
        };
        let rep = dar_bench::run_once("DAR", aspect, &cfg, &profile, seed);
        println!(
            "  w={w:<5} F1 {:>5.1}  full-text acc {:>5.1}",
            rep.test.f1 * 100.0,
            rep.test.full_text_acc.unwrap_or(0.0) * 100.0
        );
    }
    println!("  (w=0 reduces DAR to RNP; the paper uses w=1)\n");

    // ------------------------------------------------------------------
    // 3. Gumbel temperature sweep (sampling regime).
    // ------------------------------------------------------------------
    println!("[3] Gumbel-softmax temperature");
    for tau in [0.3f32, 0.7, 1.5, 3.0] {
        let cfg = RationaleConfig {
            tau,
            sparsity: aspect_alpha(aspect),
            ..Default::default()
        };
        let rep = dar_bench::run_once("DAR", aspect, &cfg, &profile, seed);
        println!("  tau={tau:<4} F1 {:>5.1}", rep.test.f1 * 100.0);
    }
    println!();

    // ------------------------------------------------------------------
    // 4. Decorrelated vs raw labels (why Lei et al.'s subsets matter).
    // ------------------------------------------------------------------
    println!("[4] decorrelated vs raw (correlated) labels");
    for (label, corr) in [
        ("decorrelated (paper)", 0.0f32),
        ("raw-style corr=0.7", 0.7),
    ] {
        let mut rng = dar_core::rng(seed);
        let dcfg = SynthConfig {
            correlation: corr,
            ..SynthConfig::beer(aspect)
        };
        let data = SynBeer::generate(&dcfg.scaled(profile.scale), &mut rng);
        let cfg = RationaleConfig {
            sparsity: aspect_alpha(aspect),
            ..Default::default()
        };
        let mut rng2 = dar_core::rng(seed + 3);
        let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng2);
        let mut model =
            dar_core::models::by_name("RNP", &cfg, &emb, &data, profile.pretrain_epochs, &mut rng2)
                .expect("paper model");
        let rep = Trainer::new(profile.train_config()).fit(model.as_mut(), &data, &mut rng2);
        println!(
            "  RNP on {label:<22} F1 {:>5.1} (precision {:>5.1})",
            rep.test.f1 * 100.0,
            rep.test.precision * 100.0
        );
    }
    println!("  (correlated aspects make other aspects' sentiment words predictive,");
    println!("   dragging precision down — the reason the paper uses decorrelated subsets)");
    let _ = dataset(aspect, &profile, seed); // keep the helper linked
}
