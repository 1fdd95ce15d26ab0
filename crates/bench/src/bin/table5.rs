//! Table V: SynBeer with **low rationale sparsity** (α ≈ 0.10–0.12, below
//! the human level) for RNP, CAR, DMR, and DAR.
//!
//! ```sh
//! DAR_PROFILE=quick cargo run --release -p dar-bench --bin table5
//! ```

use dar_bench::{print_header, Profile};
use dar_core::prelude::*;

fn main() {
    let profile = Profile::from_env();
    let methods = ["RNP", "CAR", "DMR", "DAR"];
    for (aspect, alpha) in [
        (Aspect::Appearance, 0.115),
        (Aspect::Aroma, 0.105),
        (Aspect::Palate, 0.10),
    ] {
        // Override the per-aspect alpha with the low-sparsity setting.
        let cfg = RationaleConfig {
            sparsity: alpha,
            ..Default::default()
        };
        print_header(
            &format!(
                "Table V — SynBeer {} (low sparsity α={alpha})",
                aspect.name()
            ),
            &profile,
        );
        for name in methods {
            let m = run_mean_fixed_alpha(name, aspect, &cfg, &profile);
            println!("{name:<16} {}", m.row());
        }
        println!();
    }
    println!("paper shape: under tight budgets precision rises and recall falls;");
    println!("DAR stays best (71.7/68.5/58.2 F1 vs RNP's 56.2/57.3/47.5).");
}

/// Like [`dar_bench::run_mean`] but keeping the caller's α instead of the
/// per-aspect human level.
fn run_mean_fixed_alpha(
    name: &str,
    aspect: Aspect,
    cfg: &RationaleConfig,
    profile: &Profile,
) -> dar_bench::MeanMetrics {
    let metrics: Vec<RationaleMetrics> = profile
        .seeds
        .iter()
        .map(|&seed| {
            let data = dar_bench::dataset(aspect, profile, seed);
            let mut rng = dar_core::rng(seed.wrapping_mul(2654435761).wrapping_add(7));
            let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
            let mut model = dar_core::models::by_name(
                name,
                cfg,
                &emb,
                &data,
                profile.pretrain_epochs,
                &mut rng,
            )
            .expect("paper model");
            Trainer::new(profile.train_config())
                .fit(model.as_mut(), &data, &mut rng)
                .test
        })
        .collect();
    dar_bench::MeanMetrics::of(&metrics)
}
