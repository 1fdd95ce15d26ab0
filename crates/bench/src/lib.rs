//! `dar-bench`: the experiment harness. One binary per table/figure of the
//! paper (see DESIGN.md §5); this library holds the shared plumbing —
//! profiles, per-aspect configurations, model construction, seed averaging,
//! and table formatting.
//!
//! Every binary honours the `DAR_PROFILE` environment variable:
//!
//! * `quick`    — smallest datasets/epochs; smoke-test the full pipeline.
//! * `standard` — the default; balances fidelity and CPU wall-clock.
//! * `full`     — paper-scaled synthetic corpora; slowest, best fidelity.

use dar_core::models;
use dar_core::prelude::*;

/// Experiment scale profile.
#[derive(Debug, Clone)]
pub struct Profile {
    pub name: &'static str,
    /// Multiplier on the default split sizes of `SynthConfig`.
    pub scale: f32,
    pub epochs: usize,
    pub pretrain_epochs: usize,
    pub batch: usize,
    pub seeds: Vec<u64>,
}

impl Profile {
    /// Sized so the cooperative game gets ~200 optimizer steps — the
    /// minimum at which the generator reliably escapes the empty-mask
    /// local optimum on this corpus scale.
    pub fn quick() -> Self {
        Profile {
            name: "quick",
            scale: 0.4,
            epochs: 10,
            pretrain_epochs: 6,
            batch: 32,
            seeds: vec![17],
        }
    }

    pub fn standard() -> Self {
        Profile {
            name: "standard",
            scale: 0.6,
            epochs: 14,
            pretrain_epochs: 6,
            batch: 32,
            seeds: vec![17, 43],
        }
    }

    pub fn full() -> Self {
        Profile {
            name: "full",
            scale: 1.0,
            epochs: 20,
            pretrain_epochs: 8,
            batch: 64,
            seeds: vec![17, 43, 71],
        }
    }

    /// Read `DAR_PROFILE` (default `standard`).
    pub fn from_env() -> Self {
        match std::env::var("DAR_PROFILE").as_deref() {
            Ok("quick") => Self::quick(),
            Ok("full") => Self::full(),
            Ok("standard") | Err(_) => Self::standard(),
            Ok(other) => {
                eprintln!("unknown DAR_PROFILE '{other}', using standard");
                Self::standard()
            }
        }
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch,
            patience: Some((self.epochs / 2).max(3)),
            ..Default::default()
        }
    }
}

/// Write the observability snapshot of a finished experiment binary to
/// `results/obs_<run>.json`. Best-effort: a snapshot failure must never
/// fail the experiment that produced the actual numbers.
pub fn write_obs(run: &str) {
    match dar_obs::write_snapshot(std::path::Path::new("results"), run) {
        Ok(p) => println!("obs snapshot: {}", p.display()),
        Err(e) => eprintln!("obs snapshot failed: {e}"),
    }
}

/// Target rationale sparsity per aspect — set near the human-annotation
/// sparsity (Table IX), as the paper does for its main tables.
pub fn aspect_alpha(aspect: Aspect) -> f32 {
    match aspect {
        Aspect::Appearance => 0.19,
        Aspect::Aroma => 0.16,
        Aspect::Palate => 0.13,
        Aspect::Location => 0.10,
        Aspect::Service => 0.12,
        Aspect::Cleanliness => 0.10,
    }
}

/// Generate the aspect's dataset at the profile's scale.
pub fn dataset(aspect: Aspect, profile: &Profile, seed: u64) -> AspectDataset {
    let mut rng = dar_core::rng(seed);
    match aspect {
        Aspect::Appearance | Aspect::Aroma | Aspect::Palate => {
            SynBeer::generate(&SynthConfig::beer(aspect).scaled(profile.scale), &mut rng)
        }
        _ => SynHotel::generate(&SynthConfig::hotel(aspect).scaled(profile.scale), &mut rng),
    }
}

/// One full (dataset, model) run for one seed.
pub fn run_once(
    model_name: &str,
    aspect: Aspect,
    cfg_base: &RationaleConfig,
    profile: &Profile,
    seed: u64,
) -> TrainReport {
    let _span = dar_obs::span("bench_run");
    let data = dataset(aspect, profile, seed);
    let cfg = RationaleConfig {
        sparsity: aspect_alpha(aspect),
        ..*cfg_base
    };
    let mut rng = dar_core::rng(seed.wrapping_mul(2654435761).wrapping_add(7));
    let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
    let mut model = models::by_name(
        model_name,
        &cfg,
        &emb,
        &data,
        profile.pretrain_epochs,
        &mut rng,
    )
    .unwrap_or_else(|| panic!("unknown model '{model_name}'"));
    Trainer::new(profile.train_config()).fit(model.as_mut(), &data, &mut rng)
}

/// Metrics averaged over seeds.
#[derive(Debug, Clone, Copy)]
pub struct MeanMetrics {
    pub sparsity: f32,
    pub acc: Option<f32>,
    pub full_acc: Option<f32>,
    pub precision: f32,
    pub recall: f32,
    pub f1: f32,
    pub runs: usize,
}

impl MeanMetrics {
    pub fn of(metrics: &[RationaleMetrics]) -> Self {
        assert!(!metrics.is_empty(), "no runs to average");
        let n = metrics.len() as f32;
        let avg_opt = |f: &dyn Fn(&RationaleMetrics) -> Option<f32>| {
            let vals: Vec<f32> = metrics.iter().filter_map(f).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f32>() / vals.len() as f32)
            }
        };
        MeanMetrics {
            sparsity: metrics.iter().map(|m| m.sparsity).sum::<f32>() / n,
            acc: avg_opt(&|m| m.acc),
            full_acc: avg_opt(&|m| m.full_text_acc),
            precision: metrics.iter().map(|m| m.precision).sum::<f32>() / n,
            recall: metrics.iter().map(|m| m.recall).sum::<f32>() / n,
            f1: metrics.iter().map(|m| m.f1).sum::<f32>() / n,
            runs: metrics.len(),
        }
    }

    /// `S Acc P R F1` row in percent, `N/A` for missing accuracy.
    pub fn row(&self) -> String {
        let acc = self
            .acc
            .map_or(" N/A".to_owned(), |a| format!("{:5.1}", a * 100.0));
        format!(
            "{:5.1} {acc} {:5.1} {:5.1} {:5.1}",
            self.sparsity * 100.0,
            self.precision * 100.0,
            self.recall * 100.0,
            self.f1 * 100.0
        )
    }
}

/// Run a model over all profile seeds and average.
///
/// Seeds fan out across the `dar-par` pool: each run is fully independent
/// and thread-confined (tensors never cross threads), and results come
/// back in seed order, so the mean is identical to the serial sweep.
pub fn run_mean(
    model_name: &str,
    aspect: Aspect,
    cfg: &RationaleConfig,
    profile: &Profile,
) -> MeanMetrics {
    let metrics: Vec<RationaleMetrics> = dar_par::run_shards(profile.seeds.len(), |i| {
        run_once(model_name, aspect, cfg, profile, profile.seeds[i]).test
    });
    MeanMetrics::of(&metrics)
}

/// Print the standard table header.
pub fn print_header(title: &str, profile: &Profile) {
    println!("== {title} ==");
    println!(
        "(profile: {}, scale {:.2}, {} epochs, seeds {:?})",
        profile.name, profile.scale, profile.epochs, profile.seeds
    );
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "method", "S", "Acc", "P", "R", "F1"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_from_env_default() {
        // No env var in tests: default is standard.
        std::env::remove_var("DAR_PROFILE");
        assert_eq!(Profile::from_env().name, "standard");
    }

    #[test]
    fn alphas_track_table_ix_ordering() {
        assert!(aspect_alpha(Aspect::Appearance) > aspect_alpha(Aspect::Palate));
        assert!(aspect_alpha(Aspect::Service) > aspect_alpha(Aspect::Location));
    }

    #[test]
    fn mean_metrics_averages() {
        let a = RationaleMetrics {
            precision: 0.4,
            recall: 0.6,
            f1: 0.48,
            sparsity: 0.1,
            acc: Some(0.8),
            full_text_acc: None,
        };
        let b = RationaleMetrics {
            precision: 0.6,
            acc: Some(0.9),
            ..a
        };
        let m = MeanMetrics::of(&[a, b]);
        assert!((m.precision - 0.5).abs() < 1e-6);
        assert_eq!(m.acc, Some(0.85));
        assert_eq!(m.full_acc, None);
        assert_eq!(m.runs, 2);
    }
}
