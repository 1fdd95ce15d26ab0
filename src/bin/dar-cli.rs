//! `dar-cli` — train and inspect rationalization models from the command
//! line.
//!
//! ```sh
//! dar-cli stats                      # dataset statistics (Table IX style)
//! dar-cli train DAR aroma            # train a model on an aspect
//! dar-cli train RNP service --epochs 8 --scale 0.3 --seed 7
//! dar-cli train DAR aroma --checkpoint-dir ckpts        # durable epochs
//! dar-cli train DAR aroma --checkpoint-dir ckpts --resume   # continue
//! dar-cli train RNP aroma --guard                   # divergence guards
//! dar-cli train RNP aroma --checkpoint-dir ckpts --resume --guard
//! dar-cli show DAR palate            # train briefly, dump rationales
//! ```

use std::path::PathBuf;

use dar::cli::{bool_flag, checked, flag, Spec};
use dar::core::guard::GuardPolicy;
use dar::core::models;
use dar::data::DatasetStats;
use dar::prelude::*;

const USAGE: &str = "\
usage: dar-cli <stats | train MODEL ASPECT | show MODEL ASPECT>
  MODEL:  RNP DAR A2R DMR Inter_RAT CAR 3PLAYER VIB RNP-os
  ASPECT: appearance aroma palate location service cleanliness
  flags:  --epochs N  --scale F  --seed N  --sparsity F
          --checkpoint-dir DIR   save a durable checkpoint every epoch
          --resume               continue from the checkpoint in DIR
          --guard                train with divergence guards + rollback
          --obs-out DIR          write the obs snapshot to DIR/obs_cli.json";

/// `stats` takes no arguments.
const STATS: Spec = Spec {
    usage: USAGE,
    valued: &[],
    switches: &[],
    positionals: 0,
};

/// `train` and `show`: MODEL, ASPECT and the flags.
const TRAIN: Spec = Spec {
    usage: USAGE,
    valued: &[
        "--epochs",
        "--scale",
        "--seed",
        "--sparsity",
        "--checkpoint-dir",
        "--obs-out",
    ],
    switches: &["--resume", "--guard"],
    positionals: 2,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("stats") => {
            checked(rest, &STATS);
            stats()
        }
        Some("train") => train(rest, false),
        Some("show") => train(rest, true),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn parse_aspect(s: &str) -> Aspect {
    match s.to_lowercase().as_str() {
        "appearance" => Aspect::Appearance,
        "aroma" => Aspect::Aroma,
        "palate" => Aspect::Palate,
        "location" => Aspect::Location,
        "service" => Aspect::Service,
        "cleanliness" => Aspect::Cleanliness,
        other => {
            eprintln!("unknown aspect '{other}'");
            std::process::exit(2);
        }
    }
}

fn make_dataset(aspect: Aspect, scale: f32, seed: u64) -> AspectDataset {
    let mut rng = dar::rng(seed);
    match aspect.domain() {
        dar::data::Domain::Beer => {
            SynBeer::generate(&SynthConfig::beer(aspect).scaled(scale), &mut rng)
        }
        dar::data::Domain::Hotel => {
            SynHotel::generate(&SynthConfig::hotel(aspect).scaled(scale), &mut rng)
        }
    }
}

fn stats() {
    for aspect in [
        Aspect::Appearance,
        Aspect::Aroma,
        Aspect::Palate,
        Aspect::Location,
        Aspect::Service,
        Aspect::Cleanliness,
    ] {
        let data = make_dataset(aspect, 0.25, 17);
        println!("{}", DatasetStats::compute(&data));
    }
}

/// The numeric flags of `train` and `show`, defaults applied.
#[derive(Debug, PartialEq)]
struct TrainFlags {
    epochs: usize,
    scale: f32,
    seed: u64,
    sparsity: f32,
}

/// Each flag parses as its own type, so a seed above 2^24 is not rounded
/// through `f32`; a value that does not parse (a fractional `--epochs`)
/// reads as absent.
fn train_flags(args: &[String]) -> TrainFlags {
    TrainFlags {
        epochs: flag(args, "--epochs").unwrap_or(10),
        scale: flag(args, "--scale").unwrap_or(0.4),
        seed: flag(args, "--seed").unwrap_or(17),
        sparsity: flag(args, "--sparsity").unwrap_or(0.15),
    }
}

fn train(args: &[String], show: bool) {
    let [model_name, aspect] = checked(args, &TRAIN)[..] else {
        eprintln!("missing MODEL or ASPECT\n{USAGE}");
        std::process::exit(2);
    };
    let aspect = parse_aspect(aspect);
    let TrainFlags {
        epochs,
        scale,
        seed,
        sparsity,
    } = train_flags(args);
    let ckpt_dir: Option<PathBuf> = flag(args, "--checkpoint-dir");
    let obs_out: Option<PathBuf> = flag(args, "--obs-out");
    let resume = bool_flag(args, "--resume");
    if resume && ckpt_dir.is_none() {
        eprintln!("--resume needs --checkpoint-dir DIR");
        std::process::exit(2);
    }

    let data = make_dataset(aspect, scale, seed);
    if let Err(e) = data.validate() {
        eprintln!("dataset failed validation: {e}");
        std::process::exit(1);
    }
    let cfg = RationaleConfig {
        sparsity,
        ..Default::default()
    };
    let mut rng = dar::rng(seed.wrapping_add(1));
    println!(
        "dataset {}: train {} dev {} test {}",
        data.name,
        data.train.len(),
        data.dev.len(),
        data.test.len()
    );
    let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
    let mut model =
        models::by_name(model_name, &cfg, &emb, &data, 6, &mut rng).unwrap_or_else(|| {
            eprintln!("unknown model '{model_name}'");
            std::process::exit(2);
        });
    let trainer = Trainer {
        cfg: TrainConfig {
            epochs,
            verbose: true,
            ..Default::default()
        },
        guard: bool_flag(args, "--guard").then(GuardPolicy::default),
    };
    let ckpt = ckpt_dir.map(|dir| {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        dir.join(format!("{model_name}-{}.dart", data.name))
    });
    let run = match &ckpt {
        Some(path) if resume => trainer.fit_resume(model.as_mut(), &data, &mut rng, path),
        Some(path) => trainer.fit_checkpointed(model.as_mut(), &data, &mut rng, path),
        None => trainer.try_fit(model.as_mut(), &data, &mut rng),
    };
    let report = run.unwrap_or_else(|e| {
        eprintln!("training failed: {e}");
        std::process::exit(1);
    });
    for event in &report.events {
        println!("guard: {event:?}");
    }
    if report.rollbacks() > 0 {
        println!("guard: {} rollback(s) performed", report.rollbacks());
    }
    if let Some(path) = &ckpt {
        println!("checkpoint: {}", path.display());
    }
    if let Some(dir) = &obs_out {
        match dar::obs::write_snapshot(dir, "cli") {
            Ok(p) => println!("obs snapshot: {}", p.display()),
            Err(e) => eprintln!("obs snapshot failed: {e}"),
        }
    }
    println!("\n{:<10}   S   Acc    P     R     F1", report.model_name);
    println!("{:<10} {}", "test", report.test.row());
    if let Some(full) = report.test.full_text_acc {
        println!("full-text probe accuracy: {:.1}%", full * 100.0);
    }

    if show {
        let batch = BatchIter::sequential(&data.test, 3)
            .next()
            .expect("empty test");
        let inf = model.infer(&batch);
        for i in 0..batch.len() {
            let len = batch.lengths[i];
            let toks = data.vocab.decode(&batch.ids[i][..len]);
            let picked: Vec<&str> = (0..len)
                .filter(|&t| inf.masks[i][t] > 0.5)
                .map(|t| toks[t])
                .collect();
            let human: Vec<&str> = (0..len)
                .filter(|&t| batch.rationales[i][t])
                .map(|t| toks[t])
                .collect();
            println!(
                "\nreview {} (label {}): {}",
                i,
                batch.labels[i],
                toks.join(" ")
            );
            println!("  model: {picked:?}");
            println!("  human: {human:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn train_flags_keep_large_seeds_exact() {
        let f = train_flags(&args("DAR aroma --seed 16777217 --epochs 3 --scale 0.2"));
        assert_eq!(
            f,
            TrainFlags {
                epochs: 3,
                scale: 0.2,
                seed: 16_777_217,
                sparsity: 0.15,
            }
        );
        assert_eq!(
            train_flags(&args("--seed 18446744073709551615")).seed,
            u64::MAX
        );
        let defaults = train_flags(&args("DAR aroma --epochs 2.5"));
        assert_eq!((defaults.epochs, defaults.seed), (10, 17));
    }
}
