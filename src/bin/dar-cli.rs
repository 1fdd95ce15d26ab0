//! `dar-cli` — train and inspect rationalization models from the command
//! line.
//!
//! ```sh
//! dar-cli stats                      # dataset statistics (Table IX style)
//! dar-cli train DAR aroma            # train a model on an aspect
//! dar-cli train RNP service --epochs 8 --scale 0.3 --seed 7
//! dar-cli train DAR aroma --checkpoint-dir ckpts        # durable epochs
//! dar-cli train DAR aroma --checkpoint-dir ckpts --resume   # continue
//! dar-cli train DAR aroma --checkpoint-dir ckpts --guard    # divergence guards
//! dar-cli show DAR palate            # train briefly, dump rationales
//! ```

use std::path::PathBuf;

use dar::cli::{bool_flag, flag};
use dar::core::guard::{GuardPolicy, GuardedTrainer, TrainEvent};
use dar::core::models;
use dar::data::DatasetStats;
use dar::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => stats(),
        Some("train") => train(&args[1..], false),
        Some("show") => train(&args[1..], true),
        _ => {
            eprintln!("usage: dar-cli <stats | train MODEL ASPECT | show MODEL ASPECT>");
            eprintln!("  MODEL:  RNP DAR A2R DMR Inter_RAT CAR 3PLAYER VIB RNP-os");
            eprintln!("  ASPECT: appearance aroma palate location service cleanliness");
            eprintln!("  flags:  --epochs N  --scale F  --seed N  --sparsity F");
            eprintln!("          --checkpoint-dir DIR   save a durable checkpoint every epoch");
            eprintln!("          --resume               continue from the checkpoint in DIR");
            eprintln!("          --guard                train with divergence guards + rollback");
            eprintln!(
                "          --obs-out DIR          write the obs snapshot to DIR/obs_cli.json"
            );
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

fn train(args: &[String], show: bool) {
    let model_name = args.first().cloned().unwrap_or_else(|| {
        eprintln!("missing MODEL");
        std::process::exit(2);
    });
    let aspect = parse_aspect(args.get(1).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing ASPECT");
        std::process::exit(2);
    }));
    let epochs = flag::<f32>(args, "--epochs")
        .map(|v| v as usize)
        .unwrap_or(10);
    let scale = flag::<f32>(args, "--scale").unwrap_or(0.4);
    let seed = flag::<f32>(args, "--seed").map(|v| v as u64).unwrap_or(17);
    let sparsity = flag::<f32>(args, "--sparsity").unwrap_or(0.15);
    let ckpt_dir: Option<PathBuf> = flag(args, "--checkpoint-dir");
    let obs_out: Option<PathBuf> = flag(args, "--obs-out");
    let resume = bool_flag(args, "--resume");
    let guard = bool_flag(args, "--guard");
    if (resume || guard) && ckpt_dir.is_none() {
        eprintln!("--resume/--guard need --checkpoint-dir DIR");
        std::process::exit(2);
    }
    if resume && guard {
        eprintln!("--resume continues with the plain trainer; drop --guard to resume");
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
    let mut rng = dar::rng(seed + 1);
    println!(
        "dataset {}: train {} dev {} test {}",
        data.name,
        data.train.len(),
        data.dev.len(),
        data.test.len()
    );
    let emb = SharedEmbedding::pretrained(&data, cfg.emb_dim, &mut rng);
    let mut model =
        models::by_name(&model_name, &cfg, &emb, &data, 6, &mut rng).unwrap_or_else(|| {
            eprintln!("unknown model '{model_name}'");
            std::process::exit(2);
        });
    let tcfg = TrainConfig {
        epochs,
        verbose: true,
        ..Default::default()
    };
    let ckpt = ckpt_dir.map(|dir| {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create checkpoint dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        dir.join(format!("{model_name}-{}.dart", data.name))
    });
    let report = match (&ckpt, guard, resume) {
        (Some(path), true, false) => {
            // Guarded training implies per-epoch checkpoints (the rollback
            // target); a crashed guarded run is resumable with --resume.
            let guarded = GuardedTrainer::new(tcfg, GuardPolicy::default())
                .fit(model.as_mut(), &data, &mut rng, path)
                .unwrap_or_else(|e| {
                    eprintln!("guarded training failed: {e}");
                    std::process::exit(1);
                });
            for event in &guarded.events {
                if !matches!(event, TrainEvent::EpochDone { .. }) {
                    println!("guard: {event:?}");
                }
            }
            if guarded.rollbacks > 0 {
                println!("guard: {} rollback(s) performed", guarded.rollbacks);
            }
            guarded.report
        }
        (Some(path), false, true) => Trainer::new(tcfg)
            .fit_resume(model.as_mut(), &data, &mut rng, path)
            .unwrap_or_else(|e| {
                eprintln!("resume from {} failed: {e}", path.display());
                std::process::exit(1);
            }),
        (Some(path), false, false) => Trainer::new(tcfg)
            .fit_checkpointed(model.as_mut(), &data, &mut rng, path)
            .unwrap_or_else(|e| {
                eprintln!("checkpointed training failed: {e}");
                std::process::exit(1);
            }),
        (Some(_), true, true) => unreachable!("rejected at argument parsing"),
        (None, _, _) => Trainer::new(tcfg).fit(model.as_mut(), &data, &mut rng),
    };
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
