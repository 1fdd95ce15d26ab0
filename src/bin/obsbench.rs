//! `obsbench` — overhead benchmark for the observability layer.
//!
//! Runs the same seeded training workload twice — once with `dar-obs`
//! disabled (every instrumentation site reduced to one relaxed atomic
//! load) and once with it enabled (spans, counters, journal) — and
//! records the throughput of each plus the relative overhead into
//! `results/BENCH_obs.json`. The layer's budget is < 3% (DESIGN.md §12);
//! the run exits non-zero past it so CI catches an instrumentation
//! regression (a span on a per-element path, a lock on a hot loop)
//! before it lands.
//!
//! ```sh
//! obsbench                       # defaults: 60 steps, batch 32, seed 42
//! obsbench --steps 120 --batch 32 --seed 7 --out results
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dar::cli::flag;
use dar::prelude::*;

/// Examples/second for `steps` optimisation steps on a fresh,
/// identically-seeded model. The model is rebuilt per run so both
/// passes traverse the same loss landscape from the same init.
fn run(data: &dar::data::AspectDataset, steps: usize, batch_size: usize, seed: u64) -> f64 {
    let cfg = RationaleConfig {
        emb_dim: 32,
        hidden: 32,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(data);
    let mut rng = dar::rng(seed);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    let mut model = Rnp::new(&cfg, &emb, ml, &mut rng);
    let batches: Vec<_> = BatchIter::sequential(&data.train, batch_size).collect();

    // Warm-up: a few untimed steps so allocator and cache state match.
    for b in batches.iter().cycle().take(4) {
        model.train_step(b, &mut rng);
    }
    let started = Instant::now();
    for b in batches.iter().cycle().take(steps) {
        let loss = model.train_step(b, &mut rng);
        assert!(loss.is_finite(), "benchmark workload diverged");
    }
    let secs = started.elapsed().as_secs_f64();
    (steps * batch_size) as f64 / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: obsbench [--steps N] [--batch N] [--seed N] [--out DIR]");
        std::process::exit(2);
    }
    let steps = flag(&args, "--steps").unwrap_or(60);
    let batch_size = flag(&args, "--batch").unwrap_or(32);
    let seed = flag(&args, "--seed").unwrap_or(42);
    let out_dir = flag(&args, "--out").unwrap_or_else(|| PathBuf::from("results"));

    let synth = SynthConfig {
        n_train: 128,
        n_dev: 16,
        n_test: 16,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(seed));

    eprintln!("[obsbench] {steps} steps x batch {batch_size}, seed {seed}");
    // Interleave off/on passes and keep the best of each so a one-off
    // scheduler hiccup cannot masquerade as instrumentation overhead.
    // The registry is reset between instrumented passes so span/journal
    // state cannot accumulate across rounds.
    let mut off_eps: f64 = 0.0;
    let mut on_eps: f64 = 0.0;
    for round in 0..3 {
        dar::obs::set_enabled(false);
        let off = run(&data, steps, batch_size, seed);
        dar::obs::reset();
        dar::obs::set_enabled(true);
        let on = run(&data, steps, batch_size, seed);
        eprintln!("[obsbench] round {round}: off {off:.0} ex/s, on {on:.0} ex/s");
        off_eps = off_eps.max(off);
        on_eps = on_eps.max(on);
    }
    let overhead_pct = (off_eps / on_eps - 1.0) * 100.0;

    eprintln!(
        "[obsbench] off {off_eps:.0} ex/s, on {on_eps:.0} ex/s, \
         overhead {overhead_pct:.2}% (budget < 3%)"
    );

    std::fs::create_dir_all(&out_dir).expect("creating output dir");
    let json = format!(
        "{{\"steps\": {steps}, \"batch_size\": {batch_size}, \"seed\": {seed}, \
          \"off_examples_per_s\": {off_eps:.2}, \
          \"on_examples_per_s\": {on_eps:.2}, \
          \"overhead_pct\": {overhead_pct:.2}, \"target_pct\": 3.0}}\n"
    );
    std::fs::write(out_dir.join("BENCH_obs.json"), json).expect("writing BENCH_obs.json");

    // The instrumented snapshot of the final round doubles as a smoke
    // check that the hot paths actually reported in.
    let snap = dar::obs::snapshot("obsbench");
    assert!(
        snap.spans.iter().any(|s| s.path.contains("matmul")),
        "no matmul span recorded — instrumentation is not reaching the kernels"
    );

    if overhead_pct > 3.0 {
        eprintln!("[obsbench] FAIL: observability overhead {overhead_pct:.2}% > 3% budget");
        std::process::exit(1);
    }
    eprintln!("[obsbench] ok");
}
