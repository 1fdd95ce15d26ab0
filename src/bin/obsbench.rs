//! `obsbench` — overhead benchmark for the observability layer.
//!
//! Trains the same seeded workload in paired rounds — one model with
//! `dar-obs` disabled (every instrumentation site reduced to one relaxed
//! atomic load) and one with it enabled (spans, counters, journal) —
//! stepping the two in lockstep, so both sides see the same machine
//! speed, and alternating by round which side steps first, so neither
//! always inherits the other's warm caches. Each round's overhead is
//! `off/on − 1` of its two sides' throughputs; the gate reads the median
//! over the rounds, and the interquartile range says how far the rounds
//! spread. Results go to `results/BENCH_obs.json`. The layer's budget is
//! < 3% (DESIGN.md §12); the run exits non-zero when the median exceeds
//! it, so CI catches an instrumentation regression (a span on a
//! per-element path, a lock on a hot loop) before it lands.
//!
//! ```sh
//! obsbench                       # defaults: 60 steps, batch 32, seed 42
//! obsbench --steps 120 --batch 32 --seed 7 --out results
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dar::cli::{checked, flag, Spec};
use dar::prelude::*;

/// Paired off/on rounds; the gate reads the median of their overheads.
const ROUNDS: usize = 8;

/// Overhead budget, in percent.
const TARGET_PCT: f64 = 3.0;

/// One paired round: an uninstrumented and an instrumented model, built
/// alike from `seed` so both traverse the same loss landscape from the
/// same init, trained in lockstep with the layer switched on only for
/// the instrumented one's steps. Pairing step by step, rather than pass
/// by pass, puts both sides in the same slow spell of a shared machine.
/// `on_first` picks which side steps first in each pair. Returns the
/// examples/second of the off side and of the on side.
fn paired_round(
    data: &dar::data::AspectDataset,
    args: (usize, usize, u64),
    on_first: bool,
) -> (f64, f64) {
    let (steps, batch_size, seed) = args;
    let cfg = RationaleConfig {
        emb_dim: 32,
        hidden: 32,
        sparsity: 0.16,
        ..Default::default()
    };
    let ml = pretrain::max_len(data);
    let batches: Vec<_> = BatchIter::sequential(&data.train, batch_size).collect();
    let mut sides: Vec<_> = (0..2)
        .map(|_| {
            let mut rng = dar::rng(seed);
            let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
            (Rnp::new(&cfg, &emb, ml, &mut rng), rng)
        })
        .collect();
    // Warm-up: a few untimed steps so allocator and cache state match.
    for (on, (model, rng)) in sides.iter_mut().enumerate() {
        dar::obs::set_enabled(on == 1);
        for b in batches.iter().cycle().take(4) {
            model.train_step(b, rng);
        }
    }
    // The registry restarts with each round so span and journal state
    // cannot accumulate across rounds.
    dar::obs::reset();
    let order = if on_first { [1, 0] } else { [0, 1] };
    let mut secs = [0.0f64; 2];
    for b in batches.iter().cycle().take(steps) {
        for on in order {
            let (model, rng) = &mut sides[on];
            dar::obs::set_enabled(on == 1);
            let started = Instant::now();
            let loss = model.train_step(b, rng);
            secs[on] += started.elapsed().as_secs_f64();
            assert!(loss.is_finite(), "benchmark workload diverged");
        }
    }
    let eps = |s: f64| (steps * batch_size) as f64 / s;
    (eps(secs[0]), eps(secs[1]))
}

const SPEC: Spec = Spec {
    usage: "usage: obsbench [--steps N] [--batch N] [--seed N] [--out DIR]",
    valued: &["--steps", "--batch", "--seed", "--out"],
    switches: &[],
    positionals: 0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    checked(&args, &SPEC);
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

    eprintln!("[obsbench] {steps} steps x batch {batch_size}, seed {seed}, {ROUNDS} rounds");
    let mut off_eps: f64 = 0.0;
    let mut on_eps: f64 = 0.0;
    let mut overheads = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let on_first = round % 2 == 1;
        let (off, on) = paired_round(&data, (steps, batch_size, seed), on_first);
        let pct = (off / on - 1.0) * 100.0;
        let first = if on_first { "on" } else { "off" };
        eprintln!(
            "[obsbench] round {round} ({first} first): off {off:.0} ex/s, on {on:.0} ex/s, \
             overhead {pct:+.2}%"
        );
        off_eps = off_eps.max(off);
        on_eps = on_eps.max(on);
        overheads.push(pct);
    }
    let (q1, median_pct, q3) = quartiles(&mut overheads);
    let iqr_pct = q3 - q1;

    eprintln!(
        "[obsbench] overhead median {median_pct:+.2}%, IQR {iqr_pct:.2}% \
         ({q1:+.2}% .. {q3:+.2}%; budget < {TARGET_PCT}%); \
         best off {off_eps:.0} ex/s, best on {on_eps:.0} ex/s"
    );

    std::fs::create_dir_all(&out_dir).expect("creating output dir");
    let json = format!(
        "{{\"steps\": {steps}, \"batch_size\": {batch_size}, \"seed\": {seed}, \
          \"rounds\": {ROUNDS}, \
          \"off_examples_per_s\": {off_eps:.2}, \
          \"on_examples_per_s\": {on_eps:.2}, \
          \"overhead_median_pct\": {median_pct:.2}, \
          \"overhead_iqr_pct\": {iqr_pct:.2}, \"target_pct\": {TARGET_PCT:.1}}}\n"
    );
    std::fs::write(out_dir.join("BENCH_obs.json"), json).expect("writing BENCH_obs.json");

    // The instrumented snapshot of the final round doubles as a smoke
    // check that the hot paths actually reported in.
    let snap = dar::obs::snapshot("obsbench");
    assert!(
        snap.spans.iter().any(|s| s.path.contains("matmul")),
        "no matmul span recorded — instrumentation is not reaching the kernels"
    );

    if median_pct > TARGET_PCT {
        eprintln!(
            "[obsbench] FAIL: median observability overhead {median_pct:.2}% > {TARGET_PCT}% budget"
        );
        std::process::exit(1);
    }
    eprintln!("[obsbench] ok");
}

/// First quartile, median and third quartile of `xs`, interpolating
/// linearly between order statistics.
fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (xs.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let mut xs = [4.0, -1.0, 2.0, 3.0, 0.0, 1.0, 6.0, 5.0];
        assert_eq!(quartiles(&mut xs), (0.75, 2.5, 4.25));
        assert_eq!(quartiles(&mut [7.0]), (7.0, 7.0, 7.0));
    }
}
