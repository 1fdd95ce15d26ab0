//! `numbench --kernels` — benchmark of the pluggable kernel backends
//! (DESIGN.md §17): gemm / bmm / gru_bptt / softmax / layer_norm
//! throughput under `ReferenceKernel` vs `BlockedKernel`, plus end-to-end
//! training examples/s on both, recorded in `results/BENCH_kernels.json`.
//! Each kernel runs in paired rounds, as `obsbench` does: a round
//! alternates the two backends pass by pass, so both sides of it see the
//! same machine speed, and its ratio compares each side's best pass. On
//! SIMD-capable machines it hard-fails when the median of a kernel's
//! per-round blocked/reference ratios falls below its floor: 2× on gemm,
//! gru_bptt and softmax, 1.4× on bmm, 1.3× on layer_norm and end to end.
//!
//! ```sh
//! numbench --kernels --out results
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dar::cli::{bool_flag, checked, flag, Spec};
use dar::prelude::*;
use dar::tensor::ops::kernel::blocked::simd_level;
use dar::tensor::ops::rnn::gru_seq;
use dar::tensor::{kernel_for, with_kernel_backend, KernelBackend};
use dar::Tensor;

/// Examples/second for `steps` optimisation steps on a fresh,
/// identically-seeded model. The model is rebuilt per run so every
/// pass traverses the same loss landscape from the same init.
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

/// Deterministic pseudo-random fill, no RNG dependency.
fn fill(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 2654435761 + salt * 97_003) % 2048) as f32) / 1024.0 - 1.0)
        .collect()
}

/// Paired rounds per kernel; the floors gate the median of their ratios.
const ROUNDS: usize = 9;

/// Timed passes per backend in a round, interleaved; the round's ratio
/// compares each backend's best pass, so a pass another process slowed
/// down does not decide it.
const PASSES: usize = 3;

/// One kernel's paired rounds: each backend's best throughput, and the
/// median and range of the per-round blocked/reference ratios.
struct Paired {
    reference: f64,
    blocked: f64,
    ratio: f64,
    lo: f64,
    hi: f64,
}

/// Run `pass` (one timed pass under a backend, returning its throughput)
/// in `ROUNDS` paired rounds. A round alternates the two backends pass by
/// pass, and the backend that goes first alternates by round, so both
/// sides of a round see the same machine speed and drift between rounds
/// cancels out of each round's ratio.
fn paired(mut pass: impl FnMut(KernelBackend) -> f64) -> Paired {
    const SIDES: [KernelBackend; 2] = [KernelBackend::Reference, KernelBackend::Blocked];
    // Warm-up: one untimed pass each so allocator and cache state match.
    for side in SIDES {
        pass(side);
    }
    let mut best = [0.0f64; 2];
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut round_best = [0.0f64; 2];
        for i in (round..round + 2 * PASSES).map(|k| k % 2) {
            round_best[i] = round_best[i].max(pass(SIDES[i]));
            best[i] = best[i].max(round_best[i]);
        }
        ratios.push(round_best[1] / round_best[0]);
    }
    ratios.sort_by(f64::total_cmp);
    Paired {
        reference: best[0],
        blocked: best[1],
        ratio: ratios[ROUNDS / 2],
        lo: ratios[0],
        hi: ratios[ROUNDS - 1],
    }
}

/// Seconds per call of `f` over `iters` calls, after one untimed call
/// that warms the caches for this backend.
fn timed(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() / iters as f64
}

/// GFLOP/s of the raw `Kernel::gemm` entry point (no graph overhead).
fn gemm_pass(backend: KernelBackend) -> f64 {
    let kern = kernel_for(backend);
    let (m, k, n) = (256usize, 256usize, 256usize);
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    let secs = timed(20, || kern.gemm(&a, &b, &mut c, m, k, n));
    (2 * m * k * n) as f64 / secs / 1e9
}

/// GFLOP/s of batched matmul through the full tensor op.
fn bmm_pass(backend: KernelBackend) -> f64 {
    with_kernel_backend(backend, || {
        let (bb, m, k, n) = (16usize, 64usize, 64usize, 64usize);
        let a = Tensor::new(fill(bb * m * k, 3), &[bb, m, k]);
        let b = Tensor::new(fill(bb * k * n, 4), &[bb, k, n]);
        let secs = timed(100, || drop(a.bmm(&b)));
        (2 * bb * m * k * n) as f64 / secs / 1e9
    })
}

/// Sequences/s of a fused GRU forward + full BPTT backward.
fn gru_bptt_pass(backend: KernelBackend) -> f64 {
    with_kernel_backend(backend, || {
        let (b, l, e, h) = (32usize, 40usize, 32usize, 32usize);
        let x = Tensor::param(fill(b * l * e, 5), &[b, l, e]);
        let w_zr = Tensor::param(fill((e + h) * 2 * h, 6), &[e + h, 2 * h]);
        let b_zr = Tensor::param(fill(2 * h, 7), &[2 * h]);
        let w_h = Tensor::param(fill((e + h) * h, 8), &[e + h, h]);
        let b_h = Tensor::param(fill(h, 9), &[h]);
        let secs = timed(20, || {
            gru_seq(&x, None, &w_zr, &b_zr, &w_h, &b_h, false)
                .sum()
                .backward()
        });
        b as f64 / secs
    })
}

/// Million elements/s of a raw forward row kernel.
fn rows_pass(backend: KernelBackend, which: &str) -> f64 {
    let kern = kernel_for(backend);
    let (rows, c) = (2048usize, 128usize);
    let x = fill(rows * c, 10);
    let gamma = fill(c, 11);
    let beta = fill(c, 12);
    let mut out = vec![0.0f32; rows * c];
    let mut xhat = vec![0.0f32; rows * c];
    let mut inv_std = vec![0.0f32; rows];
    let secs = timed(50, || match which {
        "softmax" => kern.softmax_rows(&x, &mut out, c),
        "layer_norm" => kern.layer_norm_rows(
            &x,
            &gamma,
            &beta,
            &mut out,
            &mut xhat,
            &mut inv_std,
            c,
            1e-5,
        ),
        other => unreachable!("unknown row kernel '{other}'"),
    });
    (rows * c) as f64 / secs / 1e6
}

fn kernels_main(out_dir: &std::path::Path) {
    let level = simd_level();
    eprintln!("[numbench] kernel sweep: simd_level {level}, {ROUNDS} paired rounds per kernel");

    let synth = SynthConfig {
        n_train: 128,
        n_dev: 16,
        n_test: 16,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(42));
    let gemm = paired(gemm_pass);
    let bmm = paired(bmm_pass);
    let gru_bptt = paired(gru_bptt_pass);
    let softmax = paired(|b| rows_pass(b, "softmax"));
    let layer_norm = paired(|b| rows_pass(b, "layer_norm"));
    // End-to-end seeded training throughput.
    let e2e = paired(|b| with_kernel_backend(b, || run(&data, 12, 32, 42)));
    // (name, unit, JSON key suffix, floor, rounds)
    let results = [
        ("gemm", "GF/s", "gflops", 2.0, gemm),
        ("bmm", "GF/s", "gflops", 1.4, bmm),
        ("gru_bptt", "seq/s", "seq_per_s", 2.0, gru_bptt),
        ("softmax", "Me/s", "melem_per_s", 2.0, softmax),
        ("layer_norm", "Me/s", "melem_per_s", 1.3, layer_norm),
        ("e2e", "ex/s", "examples_per_s", 1.3, e2e),
    ];

    let mut json = format!("{{\"simd_level\": {level}, \"rounds\": {ROUNDS}");
    for (name, unit, key, _, p) in &results {
        eprintln!(
            "[numbench] {name:<10} ref {:8.2} {unit:<5} blocked {:8.2} {unit:<5} x{:.2} \
             (rounds x{:.2}..x{:.2})",
            p.reference, p.blocked, p.ratio, p.lo, p.hi
        );
        json += &format!(
            ", \"{name}_ref_{key}\": {:.3}, \"{name}_blocked_{key}\": {:.3}, \
             \"{name}_speedup\": {:.3}",
            p.reference, p.blocked, p.ratio
        );
    }
    json += "}\n";
    std::fs::create_dir_all(out_dir).expect("creating output dir");
    std::fs::write(out_dir.join("BENCH_kernels.json"), json).expect("writing BENCH_kernels.json");

    // The floors only bind where SIMD is available: a scalar-only box
    // cannot promise them.
    if level >= 2 {
        let mut fail = false;
        for (name, _, _, floor, p) in &results {
            if p.ratio < *floor {
                eprintln!(
                    "[numbench] FAIL: {name} median speedup {:.2} < {floor:.1} floor",
                    p.ratio
                );
                fail = true;
            }
        }
        if fail {
            std::process::exit(1);
        }
    }
    eprintln!("[numbench] kernels ok");
}

const SPEC: Spec = Spec {
    usage: "usage: numbench --kernels [--out DIR]",
    valued: &["--out"],
    switches: &["--kernels"],
    positionals: 0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    checked(&args, &SPEC);
    if !bool_flag(&args, "--kernels") {
        eprintln!("{}", SPEC.usage);
        std::process::exit(2);
    }
    let out_dir = flag(&args, "--out").unwrap_or_else(|| PathBuf::from("results"));
    kernels_main(&out_dir);
}
