//! `numbench --kernels` — benchmark of the pluggable kernel backends
//! (DESIGN.md §17): per-kernel best-of-3 throughput for gemm / bmm /
//! gru_bptt / softmax / layer_norm under `ReferenceKernel` vs
//! `BlockedKernel`, plus end-to-end training examples/s on both, recorded
//! in `results/BENCH_kernels.json`. On SIMD-capable machines it hard-fails
//! when a blocked/reference ratio from this run falls below its floor:
//! 2× on gemm, gru_bptt and softmax, 1.4× on bmm, 1.3× on layer_norm and
//! end to end. Both sides of each ratio run in the same process,
//! moments apart, so the machine's drift between runs cancels out.
//!
//! ```sh
//! numbench --kernels --out results
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dar::cli::{bool_flag, flag};
use dar::prelude::*;
use dar::tensor::ops::kernel::blocked::simd_level;
use dar::tensor::ops::rnn::gru_seq;
use dar::tensor::{kernel_for, with_kernel_backend, Kernel, KernelBackend};
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

/// Best-of-`rounds` of whatever throughput `f` reports: a one-off
/// scheduler hiccup must not masquerade as a kernel regression.
fn best_of(rounds: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..rounds {
        best = best.max(f());
    }
    best
}

/// GFLOP/s of the raw `Kernel::gemm` entry point (no graph overhead).
fn bench_gemm(kern: &'static dyn Kernel) -> f64 {
    let (m, k, n) = (256usize, 256usize, 256usize);
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    let iters = 20;
    kern.gemm(&a, &b, &mut c, m, k, n); // warm-up
    best_of(3, || {
        let t = Instant::now();
        for _ in 0..iters {
            kern.gemm(&a, &b, &mut c, m, k, n);
        }
        (2 * m * k * n * iters) as f64 / t.elapsed().as_secs_f64() / 1e9
    })
}

/// GFLOP/s of batched matmul through the full tensor op.
fn bench_bmm(backend: KernelBackend) -> f64 {
    with_kernel_backend(backend, || {
        let (bb, m, k, n) = (16usize, 64usize, 64usize, 64usize);
        let a = Tensor::new(fill(bb * m * k, 3), &[bb, m, k]);
        let b = Tensor::new(fill(bb * k * n, 4), &[bb, k, n]);
        let iters = 20;
        let _ = a.bmm(&b); // warm-up
        best_of(3, || {
            let t = Instant::now();
            for _ in 0..iters {
                let _ = a.bmm(&b);
            }
            (2 * bb * m * k * n * iters) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
    })
}

/// Sequences/s of a fused GRU forward + full BPTT backward.
fn bench_gru_bptt(backend: KernelBackend) -> f64 {
    with_kernel_backend(backend, || {
        let (b, l, e, h) = (32usize, 40usize, 32usize, 32usize);
        let x = Tensor::param(fill(b * l * e, 5), &[b, l, e]);
        let w_zr = Tensor::param(fill((e + h) * 2 * h, 6), &[e + h, 2 * h]);
        let b_zr = Tensor::param(fill(2 * h, 7), &[2 * h]);
        let w_h = Tensor::param(fill((e + h) * h, 8), &[e + h, h]);
        let b_h = Tensor::param(fill(h, 9), &[h]);
        let step = || {
            gru_seq(&x, None, &w_zr, &b_zr, &w_h, &b_h, false)
                .sum()
                .backward()
        };
        let iters = 10;
        step(); // warm-up
        best_of(3, || {
            let t = Instant::now();
            for _ in 0..iters {
                step();
            }
            (b * iters) as f64 / t.elapsed().as_secs_f64()
        })
    })
}

/// Million elements/s of a raw forward row kernel.
fn bench_rows(kern: &'static dyn Kernel, which: &str) -> f64 {
    let (rows, c) = (2048usize, 128usize);
    let x = fill(rows * c, 10);
    let gamma = fill(c, 11);
    let beta = fill(c, 12);
    let mut out = vec![0.0f32; rows * c];
    let mut xhat = vec![0.0f32; rows * c];
    let mut inv_std = vec![0.0f32; rows];
    let mut pass = || match which {
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
    };
    let iters = 50;
    pass(); // warm-up
    best_of(3, || {
        let t = Instant::now();
        for _ in 0..iters {
            pass();
        }
        (rows * c * iters) as f64 / t.elapsed().as_secs_f64() / 1e6
    })
}

/// End-to-end seeded training throughput under one backend.
fn bench_e2e(backend: KernelBackend, data: &dar::data::AspectDataset) -> f64 {
    with_kernel_backend(backend, || best_of(3, || run(data, 30, 32, 42)))
}

fn kernels_main(out_dir: &std::path::Path) {
    let reference = kernel_for(KernelBackend::Reference);
    let blocked = kernel_for(KernelBackend::Blocked);
    let level = simd_level();
    eprintln!("[numbench] kernel sweep: simd_level {level}");

    let gemm_ref = bench_gemm(reference);
    let gemm_blk = bench_gemm(blocked);
    let bmm_ref = bench_bmm(KernelBackend::Reference);
    let bmm_blk = bench_bmm(KernelBackend::Blocked);
    let gru_ref = bench_gru_bptt(KernelBackend::Reference);
    let gru_blk = bench_gru_bptt(KernelBackend::Blocked);
    let sm_ref = bench_rows(reference, "softmax");
    let sm_blk = bench_rows(blocked, "softmax");
    let ln_ref = bench_rows(reference, "layer_norm");
    let ln_blk = bench_rows(blocked, "layer_norm");

    let synth = SynthConfig {
        n_train: 128,
        n_dev: 16,
        n_test: 16,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    let data = SynBeer::generate(&synth, &mut dar::rng(42));
    let e2e_ref = bench_e2e(KernelBackend::Reference, &data);
    let e2e_blk = bench_e2e(KernelBackend::Blocked, &data);

    let gemm_speedup = gemm_blk / gemm_ref;
    let bmm_speedup = bmm_blk / bmm_ref;
    let gru_speedup = gru_blk / gru_ref;
    let sm_speedup = sm_blk / sm_ref;
    let ln_speedup = ln_blk / ln_ref;
    let e2e_speedup = e2e_blk / e2e_ref;

    eprintln!("[numbench] gemm       ref {gemm_ref:8.2} GF/s  blocked {gemm_blk:8.2} GF/s  x{gemm_speedup:.2}");
    eprintln!("[numbench] bmm        ref {bmm_ref:8.2} GF/s  blocked {bmm_blk:8.2} GF/s  x{bmm_speedup:.2}");
    eprintln!("[numbench] gru_bptt   ref {gru_ref:8.0} seq/s blocked {gru_blk:8.0} seq/s x{gru_speedup:.2}");
    eprintln!(
        "[numbench] softmax    ref {sm_ref:8.1} Me/s  blocked {sm_blk:8.1} Me/s  x{sm_speedup:.2}"
    );
    eprintln!(
        "[numbench] layer_norm ref {ln_ref:8.1} Me/s  blocked {ln_blk:8.1} Me/s  x{ln_speedup:.2}"
    );
    eprintln!("[numbench] e2e        ref {e2e_ref:8.0} ex/s  blocked {e2e_blk:8.0} ex/s  x{e2e_speedup:.2}");

    std::fs::create_dir_all(out_dir).expect("creating output dir");
    let json = format!(
        "{{\"simd_level\": {level}, \
          \"gemm_ref_gflops\": {gemm_ref:.3}, \"gemm_blocked_gflops\": {gemm_blk:.3}, \"gemm_speedup\": {gemm_speedup:.3}, \
          \"bmm_ref_gflops\": {bmm_ref:.3}, \"bmm_blocked_gflops\": {bmm_blk:.3}, \"bmm_speedup\": {bmm_speedup:.3}, \
          \"gru_bptt_ref_seq_per_s\": {gru_ref:.2}, \"gru_bptt_blocked_seq_per_s\": {gru_blk:.2}, \"gru_bptt_speedup\": {gru_speedup:.3}, \
          \"softmax_ref_melem_per_s\": {sm_ref:.2}, \"softmax_blocked_melem_per_s\": {sm_blk:.2}, \"softmax_speedup\": {sm_speedup:.3}, \
          \"layer_norm_ref_melem_per_s\": {ln_ref:.2}, \"layer_norm_blocked_melem_per_s\": {ln_blk:.2}, \"layer_norm_speedup\": {ln_speedup:.3}, \
          \"e2e_ref_examples_per_s\": {e2e_ref:.2}, \"e2e_blocked_examples_per_s\": {e2e_blk:.2}, \"e2e_speedup\": {e2e_speedup:.3}}}\n"
    );
    std::fs::write(out_dir.join("BENCH_kernels.json"), json).expect("writing BENCH_kernels.json");

    // The floors only bind where SIMD is available: a scalar-only box
    // cannot promise them.
    if level >= 2 {
        let floors = [
            ("gemm", gemm_speedup, 2.0),
            ("bmm", bmm_speedup, 1.4),
            ("gru_bptt", gru_speedup, 2.0),
            ("softmax", sm_speedup, 2.0),
            ("layer_norm", ln_speedup, 1.3),
            ("e2e", e2e_speedup, 1.3),
        ];
        let mut fail = false;
        for (name, speedup, floor) in floors {
            if speedup < floor {
                eprintln!("[numbench] FAIL: {name} speedup {speedup:.2} < {floor:.1} floor");
                fail = true;
            }
        }
        if fail {
            std::process::exit(1);
        }
    }
    eprintln!("[numbench] kernels ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !bool_flag(&args, "--kernels") || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: numbench --kernels [--out DIR]");
        std::process::exit(2);
    }
    let out_dir = flag(&args, "--out").unwrap_or_else(|| PathBuf::from("results"));
    kernels_main(&out_dir);
}
