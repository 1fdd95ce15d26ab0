//! Kernel-equivalence harness: `BlockedKernel` (the default) vs the
//! `ReferenceKernel` oracle (DESIGN.md §17).
//!
//! The blocked backend reorders float arithmetic (packed GEMM tiles, FMA,
//! polynomial `exp`), so it cannot promise bit-equality with the reference
//! loops — what it must promise is *numerical* equality under the same
//! abs-or-rel criterion the finite-difference gradient checker uses
//! (`rel = |a−b| / max(|a|, |b|, 1e-2)`), *bit*-equality with itself
//! across thread budgets (DESIGN.md §9 holds per backend), and
//! *bit*-equality of every output row however many rows share a call.
//!
//! Four layers of evidence, cheapest first:
//!  1. op-level sweeps (matmul/bmm/softmax/log_softmax/layer_norm/gru_seq)
//!     at odd, prime, and degenerate shapes chosen to straddle the block
//!     boundaries (MR=6, NR=16, KC=256, MC=72, NC=512) — outputs *and*
//!     input/weight gradients;
//!  2. every model of the paper: one seeded `train_step` per backend on
//!     the same batch, comparing loss and post-step parameter gradients;
//!  3. thread-budget bit-identity of the blocked backend itself;
//!  4. row-count invariance of the blocked GEMM and GRU.
//!
//! CI's `test-t1` / `test-t4` stages run this whole file under
//! `DAR_THREADS=1` and `DAR_THREADS=4`, so every comparison here is also
//! exercised under both ambient pool budgets.

use dar::core::models;
use dar::data::BatchIter;
use dar::prelude::*;
use dar::tensor::ops::rnn::gru_seq;
use dar::tensor::{current_kernel, kernel_backend, with_kernel_backend, KernelBackend};
use dar::Tensor;

/// Same abs-or-rel criterion as `GradCheckReport`: a pair passes if the
/// absolute error is below `tol` or the relative error (floored at 1e-2
/// denominator) is.
const REL_FLOOR: f32 = 1e-2;

fn worst_err(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut worst = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        assert!(
            x.is_finite() && y.is_finite(),
            "non-finite in comparison: {x} vs {y}"
        );
        let abs = (x - y).abs();
        let rel = abs / x.abs().max(y.abs()).max(REL_FLOOR);
        worst = worst.max(abs.min(rel));
    }
    worst
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
    let w = worst_err(a, b);
    assert!(
        w <= tol,
        "{ctx}: worst abs-or-rel err {w:.3e} > tol {tol:.3e}"
    );
}

/// Deterministic pseudo-random fill (no RNG dependency, stable forever).
fn fill(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (((i * 2654435761 + salt * 97_003) % 2048) as f32) / 1024.0 - 1.0)
        .collect()
}

/// Run `f` under one backend, returning outputs and gradients.
fn under(
    backend: KernelBackend,
    f: impl FnOnce() -> (Vec<f32>, Vec<Vec<f32>>),
) -> (Vec<f32>, Vec<Vec<f32>>) {
    with_kernel_backend(backend, f)
}

/// Forward + backward of `y = op(params...)`, reduced by a fixed weight
/// tensor so gradients are non-trivial.
fn run_case(build: impl Fn() -> (Tensor, Vec<Tensor>)) -> (Vec<f32>, Vec<Vec<f32>>) {
    let (y, params) = build();
    let w = Tensor::new(fill(y.len(), 7), y.shape());
    y.mul(&w).sum().backward();
    let grads = params
        .iter()
        .map(|p| p.grad_vec().unwrap_or_default())
        .collect();
    (y.to_vec(), grads)
}

fn compare_case(tol: f32, ctx: &str, build: impl Fn() -> (Tensor, Vec<Tensor>)) {
    let (y_ref, g_ref) = under(KernelBackend::Reference, || run_case(&build));
    let (y_blk, g_blk) = under(KernelBackend::Blocked, || run_case(&build));
    assert_close(&y_ref, &y_blk, tol, &format!("{ctx}: output"));
    assert_eq!(g_ref.len(), g_blk.len());
    for (i, (gr, gb)) in g_ref.iter().zip(&g_blk).enumerate() {
        assert_close(gr, gb, tol, &format!("{ctx}: grad[{i}]"));
    }
}

/// Shapes straddling the blocked-GEMM boundaries: MR=6 rows, NR=16 cols,
/// KC=256 depth, MC=72 row blocks, NC=512 col blocks — each axis one
/// below / at / one above, plus primes and degenerate 1s.
#[test]
fn matmul_matches_reference_across_block_boundaries() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 7, 17),
        (5, 3, 16),
        (6, 16, 16),
        (7, 13, 15),
        (13, 257, 17),
        (31, 97, 33),
        (66, 255, 16),
        (72, 256, 512),
        (73, 257, 513),
        (97, 300, 130),
    ] {
        compare_case(2e-3, &format!("matmul {m}x{k}x{n}"), || {
            let a = Tensor::param(fill(m * k, 1), &[m, k]);
            let b = Tensor::param(fill(k * n, 2), &[k, n]);
            (a.matmul(&b), vec![a.clone(), b.clone()])
        });
    }
}

#[test]
fn bmm_matches_reference_at_odd_shapes() {
    for &(bb, m, k, n) in &[
        (1usize, 1usize, 2usize, 3usize),
        (3, 5, 7, 11),
        (4, 13, 17, 6),
        (2, 31, 64, 33),
    ] {
        compare_case(2e-3, &format!("bmm {bb}x{m}x{k}x{n}"), || {
            let a = Tensor::param(fill(bb * m * k, 3), &[bb, m, k]);
            let b = Tensor::param(fill(bb * k * n, 4), &[bb, k, n]);
            (a.bmm(&b), vec![a.clone(), b.clone()])
        });
    }
}

#[test]
fn softmax_family_matches_reference_at_odd_widths() {
    for &c in &[1usize, 2, 3, 7, 8, 13, 16, 17, 31, 33, 64, 65, 97] {
        let rows = 5;
        compare_case(1e-4, &format!("softmax c={c}"), || {
            let x = Tensor::param(fill(rows * c, 5), &[rows, c]);
            (x.softmax(), vec![x.clone()])
        });
        compare_case(1e-4, &format!("log_softmax c={c}"), || {
            let x = Tensor::param(fill(rows * c, 6), &[rows, c]);
            (x.log_softmax(), vec![x.clone()])
        });
        compare_case(1e-4, &format!("layer_norm c={c}"), || {
            let x = Tensor::param(fill(rows * c, 8), &[rows, c]);
            let gamma = Tensor::param(fill(c, 9), &[c]);
            let beta = Tensor::param(fill(c, 10), &[c]);
            (
                x.layer_norm(&gamma, &beta, 1e-5),
                vec![x.clone(), gamma.clone(), beta.clone()],
            )
        });
    }
}

/// GRU BPTT: odd batch/length/width combos so per-shard row counts fall
/// below MR and the axpy fallback, the packed path, and the scalar tails
/// all get hit. BPTT over `l` steps compounds drift, hence the wider tol.
#[test]
fn gru_seq_matches_reference_at_odd_shapes() {
    for &(b, l, e, h) in &[
        (1usize, 1usize, 1usize, 1usize),
        (2, 3, 5, 7),
        (5, 7, 3, 5),
        (13, 11, 17, 19),
    ] {
        for reverse in [false, true] {
            compare_case(
                5e-3,
                &format!("gru_seq b={b} l={l} e={e} h={h} rev={reverse}"),
                || {
                    let x = Tensor::param(fill(b * l * e, 11), &[b, l, e]);
                    let w_zr = Tensor::param(fill((e + h) * 2 * h, 12), &[e + h, 2 * h]);
                    let b_zr = Tensor::param(fill(2 * h, 13), &[2 * h]);
                    let w_h = Tensor::param(fill((e + h) * h, 14), &[e + h, h]);
                    let b_h = Tensor::param(fill(h, 15), &[h]);
                    // Mask the tail of each row to exercise the carry-through.
                    let mask = Tensor::new(
                        (0..b * l)
                            .map(|i| if i % l < l.max(1) - l / 4 { 1.0 } else { 0.0 })
                            .collect(),
                        &[b, l],
                    );
                    let y = gru_seq(&x, Some(&mask), &w_zr, &b_zr, &w_h, &b_h, reverse);
                    (
                        y,
                        vec![
                            x.clone(),
                            w_zr.clone(),
                            b_zr.clone(),
                            w_h.clone(),
                            b_h.clone(),
                        ],
                    )
                },
            );
        }
    }
}

/// Each backend must still be bit-identical to *itself* across thread
/// budgets: the backend changes the arithmetic, never the §9 determinism
/// contract.
#[test]
fn each_backend_is_bit_identical_across_thread_budgets() {
    for backend in [KernelBackend::Reference, KernelBackend::Blocked] {
        let run = |threads: usize| {
            dar_par::with_threads(threads, || {
                with_kernel_backend(backend, || {
                    // Big enough to cross every parallel-dispatch threshold.
                    let a = Tensor::param(fill(64 * 200, 21), &[64, 200]);
                    let b = Tensor::param(fill(200 * 170, 22), &[200, 170]);
                    let y = a.matmul(&b).softmax();
                    y.sum().backward();
                    let sm = Tensor::param(fill(4096 * 8, 23), &[4096, 8]);
                    let s = sm.log_softmax();
                    s.sum().backward();
                    (
                        y.to_vec(),
                        a.grad_vec().unwrap(),
                        b.grad_vec().unwrap(),
                        s.to_vec(),
                        sm.grad_vec().unwrap(),
                    )
                })
            })
        };
        let (y1, ga1, gb1, s1, gs1) = run(1);
        let (y4, ga4, gb4, s4, gs4) = run(4);
        assert_eq!(bits(&y1), bits(&y4), "{backend:?}: matmul+softmax fwd");
        assert_eq!(bits(&ga1), bits(&ga4), "{backend:?}: dA");
        assert_eq!(bits(&gb1), bits(&gb4), "{backend:?}: dB");
        assert_eq!(bits(&s1), bits(&s4), "{backend:?}: log_softmax fwd");
        assert_eq!(bits(&gs1), bits(&gs4), "{backend:?}: log_softmax grad");
    }
}

/// Taint provenance survives the blocked backend: a NaN flowing through a
/// blocked matmul still latches a taint record naming "matmul", and the
/// derived error is `NonFinite` with that op.
#[test]
fn blocked_backend_preserves_nonfinite_provenance() {
    use dar::tensor::taint::{clear_taint, first_taint, non_finite_error, set_taint_mode};
    with_kernel_backend(KernelBackend::Blocked, || {
        set_taint_mode(true);
        clear_taint();
        // Finite leaves whose product overflows: the first non-finite
        // value in the graph is *produced by* the blocked matmul, so the
        // first-wins latch must attribute it there, not to a leaf.
        let a = Tensor::new(vec![1.0e20; 7 * 18], &[7, 18]);
        let b = Tensor::new(vec![1.0e20; 18 * 17], &[18, 17]);
        let _y = a.matmul(&b);
        let rec = first_taint().expect("blocked matmul must latch the taint");
        set_taint_mode(false);
        assert_eq!(rec.op, "matmul", "provenance names the op");
        match non_finite_error("fallback") {
            dar::tensor::DarError::NonFinite { op, .. } => {
                assert_eq!(op, "matmul", "derived error keeps the origin")
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        clear_taint();
    });
}

// ---------------------------------------------------------------------------
// Model-level sweep: one seeded train_step per backend, all nine models.
// ---------------------------------------------------------------------------

fn tiny_data(seed: u64) -> AspectDataset {
    let cfg = SynthConfig {
        n_train: 96,
        n_dev: 32,
        n_test: 32,
        ..SynthConfig::beer(Aspect::Aroma)
    };
    SynBeer::generate(&cfg, &mut dar::rng(seed))
}

fn small_cfg() -> RationaleConfig {
    RationaleConfig {
        emb_dim: 16,
        hidden: 24,
        sparsity: 0.16,
        ..Default::default()
    }
}

fn build(name: &str, cfg: &RationaleConfig, data: &AspectDataset) -> Box<dyn RationaleModel> {
    let mut rng = dar::rng(41);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    models::by_name(name, cfg, &emb, data, 2, &mut rng)
        .unwrap_or_else(|| panic!("unknown model '{name}'"))
}

/// Loss and post-step parameter gradients (grads stay attached to the
/// params after `train_step`: the step order is zero → backward → clip →
/// apply, so what is left is the clipped gradient of this step).
fn step_under(backend: KernelBackend, name: &str, data: &AspectDataset) -> (f32, Vec<Vec<f32>>) {
    with_kernel_backend(backend, || {
        let cfg = small_cfg();
        let mut model = build(name, &cfg, data);
        let mut it = BatchIter::sequential(&data.train, 32);
        let batch = it.next().expect("non-empty train split");
        let mut rng = dar::rng(42);
        let loss = model.train_step(&batch, &mut rng);
        let grads = model
            .params()
            .iter()
            .map(|p| p.grad_vec().unwrap_or_default())
            .collect();
        (loss, grads)
    })
}

/// The model-level claim: for every model of the paper, a full seeded
/// training step (forward, backward, clip) on the blocked backend agrees
/// with the reference backend to gradient-checker tolerance — loss and
/// every parameter gradient. Construction happens under the backend too:
/// DAR's predictor pretraining must also agree.
#[test]
fn all_models_step_equivalently_on_both_backends() {
    let data = tiny_data(40);
    for name in [
        "RNP",
        "DAR",
        "A2R",
        "DMR",
        "Inter_RAT",
        "CAR",
        "3PLAYER",
        "VIB",
        "RNP-os",
    ] {
        let (loss_ref, grads_ref) = step_under(KernelBackend::Reference, name, &data);
        let (loss_blk, grads_blk) = step_under(KernelBackend::Blocked, name, &data);
        assert_close(&[loss_ref], &[loss_blk], 2e-2, &format!("{name}: loss"));
        assert_eq!(grads_ref.len(), grads_blk.len(), "{name}: param count");
        assert!(!grads_ref.is_empty(), "{name}: no params");
        assert!(
            grads_ref.iter().any(|g| !g.is_empty()),
            "{name}: no gradients recorded"
        );
        for (i, (gr, gb)) in grads_ref.iter().zip(&grads_blk).enumerate() {
            assert_eq!(gr.len(), gb.len(), "{name}: grad[{i}] length");
            assert_close(gr, gb, 2e-2, &format!("{name}: grad[{i}]"));
        }
    }
}

/// The blocked backend keeps the §9 promise end-to-end: the same seeded
/// train step is bit-identical under 1-thread and 4-thread budgets.
#[test]
fn blocked_model_step_is_bit_identical_across_thread_budgets() {
    let data = tiny_data(40);
    let run = |threads: usize| {
        dar_par::with_threads(threads, || {
            let (loss, grads) = step_under(KernelBackend::Blocked, "RNP", &data);
            (
                loss.to_bits(),
                grads
                    .iter()
                    .map(|g| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
            )
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "blocked RNP step diverged across budgets");
}

/// Blocked is every thread's default, and the scoped Reference override
/// wins inside its closure and is undone after it.
#[test]
fn backend_selection_is_thread_local_and_restores() {
    assert_eq!(kernel_backend(), KernelBackend::Blocked);
    let inner = with_kernel_backend(KernelBackend::Reference, kernel_backend);
    assert_eq!(inner, KernelBackend::Reference);
    assert_eq!(
        kernel_backend(),
        KernelBackend::Blocked,
        "override must restore"
    );
}

// ---------------------------------------------------------------------------
// Row-count invariance: a row's bits never depend on its neighbours.
// ---------------------------------------------------------------------------

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`fill`] scaled to use the whole mantissa: `fill`'s values are
/// multiples of 2^-10, whose products and short sums are exact in f32 and
/// would hide any difference in rounding order.
fn dense_fill(n: usize, salt: usize) -> Vec<f32> {
    fill(n, salt).iter().map(|v| v * 1.1).collect()
}

/// `C += A·B` on rows `r` of `a`/`c0` alone, through the calling thread's
/// kernel.
fn gemm_rows(
    a: &[f32],
    b: &[f32],
    c0: &[f32],
    r: std::ops::Range<usize>,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut c = c0[r.start * n..r.end * n].to_vec();
    current_kernel().gemm(&a[r.start * k..r.end * k], b, &mut c, r.len(), k, n);
    c
}

/// Every row of a blocked GEMM gets the same bits whether it is computed
/// alone (unpacked axpy), in a small group, or with all the others (packed
/// microkernel tiles, partial tiles, several KC slices). C starts non-zero
/// like a bias-initialized GRU gate, and A holds exact zeros that the
/// axpy skips but the microkernel multiplies through.
#[test]
fn blocked_gemm_rows_are_independent_of_row_count() {
    with_kernel_backend(KernelBackend::Blocked, || {
        for &(m, k, n) in &[
            (7usize, 13usize, 9usize),
            (12, 114, 128),
            (16, 114, 128),
            (13, 257, 33),
            (20, 300, 17),
            (24, 40, 40),
            (75, 64, 40),
        ] {
            let a: Vec<f32> = dense_fill(m * k, 31)
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i % 5 == 0 { 0.0 } else { v })
                .collect();
            let b = dense_fill(k * n, 32);
            let c0: Vec<f32> = dense_fill(m * n, 33).iter().map(|v| v + 3.0).collect();
            let together = bits(&gemm_rows(&a, &b, &c0, 0..m, k, n));
            for split in [1, 5, 6, 7] {
                let mut pieces = Vec::new();
                let mut r0 = 0;
                while r0 < m {
                    let r1 = (r0 + split).min(m);
                    pieces.extend(gemm_rows(&a, &b, &c0, r0..r1, k, n));
                    r0 = r1;
                }
                assert_eq!(
                    bits(&pieces),
                    together,
                    "gemm {m}x{k}x{n}: rows in groups of {split} differ from one call"
                );
            }
        }
    });
}

/// A batch through `gru_seq` gives the same bits as each of its sequences
/// run alone — at the default DAR shape (emb 50, hidden 64, ~45 tokens)
/// with padded tails, and at an odd hidden width whose activation buffers
/// end in a scalar tail. This is what makes a served answer independent of
/// the micro-batch it rode in.
#[test]
fn blocked_gru_seq_is_invariant_to_batching() {
    with_kernel_backend(KernelBackend::Blocked, || {
        for &(b, l, e, h) in &[(16usize, 45usize, 50usize, 64usize), (9, 11, 7, 13)] {
            let xv = fill(b * l * e, 41);
            let mv: Vec<f32> = (0..b * l)
                .map(|i| if i % l < l - (i / l) % 4 { 1.0 } else { 0.0 })
                .collect();
            let w_zr = Tensor::new(fill((e + h) * 2 * h, 42), &[e + h, 2 * h]);
            let b_zr = Tensor::new(fill(2 * h, 43), &[2 * h]);
            let w_h = Tensor::new(fill((e + h) * h, 44), &[e + h, h]);
            let b_h = Tensor::new(fill(h, 45), &[h]);
            for reverse in [false, true] {
                let run = |r: std::ops::Range<usize>| {
                    let x = Tensor::new(
                        xv[r.start * l * e..r.end * l * e].to_vec(),
                        &[r.len(), l, e],
                    );
                    let m = Tensor::new(mv[r.start * l..r.end * l].to_vec(), &[r.len(), l]);
                    gru_seq(&x, Some(&m), &w_zr, &b_zr, &w_h, &b_h, reverse).to_vec()
                };
                let batch = bits(&run(0..b));
                let alone: Vec<f32> = (0..b).flat_map(|i| run(i..i + 1)).collect();
                assert_eq!(
                    bits(&alone),
                    batch,
                    "gru_seq b={b} l={l} e={e} h={h} rev={reverse}: batch differs from rows alone"
                );
            }
        }
    });
}
