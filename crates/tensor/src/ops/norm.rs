//! Fused layer normalization over the last dimension.
//!
//! One autograd node instead of the ~7 composite ops (`mean_axis`, `sub`,
//! `square`, `div`, `mul`, `add`, …) the `dar-nn` formulation costs: the
//! forward stashes `x̂` and the per-row `1/σ`, and the hand-written
//! backward is the standard
//! `dx = (1/σ) · (gᵧ − mean(gᵧ) − x̂ ⊙ mean(gᵧ ⊙ x̂))` with
//! `dγ = Σ g ⊙ x̂`, `dβ = Σ g`. Rows shard through `dar-par` exactly like
//! softmax: shard boundaries are a pure function of the problem size and
//! the per-shard `dγ`/`dβ` partials reduce in shard-index order, so the
//! results are bit-identical for any `DAR_THREADS` (DESIGN.md §9).
//!
//! Inner loops dispatch through the [`crate::ops::kernel`] backend.

use std::sync::Arc;

use crate::error::{DarError, DarResult};
use crate::ops::kernel::{current_kernel, Kernel};
use crate::Tensor;

/// Buffers below this many elements are not worth dispatching to the pool.
const PARALLEL_ELEM_THRESHOLD: usize = 16_384;

/// Don't split finer than this many rows per shard.
const MIN_ROWS_PER_SHARD: usize = 32;

/// Deterministic shard count: pure function of the problem size.
fn row_shards(rows: usize, c: usize) -> usize {
    if rows * c < PARALLEL_ELEM_THRESHOLD {
        1
    } else {
        dar_par::shard_count(rows, MIN_ROWS_PER_SHARD)
    }
}

/// Per-shard forward: `(out, xhat, inv_std)` chunks for rows `r0..r1`.
#[allow(clippy::too_many_arguments)]
fn forward_rows(
    kern: &dyn Kernel,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    r0: usize,
    r1: usize,
    c: usize,
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let rows = r1 - r0;
    let mut out = vec![0.0f32; rows * c];
    let mut xhat = vec![0.0f32; rows * c];
    let mut inv_std = vec![0.0f32; rows];
    kern.layer_norm_rows(
        &x[r0 * c..r1 * c],
        gamma,
        beta,
        &mut out,
        &mut xhat,
        &mut inv_std,
        c,
        eps,
    );
    (out, xhat, inv_std)
}

impl Tensor {
    /// Fused layer norm over the last dimension:
    /// `gamma ⊙ (x − μ) / sqrt(σ² + eps) + beta` per row, as a single
    /// autograd node. `gamma` and `beta` must be 1-D of the last-dim width.
    ///
    /// # Panics
    /// Panics on rank-0 input, zero-width last dimension, or mismatched
    /// `gamma`/`beta` shapes.
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        self.try_layer_norm(gamma, beta, eps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`layer_norm`](Self::layer_norm): shape problems are typed
    /// errors instead of panics.
    pub fn try_layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> DarResult<Tensor> {
        let _span = dar_obs::span("layer_norm");
        let shape = self.shape();
        let c = match shape.last() {
            Some(&c) if c > 0 => c,
            Some(_) => {
                return Err(DarError::InvalidData(format!(
                    "layer_norm over empty dimension (shape {shape:?})"
                )))
            }
            None => {
                return Err(DarError::InvalidData(
                    "layer_norm needs at least one dimension".into(),
                ))
            }
        };
        if gamma.shape() != [c] || beta.shape() != [c] {
            return Err(DarError::InvalidData(format!(
                "layer_norm gamma/beta must be [{c}], got {:?} / {:?}",
                gamma.shape(),
                beta.shape()
            )));
        }
        let kern = current_kernel();
        let rows = self.len() / c;
        let shards = row_shards(rows, c);
        let (out, xhat, inv_std) = {
            let xg = self.values();
            let gg = gamma.values();
            let bg = beta.values();
            let (xv, gv, bv): (&[f32], &[f32], &[f32]) = (&xg, &gg, &bg);
            if shards <= 1 {
                forward_rows(kern, xv, gv, bv, 0, rows, c, eps)
            } else {
                let chunks = dar_par::run_shards(shards, |si| {
                    let r = dar_par::shard_range(rows, shards, si);
                    forward_rows(kern, xv, gv, bv, r.start, r.end, c, eps)
                });
                let mut out = Vec::with_capacity(rows * c);
                let mut xhat = Vec::with_capacity(rows * c);
                let mut inv_std = Vec::with_capacity(rows);
                for (o, xh, is) in chunks {
                    out.extend_from_slice(&o);
                    xhat.extend_from_slice(&xh);
                    inv_std.extend_from_slice(&is);
                }
                (out, xhat, inv_std)
            }
        };
        let xhat = Arc::new(xhat);
        let inv_std = Arc::new(inv_std);
        Ok(Tensor::from_op(
            "layer_norm",
            out,
            shape.to_vec(),
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g, _, parents| {
                let (x, gamma, beta) = (&parents[0], &parents[1], &parents[2]);
                let needs_dx = x.requires_grad();
                let needs_dg = gamma.requires_grad();
                let needs_db = beta.requires_grad();
                if !(needs_dx || needs_dg || needs_db) {
                    return;
                }
                let gamma_g = gamma.values();
                let gv: &[f32] = &gamma_g;
                let (xhat, inv_std) = (&**xhat, &**inv_std);
                let per_shard = |r0: usize, r1: usize| {
                    let rows = r1 - r0;
                    let mut dx = vec![0.0f32; rows * c];
                    let mut dgamma = vec![0.0f32; c];
                    let mut dbeta = vec![0.0f32; c];
                    kern.layer_norm_bwd_rows(
                        &g[r0 * c..r1 * c],
                        &xhat[r0 * c..r1 * c],
                        &inv_std[r0..r1],
                        gv,
                        &mut dx,
                        &mut dgamma,
                        &mut dbeta,
                        c,
                    );
                    (dx, dgamma, dbeta)
                };
                let chunks = if shards <= 1 {
                    vec![per_shard(0, rows)]
                } else {
                    dar_par::run_shards(shards, |si| {
                        let r = dar_par::shard_range(rows, shards, si);
                        per_shard(r.start, r.end)
                    })
                };
                // Fixed-order reduction of the parameter-grad partials.
                let mut dx = Vec::with_capacity(if needs_dx { rows * c } else { 0 });
                let mut dgamma = vec![0.0f32; c];
                let mut dbeta = vec![0.0f32; c];
                for (dx_c, dg_c, db_c) in &chunks {
                    if needs_dx {
                        dx.extend_from_slice(dx_c);
                    }
                    for (o, &v) in dgamma.iter_mut().zip(dg_c) {
                        *o += v;
                    }
                    for (o, &v) in dbeta.iter_mut().zip(db_c) {
                        *o += v;
                    }
                }
                drop(gamma_g);
                if needs_dx {
                    x.accumulate_grad(&dx);
                }
                if needs_dg {
                    gamma.accumulate_grad(&dgamma);
                }
                if needs_db {
                    beta.accumulate_grad(&dbeta);
                }
            }),
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::grad_check::check_gradients;
    use crate::Tensor;

    #[test]
    fn rows_are_standardized() {
        let x = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]);
        let gamma = Tensor::new(vec![1.0; 4], &[4]);
        let beta = Tensor::new(vec![0.0; 4], &[4]);
        let y = x.layer_norm(&gamma, &beta, 1e-5).to_vec();
        for row in y.chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn fused_gradcheck_input_gamma_beta() {
        let x = Tensor::param(vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7], &[2, 3]);
        let gamma = Tensor::param(vec![1.2, 0.8, -0.5], &[3]);
        let beta = Tensor::param(vec![0.1, -0.2, 0.3], &[3]);
        let w = Tensor::new(vec![1.0, -2.0, 0.5, 0.7, 1.3, -0.4], &[2, 3]);
        let inputs = vec![x, gamma, beta];
        let rep = check_gradients(
            &inputs,
            |ins| ins[0].layer_norm(&ins[1], &ins[2], 1e-5).mul(&w).sum(),
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let empty = Tensor::new(vec![], &[2, 0]);
        let g1 = Tensor::new(vec![1.0], &[1]);
        assert!(empty.try_layer_norm(&g1, &g1, 1e-5).is_err());
        let x = Tensor::new(vec![1.0, 2.0], &[1, 2]);
        assert!(x.try_layer_norm(&g1, &g1, 1e-5).is_err(), "gamma width");
    }

    #[test]
    fn bit_identical_across_thread_budgets() {
        // Large enough to cross the parallel threshold.
        let rows = 3000;
        let c = 8;
        let vals: Vec<f32> = (0..rows * c)
            .map(|i| ((i * 19) % 37) as f32 * 0.13 - 2.0)
            .collect();
        let w = Tensor::new(
            (0..rows * c).map(|i| (i % 5) as f32 - 2.0).collect(),
            &[rows, c],
        );
        let run = |threads: usize| {
            dar_par::with_threads(threads, || {
                let x = Tensor::param(vals.clone(), &[rows, c]);
                let gamma = Tensor::param(vec![1.0; c], &[c]);
                let beta = Tensor::param(vec![0.0; c], &[c]);
                let y = x.layer_norm(&gamma, &beta, 1e-5);
                y.mul(&w).sum().backward();
                (
                    y.to_vec(),
                    x.grad_vec().unwrap(),
                    gamma.grad_vec().unwrap(),
                    beta.grad_vec().unwrap(),
                )
            })
        };
        assert_eq!(run(1), run(4), "layer_norm depends on thread budget");
    }

    #[test]
    fn matches_composite_formulation() {
        // The fused op must agree with mean/sub/square/div/mul/add chain.
        let x = Tensor::param(vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7], &[2, 3]);
        let gamma = Tensor::new(vec![1.2, 0.8, -0.5], &[3]);
        let beta = Tensor::new(vec![0.1, -0.2, 0.3], &[3]);
        let fused = x.layer_norm(&gamma, &beta, 1e-5).to_vec();
        let mean = x.mean_axis(1, true);
        let centered = x.sub(&mean);
        let var = centered.square().mean_axis(1, true);
        let composite = centered
            .div(&var.add_scalar(1e-5).sqrt())
            .mul(&gamma)
            .add(&beta)
            .to_vec();
        for (f, cv) in fused.iter().zip(&composite) {
            assert!((f - cv).abs() < 1e-5, "fused {f} vs composite {cv}");
        }
    }
}
