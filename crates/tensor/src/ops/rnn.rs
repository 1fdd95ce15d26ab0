//! Fused GRU sequence kernel.
//!
//! Runs a whole `[b, l, e] -> [b, l, h]` GRU recurrence as ONE autograd
//! node with a hand-written backward pass (BPTT), replacing the ~15
//! composite ops per timestep the step-by-step formulation costs. Batch
//! rows are independent, so both passes shard over rows through `dar-par`
//! with a **fixed** decomposition: the shard count depends only on the
//! problem size, each shard runs serially over its rows, and the per-shard
//! weight-gradient partials are reduced by the caller in shard-index order
//! — making results bit-identical for any `DAR_THREADS` (DESIGN.md §9).
//!
//! BPTT reads the forward's gate activations and a copy of its output. A
//! node that will not be tracked (under `no_grad`, or with no input that
//! requires gradients: every serving and eval call) has no backward, so
//! its forward allocates and writes neither; the arithmetic is the same,
//! so its output is bit-identical to a tracked call's.
//!
//! Recurrence (`x_t: [b, e]`, `h: [b, hidden]`, mask `m_t`):
//! ```text
//! [z; r] = sigmoid([x, h] @ W_zr + b_zr)
//! c      = tanh([x, r ⊙ h] @ W_h + b_h)
//! h'     = (1 − z) ⊙ h + z ⊙ c
//! out_t  = m_t ⊙ h' + (1 − m_t) ⊙ h
//! ```

use std::sync::Arc;

use crate::ops::kernel::{current_kernel, Kernel};
use crate::tensor::tracked;
use crate::Tensor;

/// Problems below this many flops are not worth dispatching to the pool.
const PARALLEL_FLOP_THRESHOLD: usize = 500_000;

/// Minimum batch rows per shard. Per-step GEMMs below the kernel's MR row
/// tile never engage the packed path, and thinner shards spend more time
/// on shard bookkeeping than on math: 16 keeps a batch-32 step at two
/// m=16 GEMMs while still splitting larger batches for the pool.
const MIN_ROWS_PER_SHARD: usize = 16;

#[derive(Clone, Copy)]
struct Dims {
    b: usize,
    l: usize,
    e: usize,
    h: usize,
}

impl Dims {
    /// Deterministic shard count: a pure function of the problem size,
    /// never of the thread budget.
    fn shards(&self) -> usize {
        let flops = 2 * self.b * self.l * 3 * self.h * (self.e + self.h);
        if flops < PARALLEL_FLOP_THRESHOLD {
            1
        } else {
            dar_par::shard_count(self.b, MIN_ROWS_PER_SHARD)
        }
    }

    /// Timestep visit order (forward or right-to-left).
    fn steps(&self, reverse: bool) -> Vec<usize> {
        if reverse {
            (0..self.l).rev().collect()
        } else {
            (0..self.l).collect()
        }
    }
}

/// The gate activations `z`, `r` and candidate `c` of every step, each
/// `[rows, l, h]`: what backward needs to avoid recomputation.
struct Stash {
    z: Vec<f32>,
    r: Vec<f32>,
    c: Vec<f32>,
}

/// Per-shard forward over rows `r0..r1`: returns the post-mask hidden
/// states, `(r1-r0) * l * h` long, and the shard's [`Stash`] when `stash`
/// is set.
///
/// Timesteps are the outer loop; each step's two linear maps run as one
/// `[rows, e+h] @ [e+h, n]` bias-initialized GEMM over the whole shard, so
/// weight rows are loaded once per step instead of once per batch row.
/// Kernels keep each output row independent of the other rows in the call
/// (DESIGN.md §17), so results are bitwise independent of this batching —
/// and of how many sequences a serving micro-batch holds.
#[allow(clippy::too_many_arguments)]
fn forward_rows(
    kern: &dyn Kernel,
    r0: usize,
    r1: usize,
    xv: &[f32],
    mv: Option<&[f32]>,
    wzr: &[f32],
    bzr: &[f32],
    wh: &[f32],
    bh: &[f32],
    d: Dims,
    steps: &[usize],
    stash: bool,
) -> (Vec<f32>, Option<Stash>) {
    let (l, e, h) = (d.l, d.e, d.h);
    let rows = r1 - r0;
    let eh = e + h;
    let mut out = vec![0.0f32; rows * l * h];
    let mut stash = stash.then(|| Stash {
        z: vec![0.0f32; rows * l * h],
        r: vec![0.0f32; rows * l * h],
        c: vec![0.0f32; rows * l * h],
    });
    let mut xh = vec![0.0f32; rows * eh];
    let mut zr = vec![0.0f32; rows * 2 * h];
    let mut clin = vec![0.0f32; rows * h];
    let mut hprev = vec![0.0f32; rows * h];
    for &t in steps {
        // [x, h] @ W_zr + b_zr, as bias-init + GEMM over the shard.
        for ri in 0..rows {
            let i = r0 + ri;
            xh[ri * eh..ri * eh + e].copy_from_slice(&xv[(i * l + t) * e..(i * l + t) * e + e]);
            xh[ri * eh + e..(ri + 1) * eh].copy_from_slice(&hprev[ri * h..(ri + 1) * h]);
            zr[ri * 2 * h..(ri + 1) * 2 * h].copy_from_slice(bzr);
        }
        kern.gemm(&xh, wzr, &mut zr, rows, eh, 2 * h);
        // Activations run row by row: where a buffer's vector chunks end
        // and its scalar tail begins then depends on `h` alone, never on
        // how many rows share the shard.
        for ri in 0..rows {
            kern.sigmoid(&mut zr[ri * 2 * h..(ri + 1) * 2 * h]);
        }
        // [x, r ⊙ h] @ W_h + b_h — reuse xh's tail for r ⊙ h.
        for ri in 0..rows {
            let r = &zr[ri * 2 * h + h..(ri + 1) * 2 * h];
            for j in 0..h {
                xh[ri * eh + e + j] = r[j] * hprev[ri * h + j];
            }
            clin[ri * h..(ri + 1) * h].copy_from_slice(bh);
        }
        kern.gemm(&xh, wh, &mut clin, rows, eh, h);
        for ri in 0..rows {
            kern.tanh(&mut clin[ri * h..(ri + 1) * h]);
        }
        for ri in 0..rows {
            let i = r0 + ri;
            let base = (ri * l + t) * h;
            let m = mv.map_or(1.0, |mv| mv[i * l + t]);
            let (z, r) = zr[ri * 2 * h..(ri + 1) * 2 * h].split_at(h);
            let c = &clin[ri * h..(ri + 1) * h];
            for j in 0..h {
                let hn = (1.0 - z[j]) * hprev[ri * h + j] + z[j] * c[j];
                let hm = m * hn + (1.0 - m) * hprev[ri * h + j];
                out[base + j] = hm;
                hprev[ri * h + j] = hm;
            }
            if let Some(s) = &mut stash {
                s.z[base..base + h].copy_from_slice(z);
                s.r[base..base + h].copy_from_slice(r);
                s.c[base..base + h].copy_from_slice(c);
            }
        }
    }
    (out, stash)
}

/// Which gradients a backward shard must produce.
#[derive(Clone, Copy)]
struct Needs {
    dx: bool,
    dwzr: bool,
    dbzr: bool,
    dwh: bool,
    dbh: bool,
}

/// `(dx_chunk, dW_zr, db_zr, dW_h, db_h)` partials of one backward shard.
type GradChunk = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// Per-shard BPTT over rows `r0..r1`: returns [`GradChunk`] partials
/// (weight partials are summed by the caller in shard-index order).
/// Stash/out buffers are indexed globally.
#[allow(clippy::too_many_arguments)]
fn backward_rows(
    kern: &dyn Kernel,
    r0: usize,
    r1: usize,
    g: &[f32],
    xv: &[f32],
    mv: Option<&[f32]>,
    out: &[f32],
    zs: &[f32],
    rs: &[f32],
    cs: &[f32],
    wzr: &[f32],
    wh: &[f32],
    d: Dims,
    steps: &[usize],
    needs: Needs,
) -> GradChunk {
    let (l, e, h) = (d.l, d.e, d.h);
    let rows = r1 - r0;
    let eh = e + h;
    let mut dx = vec![0.0f32; if needs.dx { rows * l * e } else { 0 }];
    let mut dwzr = vec![0.0f32; if needs.dwzr { eh * 2 * h } else { 0 }];
    let mut dbzr = vec![0.0f32; if needs.dbzr { 2 * h } else { 0 }];
    let mut dwh = vec![0.0f32; if needs.dwh { eh * h } else { 0 }];
    let mut dbh = vec![0.0f32; if needs.dbh { h } else { 0 }];

    // Timesteps outer (reverse visit order), rows inner; every matrix
    // product runs as one GEMM over the whole shard so weights and weight
    // gradients are streamed once per step, not once per batch row. `hp`
    // holds each row's `hprev` at the current step, `dh` its carried
    // recurrent gradient. The input-gradient products use pre-transposed
    // weights (`dxh = dgate @ W^T`); the weight-gradient products use
    // per-step transposed activations (`dW += xh^T @ dgate`).
    let mut xh = vec![0.0f32; rows * eh];
    let mut xrh = vec![0.0f32; rows * eh];
    let mut xt_buf = vec![0.0f32; rows * eh];
    let mut dxh = vec![0.0f32; rows * eh];
    let mut dh = vec![0.0f32; rows * h];
    let mut dhp = vec![0.0f32; rows * h];
    let mut dzr = vec![0.0f32; rows * 2 * h];
    let mut dclin = vec![0.0f32; rows * h];
    let mut hp = vec![0.0f32; rows * h];
    let mut wh_t = vec![0.0f32; eh * h];
    for j in 0..h {
        for p in 0..eh {
            wh_t[j * eh + p] = wh[p * h + j];
        }
    }
    let mut wzr_t = vec![0.0f32; eh * 2 * h];
    for j in 0..2 * h {
        for p in 0..eh {
            wzr_t[j * eh + p] = wzr[p * 2 * h + j];
        }
    }
    let transpose = |src: &[f32], dst: &mut [f32]| {
        for ri in 0..rows {
            for p in 0..eh {
                dst[p * rows + ri] = src[ri * eh + p];
            }
        }
    };
    for si in (0..steps.len()).rev() {
        let t = steps[si];
        // `hprev` at step `steps[si]` is the output of `steps[si-1]`
        // (zeros at the start of the recurrence).
        for ri in 0..rows {
            let i = r0 + ri;
            if si == 0 {
                hp[ri * h..(ri + 1) * h].iter_mut().for_each(|v| *v = 0.0);
            } else {
                let pt = steps[si - 1];
                hp[ri * h..(ri + 1) * h]
                    .copy_from_slice(&out[(i * l + pt) * h..(i * l + pt) * h + h]);
            }
        }
        // dht = upstream + carried recurrent gradient, split across the
        // mask gate: out = m ⊙ h' + (1-m) ⊙ hprev.
        // dclin/dzr hold the pre-activation gate gradients.
        for ri in 0..rows {
            let i = r0 + ri;
            let base = (i * l + t) * h;
            let m = mv.map_or(1.0, |mv| mv[i * l + t]);
            let xt = &xv[(i * l + t) * e..(i * l + t) * e + e];
            for j in 0..h {
                let dht = g[base + j] + dh[ri * h + j];
                let dhprime = m * dht;
                let dz = dhprime * (cs[base + j] - hp[ri * h + j]);
                let dc = dhprime * zs[base + j];
                dhp[ri * h + j] = (1.0 - m) * dht + dhprime * (1.0 - zs[base + j]);
                dclin[ri * h + j] = dc * (1.0 - cs[base + j] * cs[base + j]);
                dzr[ri * 2 * h + j] = dz * zs[base + j] * (1.0 - zs[base + j]);
            }
            // Candidate path inputs: [x, r ⊙ hprev]; gate path inputs: [x, hprev].
            xrh[ri * eh..ri * eh + e].copy_from_slice(xt);
            xh[ri * eh..ri * eh + e].copy_from_slice(xt);
            for j in 0..h {
                xrh[ri * eh + e + j] = rs[base + j] * hp[ri * h + j];
                xh[ri * eh + e + j] = hp[ri * h + j];
            }
        }
        if needs.dbh {
            for ri in 0..rows {
                for (o, &v) in dbh.iter_mut().zip(&dclin[ri * h..(ri + 1) * h]) {
                    *o += v;
                }
            }
        }
        if needs.dwh {
            // dW_h += xrh^T [eh, rows] @ dclin [rows, h].
            transpose(&xrh, &mut xt_buf);
            kern.gemm(&xt_buf, &dclin, &mut dwh, eh, rows, h);
        }
        // dxrh = dclin @ W_h^T, then split into dx and the r/h products.
        dxh.iter_mut().for_each(|v| *v = 0.0);
        kern.gemm(&dclin, &wh_t, &mut dxh, rows, h, eh);
        for ri in 0..rows {
            if needs.dx {
                for p in 0..e {
                    dx[(ri * l + t) * e + p] += dxh[ri * eh + p];
                }
            }
            let base = ((r0 + ri) * l + t) * h;
            for j in 0..h {
                let dot = dxh[ri * eh + e + j];
                // d(r ⊙ hprev): route to both r and hprev.
                let dr = dot * hp[ri * h + j];
                dhp[ri * h + j] += dot * rs[base + j];
                dzr[ri * 2 * h + h + j] = dr * rs[base + j] * (1.0 - rs[base + j]);
            }
        }
        // Gate path: [z; r] = sigmoid([x, h] @ W_zr + b_zr).
        if needs.dbzr {
            for ri in 0..rows {
                for (o, &v) in dbzr.iter_mut().zip(&dzr[ri * 2 * h..(ri + 1) * 2 * h]) {
                    *o += v;
                }
            }
        }
        if needs.dwzr {
            // dW_zr += xh^T [eh, rows] @ dzr [rows, 2h].
            transpose(&xh, &mut xt_buf);
            kern.gemm(&xt_buf, &dzr, &mut dwzr, eh, rows, 2 * h);
        }
        dxh.iter_mut().for_each(|v| *v = 0.0);
        kern.gemm(&dzr, &wzr_t, &mut dxh, rows, 2 * h, eh);
        for ri in 0..rows {
            if needs.dx {
                for p in 0..e {
                    dx[(ri * l + t) * e + p] += dxh[ri * eh + p];
                }
            }
            for j in 0..h {
                dhp[ri * h + j] += dxh[ri * eh + e + j];
            }
        }
        dh.copy_from_slice(&dhp);
    }
    (dx, dwzr, dbzr, dwh, dbh)
}

/// Sum `src` into `dst` element-wise (fixed-order shard reduction).
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o += v;
    }
}

/// Append the next shard's chunk (shard order), taking over the first
/// chunk's buffer instead of copying it.
fn append(dst: &mut Vec<f32>, src: Vec<f32>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend_from_slice(&src);
    }
}

/// Fused GRU over a batch of sequences.
///
/// * `x`: `[b, l, e]` inputs; `mask`: optional `[b, l]` (1 = real token;
///   padded positions carry the previous hidden state through unchanged).
/// * `w_zr: [e+h, 2h]`, `b_zr: [2h]`, `w_h: [e+h, h]`, `b_h: [h]`.
/// * `reverse` reads each sequence right-to-left; outputs stay aligned
///   with the input order.
///
/// Returns `[b, l, h]` per-step hidden states. Forward and backward are
/// shard-parallel over batch rows and bit-identical for any thread budget.
/// An untracked call keeps no backward state (module docs).
#[allow(clippy::too_many_arguments)]
pub fn gru_seq(
    x: &Tensor,
    mask: Option<&Tensor>,
    w_zr: &Tensor,
    b_zr: &Tensor,
    w_h: &Tensor,
    b_h: &Tensor,
    reverse: bool,
) -> Tensor {
    let _span = dar_obs::span("gru_seq");
    let s = x.shape();
    assert_eq!(s.len(), 3, "gru_seq expects [b, l, e], got {s:?}");
    let (b, l, e) = (s[0], s[1], s[2]);
    let h = b_h.len();
    assert_eq!(w_zr.shape(), &[e + h, 2 * h], "w_zr shape");
    assert_eq!(b_zr.shape(), &[2 * h], "b_zr shape");
    assert_eq!(w_h.shape(), &[e + h, h], "w_h shape");
    if let Some(m) = mask {
        assert_eq!(m.shape(), &[b, l], "gru_seq mask must be [b, l]");
    }
    let d = Dims { b, l, e, h };
    let steps = d.steps(reverse);
    // Captured on the dispatching thread; shards and the backward closure
    // reuse it so pool workers never consult their own backend selection.
    let kern = current_kernel();
    let shards = d.shards();

    let parents = vec![
        x.clone(),
        w_zr.clone(),
        b_zr.clone(),
        w_h.clone(),
        b_h.clone(),
    ];
    let track = tracked(&parents);

    let mask_vals: Option<Arc<Vec<f32>>> = mask.map(|m| Arc::new(m.to_vec()));
    let (out, stash) = {
        let xg = x.values();
        let wzr_g = w_zr.values();
        let bzr_g = b_zr.values();
        let wh_g = w_h.values();
        let bh_g = b_h.values();
        let (xv, wzr, bzr): (&[f32], &[f32], &[f32]) = (&xg, &wzr_g, &bzr_g);
        let (wh, bh): (&[f32], &[f32]) = (&wh_g, &bh_g);
        let mv = mask_vals.as_ref().map(|m| m.as_slice());
        let steps = &steps;
        let chunks = dar_par::run_shards(shards, |si| {
            let r = dar_par::shard_range(b, shards, si);
            forward_rows(
                kern, r.start, r.end, xv, mv, wzr, bzr, wh, bh, d, steps, track,
            )
        });
        // Stitch per-shard chunks back together in shard order.
        let mut out = Vec::new();
        let mut stash = track.then(|| Stash {
            z: Vec::new(),
            r: Vec::new(),
            c: Vec::new(),
        });
        for (o, st) in chunks {
            append(&mut out, o);
            if let (Some(all), Some(st)) = (&mut stash, st) {
                append(&mut all.z, st.z);
                append(&mut all.r, st.r);
                append(&mut all.c, st.c);
            }
        }
        (out, stash)
    };
    let Some(stash) = stash else {
        // Untracked: `from_op` drops parents and backward alike.
        return Tensor::from_op("gru_seq", out, vec![b, l, h], parents, Box::new(|_, _| {}));
    };

    let out_saved = Arc::new(out.clone());
    let stash = Arc::new(stash);
    let steps_saved = Arc::new(steps);
    Tensor::from_op(
        "gru_seq",
        out,
        vec![b, l, h],
        parents,
        Box::new(move |g, parents| {
            let _span = dar_obs::span("gru_bptt");
            let (x, w_zr, b_zr, w_h, b_h) = (
                &parents[0],
                &parents[1],
                &parents[2],
                &parents[3],
                &parents[4],
            );
            let needs = Needs {
                dx: x.requires_grad(),
                dwzr: w_zr.requires_grad(),
                dbzr: b_zr.requires_grad(),
                dwh: w_h.requires_grad(),
                dbh: b_h.requires_grad(),
            };
            if !(needs.dx || needs.dwzr || needs.dbzr || needs.dwh || needs.dbh) {
                return;
            }
            let xg = x.values();
            let wzr_g = w_zr.values();
            let wh_g = w_h.values();
            let (xv, wzr, wh): (&[f32], &[f32], &[f32]) = (&xg, &wzr_g, &wh_g);
            let mv = mask_vals.as_ref().map(|m| m.as_slice());
            let (out, zs, rs, cs) = (&*out_saved, &stash.z, &stash.r, &stash.c);
            let steps: &[usize] = &steps_saved;
            let chunks = dar_par::run_shards(shards, |si| {
                let r = dar_par::shard_range(b, shards, si);
                backward_rows(
                    kern, r.start, r.end, g, xv, mv, out, zs, rs, cs, wzr, wh, d, steps, needs,
                )
            });
            // Fixed-order reduction: accumulate shard partials by ascending
            // shard index so float association never depends on threads.
            let mut dx = Vec::new();
            let mut dwzr = vec![0.0f32; if needs.dwzr { (e + h) * 2 * h } else { 0 }];
            let mut dbzr = vec![0.0f32; if needs.dbzr { 2 * h } else { 0 }];
            let mut dwh = vec![0.0f32; if needs.dwh { (e + h) * h } else { 0 }];
            let mut dbh = vec![0.0f32; if needs.dbh { h } else { 0 }];
            for (dx_c, dwzr_c, dbzr_c, dwh_c, dbh_c) in &chunks {
                dx.extend_from_slice(dx_c);
                add_into(&mut dwzr, dwzr_c);
                add_into(&mut dbzr, dbzr_c);
                add_into(&mut dwh, dwh_c);
                add_into(&mut dbh, dbh_c);
            }
            drop(xg);
            drop(wzr_g);
            drop(wh_g);
            if needs.dx {
                x.accumulate_grad(&dx);
            }
            if needs.dwzr {
                w_zr.accumulate_grad(&dwzr);
            }
            if needs.dbzr {
                b_zr.accumulate_grad(&dbzr);
            }
            if needs.dwh {
                w_h.accumulate_grad(&dwh);
            }
            if needs.dbh {
                b_h.accumulate_grad(&dbh);
            }
        }),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::gru_seq;
    use crate::grad_check::check_gradients;
    use crate::{init, Tensor};

    fn weights(rng: &mut crate::Rng, e: usize, h: usize) -> (Tensor, Tensor, Tensor, Tensor) {
        (
            init::xavier_param(rng, e + h, 2 * h),
            init::zeros_param(&[2 * h]),
            init::xavier_param(rng, e + h, h),
            init::zeros_param(&[h]),
        )
    }

    #[test]
    fn output_shape_and_grad_flow() {
        let mut rng = crate::rng(0);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 3, 4);
        let x = Tensor::param(init::uniform(&mut rng, 2 * 5 * 3, -0.5, 0.5), &[2, 5, 3]);
        let y = gru_seq(&x, None, &wzr, &bzr, &wh, &bh, false);
        assert_eq!(y.shape(), &[2, 5, 4]);
        y.sum().backward();
        for p in [&x, &wzr, &bzr, &wh, &bh] {
            let g = p.grad_vec().expect("missing grad");
            assert!(g.iter().any(|&v| v != 0.0), "all-zero grad");
        }
    }

    #[test]
    fn gradcheck_forward_direction() {
        let mut rng = crate::rng(1);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 2, 2);
        let x = Tensor::param(vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2], &[1, 3, 2]);
        let inputs = [x, wzr, bzr, wh, bh];
        let rep = check_gradients(
            &inputs,
            |ins| {
                gru_seq(&ins[0], None, &ins[1], &ins[2], &ins[3], &ins[4], false)
                    .square()
                    .sum()
            },
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn gradcheck_reverse_direction() {
        let mut rng = crate::rng(2);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 2, 3);
        let x = Tensor::param(vec![0.2, -0.3, 0.4, 0.6, -0.1, 0.3, -0.5, 0.2], &[1, 4, 2]);
        let inputs = [x, wzr, bzr, wh, bh];
        let rep = check_gradients(
            &inputs,
            |ins| {
                gru_seq(&ins[0], None, &ins[1], &ins[2], &ins[3], &ins[4], true)
                    .square()
                    .sum()
            },
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn gradcheck_with_padding_mask() {
        let mut rng = crate::rng(3);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 2, 2);
        // Row 0 is full length, row 1 padded after the first step.
        let x = Tensor::param(
            vec![
                0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.6, -0.3, 0.0, 0.0, 0.0, 0.0,
            ],
            &[2, 3, 2],
        );
        let mask = Tensor::new(vec![1., 1., 1., 1., 0., 0.], &[2, 3]);
        let inputs = [x, wzr, bzr, wh, bh];
        let rep = check_gradients(
            &inputs,
            |ins| {
                gru_seq(
                    &ins[0],
                    Some(&mask),
                    &ins[1],
                    &ins[2],
                    &ins[3],
                    &ins[4],
                    false,
                )
                .square()
                .sum()
            },
            1e-2,
        );
        assert!(rep.ok(5e-2), "{rep:?}");
    }

    #[test]
    fn mask_freezes_padded_rows() {
        let mut rng = crate::rng(4);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 2, 3);
        let x = Tensor::new(init::uniform(&mut rng, 2 * 3 * 2, -1.0, 1.0), &[2, 3, 2]);
        let mask = Tensor::new(vec![1., 1., 1., 1., 0., 0.], &[2, 3]);
        let y = gru_seq(&x, Some(&mask), &wzr, &bzr, &wh, &bh, false).to_vec();
        // Row 1, steps 1 and 2 are padded: the state must stay at step 0's.
        let h = 3;
        let row1 = &y[3 * h..];
        assert_eq!(&row1[..h], &row1[h..2 * h]);
        assert_eq!(&row1[..h], &row1[2 * h..]);
    }

    #[test]
    fn frozen_weights_still_pass_input_gradient() {
        // The discriminator case: every weight frozen, gradient must still
        // flow through the recurrence into x.
        let mut rng = crate::rng(5);
        let (wzr, bzr, wh, bh) = weights(&mut rng, 2, 3);
        for w in [&wzr, &bzr, &wh, &bh] {
            w.freeze();
        }
        let x = Tensor::param(init::uniform(&mut rng, 6, -0.5, 0.5), &[1, 3, 2]);
        gru_seq(&x, None, &wzr, &bzr, &wh, &bh, false)
            .square()
            .sum()
            .backward();
        assert!(wzr.grad_vec().is_none(), "frozen weight got a grad buffer");
        let gx = x.grad_vec().expect("x missing grad");
        assert!(gx.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn untracked_call_is_bit_identical_and_keeps_no_graph() {
        // The kernel-equivalence shapes: a served DAR burst, and an odd
        // width; every row padded after a different step.
        for (b, l, e, h) in [(16usize, 45usize, 50usize, 64usize), (9, 11, 7, 13)] {
            let mut rng = crate::rng(7);
            let (wzr, bzr, wh, bh) = weights(&mut rng, e, h);
            let xv = init::uniform(&mut rng, b * l * e, -0.8, 0.8);
            let mv = (0..b * l)
                .map(|k| if k % l < l - (k / l) % 4 { 1.0 } else { 0.0 })
                .collect();
            let mask = Tensor::new(mv, &[b, l]);
            let frozen = |t: &Tensor| {
                let f = Tensor::param(t.to_vec(), t.shape());
                f.freeze();
                f
            };
            let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for reverse in [false, true] {
                let x = Tensor::param(xv.clone(), &[b, l, e]);
                let tracked = gru_seq(&x, Some(&mask), &wzr, &bzr, &wh, &bh, reverse);
                assert!(tracked.requires_grad() && !tracked.inner.parents.is_empty());
                let quiet =
                    crate::no_grad(|| gru_seq(&x, Some(&mask), &wzr, &bzr, &wh, &bh, reverse));
                let [fx, fwzr, fbzr, fwh, fbh] = [&x, &wzr, &bzr, &wh, &bh].map(frozen);
                let cold = gru_seq(&fx, Some(&mask), &fwzr, &fbzr, &fwh, &fbh, reverse);
                for (how, y) in [("no_grad", quiet), ("frozen", cold)] {
                    let at = format!("{how} b={b} h={h} rev={reverse}");
                    assert_eq!(bits(&y), bits(&tracked), "{at}: output differs");
                    assert!(!y.requires_grad(), "{at}: requires grad");
                    assert!(y.inner.parents.is_empty(), "{at}: kept its parents");
                    assert!(y.inner.backward.is_none(), "{at}: kept a backward");
                }
            }
        }
    }

    #[test]
    fn bit_identical_across_thread_budgets() {
        // Large enough that shards() > 1, so the pool really dispatches.
        let mut rng = crate::rng(6);
        let (b, l, e, h) = (48, 12, 8, 16);
        let (wzr, bzr, wh, bh) = weights(&mut rng, e, h);
        let xv = init::uniform(&mut rng, b * l * e, -0.8, 0.8);
        let run = |threads: usize| {
            dar_par::with_threads(threads, || {
                let x = Tensor::param(xv.clone(), &[b, l, e]);
                for w in [&wzr, &bzr, &wh, &bh] {
                    w.zero_grad();
                }
                let y = gru_seq(&x, None, &wzr, &bzr, &wh, &bh, false);
                y.square().sum().backward();
                (
                    y.to_vec(),
                    x.grad_vec().unwrap(),
                    wzr.grad_vec().unwrap(),
                    wh.grad_vec().unwrap(),
                    bzr.grad_vec().unwrap(),
                    bh.grad_vec().unwrap(),
                )
            })
        };
        assert_eq!(run(1), run(4), "gru_seq depends on thread budget");
    }
}
