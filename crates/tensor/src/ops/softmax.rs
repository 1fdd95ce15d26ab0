//! Softmax and log-softmax over the last dimension, shard-parallel across
//! rows. Every output row is produced by the same serial per-row kernel as
//! the single-threaded path and rows are disjoint, so results are
//! bit-identical for any thread budget (DESIGN.md §9).

use crate::error::{DarError, DarResult};
use crate::ops::kernel::current_kernel;
use crate::Tensor;

/// The row width softmax normalizes over; degenerate shapes are typed
/// errors so the checked entry points never panic.
fn last_dim(op: &'static str, shape: &[usize]) -> DarResult<usize> {
    match shape.last() {
        Some(&c) if c > 0 => Ok(c),
        Some(_) => Err(DarError::InvalidData(format!(
            "{op} over empty dimension (shape {shape:?})"
        ))),
        None => Err(DarError::InvalidData(format!(
            "{op} needs at least one dimension"
        ))),
    }
}

/// Buffers below this many elements are not worth dispatching to the pool.
const PARALLEL_ELEM_THRESHOLD: usize = 16_384;

/// Don't split finer than this many rows per shard.
const MIN_ROWS_PER_SHARD: usize = 32;

/// Deterministic shard count: 1 below the element threshold, otherwise a
/// pure function of the row count.
fn row_shards(rows: usize, c: usize) -> usize {
    if rows * c < PARALLEL_ELEM_THRESHOLD {
        1
    } else {
        dar_par::shard_count(rows, MIN_ROWS_PER_SHARD)
    }
}

/// Apply `per_chunk(first_global_row, input_rows, output_rows)` over a
/// row-major buffer pair, sharded across rows. Each chunk is a contiguous
/// run of whole rows, so the backend kernels can sweep it in one call;
/// shard boundaries are a pure function of the problem size, keeping
/// results bit-identical for any thread budget.
fn for_rows_sharded(
    input: &[f32],
    out: &mut [f32],
    c: usize,
    per_chunk: impl Fn(usize, &[f32], &mut [f32]) + Sync,
) {
    let rows = out.len() / c.max(1);
    let shards = row_shards(rows, c);
    if shards <= 1 {
        per_chunk(0, input, out);
        return;
    }
    dar_par::run_shards_mut(out, shards, c, |s, chunk| {
        let r = dar_par::shard_range(rows, shards, s);
        per_chunk(r.start, &input[r.start * c..r.end * c], chunk);
    });
}

impl Tensor {
    /// Softmax over the last dimension, numerically stabilized by max
    /// subtraction.
    pub fn softmax(&self) -> Tensor {
        self.try_softmax().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`softmax`](Self::softmax): a rank-0 or zero-width last
    /// dimension is a typed error instead of a panic.
    pub fn try_softmax(&self) -> DarResult<Tensor> {
        let _span = dar_obs::span("softmax");
        let c = last_dim("softmax", self.shape())?;
        let kern = current_kernel();
        let v = self.values();
        let mut out = vec![0.0f32; v.len()];
        for_rows_sharded(&v, &mut out, c, |_, rows, out_rows| {
            kern.softmax_rows(rows, out_rows, c);
        });
        drop(v);
        Ok(Tensor::from_op(
            "softmax",
            out,
            self.shape().to_vec(),
            vec![self.clone()],
            Box::new(move |g, y_all, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; g.len()];
                for_rows_sharded(g, &mut gin, c, |r0, gr, gin_rows| {
                    let y = &y_all[r0 * c..r0 * c + gr.len()];
                    kern.softmax_bwd_rows(y, gr, gin_rows, c);
                });
                p.accumulate_grad(&gin);
            }),
        ))
    }

    /// Log-softmax over the last dimension (stable log-sum-exp).
    pub fn log_softmax(&self) -> Tensor {
        self.try_log_softmax().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`log_softmax`](Self::log_softmax).
    pub fn try_log_softmax(&self) -> DarResult<Tensor> {
        let _span = dar_obs::span("log_softmax");
        let c = last_dim("log_softmax", self.shape())?;
        let kern = current_kernel();
        let v = self.values();
        let mut out = vec![0.0f32; v.len()];
        for_rows_sharded(&v, &mut out, c, |_, rows, out_rows| {
            kern.log_softmax_rows(rows, out_rows, c);
        });
        drop(v);
        Ok(Tensor::from_op(
            "log_softmax",
            out,
            self.shape().to_vec(),
            vec![self.clone()],
            Box::new(move |g, ls_all, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; g.len()];
                for_rows_sharded(g, &mut gin, c, |r0, gr, gin_rows| {
                    let ls = &ls_all[r0 * c..r0 * c + gr.len()];
                    kern.log_softmax_bwd_rows(ls, gr, gin_rows, c);
                });
                p.accumulate_grad(&gin);
            }),
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::new(vec![1., 2., 3., 10., 10., 10.], &[2, 3]);
        let y = x.softmax().to_vec();
        let s0: f32 = y[..3].iter().sum();
        let s1: f32 = y[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
        assert!((y[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::new(vec![1., 2., 3.], &[1, 3]).softmax().to_vec();
        let b = Tensor::new(vec![1001., 1002., 1003.], &[1, 3])
            .softmax()
            .to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = Tensor::new(vec![0.3, -1.2, 2.0], &[1, 3]);
        let ls = x.log_softmax().to_vec();
        let s = x.softmax().to_vec();
        for (l, p) in ls.iter().zip(&s) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_grad_sums_to_zero_per_row() {
        // Softmax Jacobian rows are orthogonal to constants; a general
        // upstream gradient must produce input grads that sum to ~0 per row.
        let x = Tensor::param(vec![0.5, -0.7, 1.3], &[1, 3]);
        let w = Tensor::new(vec![1.0, 2.0, -0.5], &[1, 3]);
        x.softmax().mul(&w).sum().backward();
        let g = x.grad_vec().unwrap();
        let s: f32 = g.iter().sum();
        assert!(s.abs() < 1e-6, "softmax grad row sum {s} != 0");
    }

    #[test]
    fn log_softmax_handles_extreme_logits() {
        let x = Tensor::new(vec![1000.0, -1000.0], &[1, 2]);
        let y = x.log_softmax().to_vec();
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(y[0].abs() < 1e-5); // ~log(1)
    }

    #[test]
    fn softmax_and_log_softmax_gradcheck() {
        use crate::grad_check::check_gradients;
        let x = Tensor::param(vec![0.5, -0.7, 1.3, 0.2, 2.0, -1.5], &[2, 3]);
        let w = Tensor::new(vec![1.0, 2.0, -0.5, 0.3, -1.2, 0.8], &[2, 3]);
        let rep = check_gradients(
            std::slice::from_ref(&x),
            |ins| ins[0].softmax().mul(&w).sum(),
            1e-2,
        );
        assert!(rep.ok(5e-2), "softmax: {rep:?}");
        let rep = check_gradients(&[x], |ins| ins[0].log_softmax().mul(&w).sum(), 1e-2);
        assert!(rep.ok(5e-2), "log_softmax: {rep:?}");
    }

    #[test]
    fn degenerate_shapes_are_typed_errors_not_panics() {
        let empty = Tensor::new(vec![], &[2, 0]);
        assert!(empty.try_softmax().is_err());
        assert!(empty.try_log_softmax().is_err());
        let ok = Tensor::new(vec![0.0, 1.0], &[1, 2]);
        assert!(ok.try_softmax().is_ok());
    }

    #[test]
    fn softmax_is_bit_identical_across_thread_budgets() {
        // Large enough to cross the parallel threshold.
        let rows = 4096;
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
                let y = x.softmax();
                y.mul(&w).sum().backward();
                (y.to_vec(), x.grad_vec().unwrap())
            })
        };
        assert_eq!(run(1), run(4), "softmax depends on thread budget");
    }
}
