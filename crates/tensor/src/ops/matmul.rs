//! Matrix multiplication: a shard-parallel 2-D GEMM kernel plus a batched
//! 3-D variant used by attention.
//!
//! Parallelism goes through `dar-par` with a **fixed shard decomposition**:
//! the shard count is a pure function of the problem size (never of the
//! thread budget), every shard writes a disjoint row range of the output,
//! and each output element is produced by the same serial inner loop as the
//! single-threaded path. Results are therefore bit-identical for any
//! `DAR_THREADS` (DESIGN.md §9).

use crate::error::{DarError, DarResult};
use crate::ops::kernel::{current_kernel, Kernel};
use crate::Tensor;

/// Problems below this many flops are not worth dispatching to the pool.
const PARALLEL_FLOP_THRESHOLD: usize = 200_000;

/// Don't split finer than this many output rows per shard.
const MIN_ROWS_PER_SHARD: usize = 4;

/// Deterministic shard count for an `[m,k] @ [k,n]` product: 1 below the
/// flop threshold, otherwise a pure function of `m`.
fn gemm_shards(m: usize, k: usize, n: usize) -> usize {
    if 2 * m * k * n < PARALLEL_FLOP_THRESHOLD {
        1
    } else {
        dar_par::shard_count(m, MIN_ROWS_PER_SHARD)
    }
}

/// Shard-parallel GEMM: splits output rows into fixed shards; each shard
/// runs the backend's serial kernel over its rows, so per-element
/// summation order is independent of both sharding and thread count. The
/// kernel is captured by the *dispatching* thread and threaded into the
/// shards (pool workers never consult their own backend selection).
pub(crate) fn gemm(
    kern: &'static dyn Kernel,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let shards = gemm_shards(m, k, n);
    if shards <= 1 || out.is_empty() {
        kern.gemm(a, b, &mut out, m, k, n);
        return out;
    }
    dar_par::run_shards_mut(&mut out, shards, n, |i, chunk| {
        let r = dar_par::shard_range(m, shards, i);
        kern.gemm(&a[r.start * k..r.end * k], b, chunk, r.len(), k, n);
    });
    out
}

/// Materialize the transpose of a row-major `[r, c]` matrix.
pub(crate) fn transpose_raw(x: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = x[i * c + j];
        }
    }
    out
}

/// Deterministic shard count for a batch of `bs` independent `[m,k] @
/// [k,n]` products (each batch item stays whole within one shard).
fn bmm_shards(bs: usize, m: usize, k: usize, n: usize) -> usize {
    if 2 * bs * m * k * n < PARALLEL_FLOP_THRESHOLD {
        1
    } else {
        dar_par::shard_count(bs, 1)
    }
}

impl Tensor {
    /// 2-D matrix product `self[m,k] @ other[k,n] -> [m,n]`.
    ///
    /// # Panics
    /// Panics on non-2-D operands or mismatched inner dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`matmul`](Self::matmul): rank or inner-dim mismatch is a
    /// typed error instead of a panic.
    pub fn try_matmul(&self, other: &Tensor) -> DarResult<Tensor> {
        let _span = dar_obs::span("matmul");
        let (sa, sb) = (self.shape(), other.shape());
        if sa.len() != 2 {
            return Err(DarError::InvalidData(format!(
                "matmul lhs must be 2-D, got {sa:?}"
            )));
        }
        if sb.len() != 2 {
            return Err(DarError::InvalidData(format!(
                "matmul rhs must be 2-D, got {sb:?}"
            )));
        }
        if sa[1] != sb[0] {
            return Err(DarError::InvalidData(format!(
                "matmul inner dims differ: {sa:?} @ {sb:?}"
            )));
        }
        let (m, k, n) = (sa[0], sa[1], sb[1]);
        let kern = current_kernel();
        let values = gemm(kern, &self.values(), &other.values(), m, k, n);
        Ok(Tensor::from_op(
            "matmul",
            values,
            vec![m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |g, _, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                if a.requires_grad() {
                    // dA = G @ B^T : [m,n] @ [n,k]
                    let bt = transpose_raw(&b.values(), k, n);
                    let ga = gemm(kern, g, &bt, m, n, k);
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    // dB = A^T @ G : [k,m] @ [m,n]
                    let at = transpose_raw(&a.values(), m, k);
                    let gb = gemm(kern, &at, g, k, m, n);
                    b.accumulate_grad(&gb);
                }
            }),
        ))
    }

    /// Batched matrix product `self[b,m,k] @ other[b,k,n] -> [b,m,n]`,
    /// shard-parallel over the batch dimension.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        self.try_bmm(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`bmm`](Self::bmm): rank, batch, or inner-dim mismatch is a
    /// typed error instead of a panic.
    pub fn try_bmm(&self, other: &Tensor) -> DarResult<Tensor> {
        let _span = dar_obs::span("bmm");
        let (sa, sb) = (self.shape(), other.shape());
        if sa.len() != 3 {
            return Err(DarError::InvalidData(format!(
                "bmm lhs must be 3-D, got {sa:?}"
            )));
        }
        if sb.len() != 3 {
            return Err(DarError::InvalidData(format!(
                "bmm rhs must be 3-D, got {sb:?}"
            )));
        }
        if sa[0] != sb[0] {
            return Err(DarError::InvalidData(format!(
                "bmm batch dims differ: {sa:?} vs {sb:?}"
            )));
        }
        if sa[2] != sb[1] {
            return Err(DarError::InvalidData(format!(
                "bmm inner dims differ: {sa:?} @ {sb:?}"
            )));
        }
        let (bs, m, k, n) = (sa[0], sa[1], sa[2], sb[2]);
        let kern = current_kernel();
        let av_guard = self.values();
        let bv_guard = other.values();
        // Reborrow as plain slices: the cell guards are not Sync, slices are.
        let (av, bv): (&[f32], &[f32]) = (&av_guard, &bv_guard);
        let mut values = vec![0.0f32; bs * m * n];
        let shards = bmm_shards(bs, m, k, n);
        if shards <= 1 || values.is_empty() {
            for i in 0..bs {
                let a_i = &av[i * m * k..(i + 1) * m * k];
                let b_i = &bv[i * k * n..(i + 1) * k * n];
                kern.gemm(a_i, b_i, &mut values[i * m * n..(i + 1) * m * n], m, k, n);
            }
        } else {
            dar_par::run_shards_mut(&mut values, shards, m * n, |s, chunk| {
                for (local, i) in dar_par::shard_range(bs, shards, s).enumerate() {
                    kern.gemm(
                        &av[i * m * k..(i + 1) * m * k],
                        &bv[i * k * n..(i + 1) * k * n],
                        &mut chunk[local * m * n..(local + 1) * m * n],
                        m,
                        k,
                        n,
                    );
                }
            });
        }
        drop(av_guard);
        drop(bv_guard);
        Ok(Tensor::from_op(
            "bmm",
            values,
            vec![bs, m, n],
            vec![self.clone(), other.clone()],
            Box::new(move |g, _, parents| {
                let (a, b) = (&parents[0], &parents[1]);
                let shards = bmm_shards(bs, m, k, n);
                if a.requires_grad() {
                    let bv_guard = b.values();
                    let bv: &[f32] = &bv_guard;
                    let mut ga = vec![0.0f32; bs * m * k];
                    let per_item = |i: usize, out: &mut [f32]| {
                        // dA_i = G_i @ B_i^T
                        let bt = transpose_raw(&bv[i * k * n..(i + 1) * k * n], k, n);
                        kern.gemm(&g[i * m * n..(i + 1) * m * n], &bt, out, m, n, k);
                    };
                    if shards <= 1 || ga.is_empty() {
                        for i in 0..bs {
                            per_item(i, &mut ga[i * m * k..(i + 1) * m * k]);
                        }
                    } else {
                        dar_par::run_shards_mut(&mut ga, shards, m * k, |s, chunk| {
                            for (local, i) in dar_par::shard_range(bs, shards, s).enumerate() {
                                per_item(i, &mut chunk[local * m * k..(local + 1) * m * k]);
                            }
                        });
                    }
                    drop(bv_guard);
                    a.accumulate_grad(&ga);
                }
                if b.requires_grad() {
                    let av_guard = a.values();
                    let av: &[f32] = &av_guard;
                    let mut gb = vec![0.0f32; bs * k * n];
                    let per_item = |i: usize, out: &mut [f32]| {
                        // dB_i = A_i^T @ G_i
                        let at = transpose_raw(&av[i * m * k..(i + 1) * m * k], m, k);
                        kern.gemm(&at, &g[i * m * n..(i + 1) * m * n], out, k, m, n);
                    };
                    if shards <= 1 || gb.is_empty() {
                        for i in 0..bs {
                            per_item(i, &mut gb[i * k * n..(i + 1) * k * n]);
                        }
                    } else {
                        dar_par::run_shards_mut(&mut gb, shards, k * n, |s, chunk| {
                            for (local, i) in dar_par::shard_range(bs, shards, s).enumerate() {
                                per_item(i, &mut chunk[local * k * n..(local + 1) * k * n]);
                            }
                        });
                    }
                    drop(av_guard);
                    b.accumulate_grad(&gb);
                }
            }),
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    #[test]
    fn matmul_2x2_identity() {
        let a = Tensor::new(vec![1., 2., 3., 4.], &[2, 2]);
        let i = Tensor::new(vec![1., 0., 0., 1.], &[2, 2]);
        assert_eq!(a.matmul(&i).to_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::new(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::new(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        // [[58, 64], [139, 154]]
        assert_eq!(a.matmul(&b).to_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_gradients() {
        let a = Tensor::param(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::param(vec![5., 6., 7., 8.], &[2, 2]);
        let y = a.matmul(&b).sum();
        y.backward();
        // dA = G @ B^T with G = ones: rows sum of B columns.
        assert_eq!(a.grad_vec().unwrap(), vec![11., 15., 11., 15.]);
        assert_eq!(b.grad_vec().unwrap(), vec![4., 4., 6., 6.]);
    }

    #[test]
    fn large_matmul_threaded_matches_serial() {
        // Exercise the sharded path against a naive reference.
        let m = 64;
        let k = 200;
        let n = 170;
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 19) as f32 - 9.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 23) as f32 - 11.0).collect();
        let got = super::gemm(crate::current_kernel(), &a, &b, m, k, n);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                want[i * n + j] = acc;
            }
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "threaded gemm mismatch: {g} vs {w}");
        }
    }

    #[test]
    fn gemm_is_bit_identical_across_thread_budgets() {
        // The determinism contract: any thread budget, same bits.
        let m = 48;
        let k = 96;
        let n = 64;
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31) % 17) as f32 * 0.37 - 2.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 29) % 13) as f32 * 0.11 - 0.7)
            .collect();
        for kern in [
            crate::kernel_for(crate::KernelBackend::Reference),
            crate::kernel_for(crate::KernelBackend::Blocked),
        ] {
            let serial = dar_par::with_threads(1, || super::gemm(kern, &a, &b, m, k, n));
            let par = dar_par::with_threads(4, || super::gemm(kern, &a, &b, m, k, n));
            assert_eq!(
                serial,
                par,
                "{} gemm output depends on thread budget",
                kern.name()
            );
        }
    }

    #[test]
    fn bmm_is_bit_identical_across_thread_budgets() {
        let (bs, m, k, n) = (8, 16, 24, 20);
        let a = Tensor::new(
            (0..bs * m * k)
                .map(|i| ((i * 7) % 11) as f32 - 5.0)
                .collect(),
            &[bs, m, k],
        );
        let b = Tensor::new(
            (0..bs * k * n)
                .map(|i| ((i * 5) % 9) as f32 - 4.0)
                .collect(),
            &[bs, k, n],
        );
        let run = |threads: usize| {
            dar_par::with_threads(threads, || {
                let ap = Tensor::param(a.to_vec(), &[bs, m, k]);
                let bp = Tensor::param(b.to_vec(), &[bs, k, n]);
                let y = ap.bmm(&bp);
                y.sum().backward();
                (y.to_vec(), ap.grad_vec().unwrap(), bp.grad_vec().unwrap())
            })
        };
        assert_eq!(run(1), run(4), "bmm fwd/bwd depends on thread budget");
    }

    #[test]
    fn bmm_forward_and_grad() {
        let a = Tensor::param(vec![1., 0., 0., 1., 2., 0., 0., 2.], &[2, 2, 2]);
        let b = Tensor::param(vec![1., 2., 3., 4., 5., 6., 7., 8.], &[2, 2, 2]);
        let y = a.bmm(&b);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4., 10., 12., 14., 16.]);
        y.sum().backward();
        assert!(a.grad_vec().is_some());
        assert_eq!(b.grad_vec().unwrap(), vec![1., 1., 1., 1., 2., 2., 2., 2.]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::new(vec![0.0; 6], &[2, 3]);
        let b = Tensor::new(vec![0.0; 8], &[2, 4]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn try_matmul_and_bmm_return_typed_errors() {
        let a = Tensor::new(vec![0.0; 6], &[2, 3]);
        let b = Tensor::new(vec![0.0; 8], &[2, 4]);
        assert!(a.try_matmul(&b).is_err());
        assert!(a.try_matmul(&a).is_err()); // inner dims 3 vs 2
        assert!(a.try_bmm(&b).is_err()); // not 3-D
        let i = Tensor::new(vec![1., 0., 0., 1., 0., 0.], &[3, 2]);
        assert_eq!(a.try_matmul(&i).unwrap().shape(), &[2, 2]);
    }
}
