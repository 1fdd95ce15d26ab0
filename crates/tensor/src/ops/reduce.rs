//! Reductions: global and per-axis sum/mean, and max over an axis (pooling).

use crate::error::{DarError, DarResult};
use crate::shape::{numel, strides};
use crate::Tensor;

/// Split a shape at `axis` into (outer, axis_len, inner) extents so a
/// reduction can be written as three nested loops over contiguous memory.
fn axis_split(op: &'static str, shape: &[usize], axis: usize) -> DarResult<(usize, usize, usize)> {
    if axis >= shape.len() {
        return Err(DarError::InvalidData(format!(
            "{op}: axis {axis} out of range for shape {shape:?}"
        )));
    }
    let outer: usize = shape[..axis].iter().product();
    let len = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    Ok((outer, len, inner))
}

fn reduced_shape(shape: &[usize], axis: usize, keepdim: bool) -> Vec<usize> {
    let mut s = shape.to_vec();
    if keepdim {
        s[axis] = 1;
    } else {
        s.remove(axis);
        if s.is_empty() {
            s.push(1);
        }
    }
    s
}

impl Tensor {
    /// Sum of all elements, returned as a `[1]` scalar tensor.
    pub fn sum(&self) -> Tensor {
        let total: f32 = self.values().iter().sum();
        let n = self.len();
        Tensor::from_op(
            "sum",
            vec![total],
            vec![1],
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if p.requires_grad() {
                    p.accumulate_grad(&vec![g[0]; n]);
                }
            }),
        )
    }

    /// Mean of all elements as a `[1]` scalar tensor.
    pub fn mean(&self) -> Tensor {
        let n = self.len() as f32;
        self.sum().scale(1.0 / n)
    }

    /// Sum over one axis. With `keepdim` the axis is kept at size 1.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        self.try_sum_axis(axis, keepdim)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`sum_axis`](Self::sum_axis): an out-of-range axis is a
    /// typed error instead of a panic.
    pub fn try_sum_axis(&self, axis: usize, keepdim: bool) -> DarResult<Tensor> {
        let (outer, len, inner) = axis_split("sum_axis", self.shape(), axis)?;
        let v = self.values();
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for l in 0..len {
                let base = (o * len + l) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += v[base + i];
                }
            }
        }
        drop(v);
        let out_shape = reduced_shape(self.shape(), axis, keepdim);
        Ok(Tensor::from_op(
            "sum_axis",
            out,
            out_shape,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; outer * len * inner];
                for o in 0..outer {
                    for l in 0..len {
                        let base = (o * len + l) * inner;
                        let obase = o * inner;
                        gin[base..base + inner].copy_from_slice(&g[obase..obase + inner]);
                    }
                }
                p.accumulate_grad(&gin);
            }),
        ))
    }

    /// Mean over one axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        self.try_mean_axis(axis, keepdim)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`mean_axis`](Self::mean_axis).
    pub fn try_mean_axis(&self, axis: usize, keepdim: bool) -> DarResult<Tensor> {
        let (_, len, _) = axis_split("mean_axis", self.shape(), axis)?;
        Ok(self.try_sum_axis(axis, keepdim)?.scale(1.0 / len as f32))
    }

    /// Max over one axis; the gradient flows only to the arg-max element of
    /// each reduced group (ties go to the first).
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        self.try_max_axis(axis, keepdim)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`max_axis`](Self::max_axis): an out-of-range axis or an
    /// empty reduction axis is a typed error instead of a panic.
    pub fn try_max_axis(&self, axis: usize, keepdim: bool) -> DarResult<Tensor> {
        let (outer, len, inner) = axis_split("max_axis", self.shape(), axis)?;
        if len == 0 {
            return Err(DarError::InvalidData(format!(
                "max over empty axis {axis} of shape {:?}",
                self.shape()
            )));
        }
        let v = self.values();
        let mut out = vec![f32::NEG_INFINITY; outer * inner];
        let mut arg = vec![0usize; outer * inner];
        for o in 0..outer {
            for l in 0..len {
                let base = (o * len + l) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    let x = v[base + i];
                    if x > out[obase + i] {
                        out[obase + i] = x;
                        arg[obase + i] = l;
                    }
                }
            }
        }
        drop(v);
        let out_shape = reduced_shape(self.shape(), axis, keepdim);
        Ok(Tensor::from_op(
            "max_axis",
            out,
            out_shape,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; outer * len * inner];
                for o in 0..outer {
                    let obase = o * inner;
                    for i in 0..inner {
                        let l = arg[obase + i];
                        gin[(o * len + l) * inner + i] += g[obase + i];
                    }
                }
                p.accumulate_grad(&gin);
            }),
        ))
    }

    /// Reshape without changing data order.
    ///
    /// # Panics
    /// Panics if the element count changes.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        self.try_reshape(shape).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`reshape`](Self::reshape): an element-count change is a
    /// typed error instead of a panic.
    pub fn try_reshape(&self, shape: &[usize]) -> DarResult<Tensor> {
        if self.len() != numel(shape) {
            return Err(DarError::InvalidData(format!(
                "reshape from {:?} to {:?} changes element count",
                self.shape(),
                shape
            )));
        }
        Ok(Tensor::from_op(
            "reshape",
            self.to_vec(),
            shape.to_vec(),
            vec![self.clone()],
            Box::new(|g, _, parents| {
                let p = &parents[0];
                if p.requires_grad() {
                    p.accumulate_grad(g);
                }
            }),
        ))
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "transpose expects a 2-D tensor, got {s:?}");
        let (r, c) = (s[0], s[1]);
        let values = super::matmul::transpose_raw(&self.values(), r, c);
        Tensor::from_op(
            "transpose",
            values,
            vec![c, r],
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if p.requires_grad() {
                    let gt = super::matmul::transpose_raw(g, c, r);
                    p.accumulate_grad(&gt);
                }
            }),
        )
    }

    /// Permute the axes of a 3-D tensor (e.g. `[B,L,H] -> [L,B,H]`).
    pub fn permute3(&self, perm: [usize; 3]) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 3, "permute3 expects a 3-D tensor, got {s:?}");
        let out_shape = vec![s[perm[0]], s[perm[1]], s[perm[2]]];
        let in_strides = strides(s);
        let out_strides = strides(&out_shape);
        let v = self.values();
        let n = v.len();
        let mut out = vec![0.0f32; n];
        for a in 0..out_shape[0] {
            for b in 0..out_shape[1] {
                for c in 0..out_shape[2] {
                    let mut coords = [0usize; 3];
                    coords[perm[0]] = a;
                    coords[perm[1]] = b;
                    coords[perm[2]] = c;
                    let src = coords[0] * in_strides[0] + coords[1] * in_strides[1] + coords[2];
                    let dst = a * out_strides[0] + b * out_strides[1] + c;
                    out[dst] = v[src];
                }
            }
        }
        drop(v);
        let os = out_shape.clone();
        let in_shape = s.to_vec();
        Tensor::from_op(
            "permute3",
            out,
            out_shape,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let in_strides = strides(&in_shape);
                let out_strides = strides(&os);
                let mut gin = vec![0.0f32; g.len()];
                for a in 0..os[0] {
                    for b in 0..os[1] {
                        for c in 0..os[2] {
                            let mut coords = [0usize; 3];
                            coords[perm[0]] = a;
                            coords[perm[1]] = b;
                            coords[perm[2]] = c;
                            let src =
                                coords[0] * in_strides[0] + coords[1] * in_strides[1] + coords[2];
                            let dst = a * out_strides[0] + b * out_strides[1] + c;
                            gin[src] += g[dst];
                        }
                    }
                }
                p.accumulate_grad(&gin);
            }),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    #[test]
    fn sum_and_mean() {
        let x = Tensor::param(vec![1., 2., 3., 4.], &[2, 2]);
        assert_eq!(x.sum().item(), 10.0);
        assert_eq!(x.mean().item(), 2.5);
        x.mean().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn sum_axis0_and_axis1() {
        let x = Tensor::new(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(x.sum_axis(0, false).to_vec(), vec![5., 7., 9.]);
        assert_eq!(x.sum_axis(0, false).shape(), &[3]);
        assert_eq!(x.sum_axis(1, false).to_vec(), vec![6., 15.]);
        assert_eq!(x.sum_axis(1, true).shape(), &[2, 1]);
    }

    #[test]
    fn sum_axis_grad_broadcasts_back() {
        let x = Tensor::param(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let y = x.sum_axis(1, false); // [2]
        let w = Tensor::new(vec![1.0, 10.0], &[2]);
        y.mul(&w).sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1., 1., 1., 10., 10., 10.]);
    }

    #[test]
    fn max_axis_routes_grad_to_argmax() {
        let x = Tensor::param(vec![1., 5., 3., 7., 2., 7.], &[2, 3]);
        let y = x.max_axis(1, false);
        assert_eq!(y.to_vec(), vec![5., 7.]);
        y.sum().backward();
        // Second row ties at 7: first occurrence wins.
        assert_eq!(x.grad_vec().unwrap(), vec![0., 1., 0., 1., 0., 0.]);
    }

    #[test]
    fn max_axis_middle_of_3d() {
        // Max over time for [B=1, L=3, H=2].
        let x = Tensor::new(vec![1., 9., 5., 2., 3., 4.], &[1, 3, 2]);
        let y = x.max_axis(1, false);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.to_vec(), vec![5., 9.]);
    }

    #[test]
    fn reshape_roundtrip_grad() {
        let x = Tensor::param(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let y = x.reshape(&[3, 2]).reshape(&[6]);
        y.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1.0; 6]);
    }

    #[test]
    fn transpose_forward_and_grad() {
        let x = Tensor::param(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let y = x.transpose();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
        let w = Tensor::new(vec![1., 0., 0., 0., 0., 0.], &[3, 2]);
        y.mul(&w).sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1., 0., 0., 0., 0., 0.]);
    }

    #[test]
    fn try_reductions_return_typed_errors() {
        let x = Tensor::new(vec![1., 2., 3., 4.], &[2, 2]);
        assert!(x.try_sum_axis(2, false).is_err());
        assert!(x.try_mean_axis(5, true).is_err());
        assert!(x.try_max_axis(3, false).is_err());
        assert!(x.try_reshape(&[3]).is_err());
        let empty = Tensor::new(vec![], &[2, 0]);
        assert!(empty.try_max_axis(1, false).is_err());
        assert_eq!(x.try_sum_axis(0, false).unwrap().to_vec(), vec![4., 6.]);
    }

    #[test]
    fn permute3_roundtrip() {
        let x = Tensor::param((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let y = x.permute3([1, 0, 2]);
        assert_eq!(y.shape(), &[3, 2, 4]);
        let z = y.permute3([1, 0, 2]);
        assert_eq!(z.to_vec(), x.to_vec());
        z.sum().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1.0; 24]);
    }
}
