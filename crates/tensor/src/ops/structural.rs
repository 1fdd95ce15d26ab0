//! Structural ops: concat, narrow (slice), and row stacking.

use crate::error::{DarError, DarResult};
use crate::shape::numel;
use crate::Tensor;

/// Split a shape at `axis` into (outer, axis_len, inner) extents.
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

/// Concatenate tensors along `axis`. All other dimensions must match.
pub fn concat(tensors: &[Tensor], axis: usize) -> Tensor {
    try_concat(tensors, axis).unwrap_or_else(|e| panic!("{e}"))
}

/// Checked [`concat`]: empty input, rank mismatch, bad axis, or non-axis
/// dim mismatch is a typed error instead of a panic.
pub fn try_concat(tensors: &[Tensor], axis: usize) -> DarResult<Tensor> {
    if tensors.is_empty() {
        return Err(DarError::InvalidData("concat of zero tensors".into()));
    }
    let rank = tensors[0].shape().len();
    if axis >= rank {
        return Err(DarError::InvalidData(format!(
            "concat: axis {axis} out of range for shape {:?}",
            tensors[0].shape()
        )));
    }
    for t in tensors {
        if t.shape().len() != rank {
            return Err(DarError::InvalidData(format!(
                "concat rank mismatch: {:?} vs {:?}",
                t.shape(),
                tensors[0].shape()
            )));
        }
        for (d, (a, b)) in t.shape().iter().zip(tensors[0].shape()).enumerate() {
            if d != axis && a != b {
                return Err(DarError::InvalidData(format!(
                    "concat non-axis dims differ: {:?}",
                    t.shape()
                )));
            }
        }
    }
    let mut out_shape = tensors[0].shape().to_vec();
    out_shape[axis] = tensors.iter().map(|t| t.shape()[axis]).sum();
    let (outer, _, inner) = axis_split("concat", &out_shape, axis)?;
    let mut out = vec![0.0f32; numel(&out_shape)];
    let total_axis = out_shape[axis];
    let mut offset = 0usize;
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(tensors.len());
    for t in tensors {
        let alen = t.shape()[axis];
        let v = t.values();
        for o in 0..outer {
            let src = &v[o * alen * inner..(o + 1) * alen * inner];
            let dst_base = o * total_axis * inner + offset * inner;
            out[dst_base..dst_base + alen * inner].copy_from_slice(src);
        }
        spans.push((offset, alen));
        offset += alen;
    }
    let parents: Vec<Tensor> = tensors.to_vec();
    Ok(Tensor::from_op(
        "concat",
        out,
        out_shape,
        parents,
        Box::new(move |g, _, parents| {
            for (t, &(off, alen)) in parents.iter().zip(&spans) {
                if !t.requires_grad() {
                    continue;
                }
                let mut gin = vec![0.0f32; outer * alen * inner];
                for o in 0..outer {
                    let src_base = o * total_axis * inner + off * inner;
                    gin[o * alen * inner..(o + 1) * alen * inner]
                        .copy_from_slice(&g[src_base..src_base + alen * inner]);
                }
                t.accumulate_grad(&gin);
            }
        }),
    ))
}

/// Stack `[r, c]`-shaped tensors along a new leading axis into `[n, r, c]`
/// (general: any equal shapes).
pub fn stack(tensors: &[Tensor]) -> Tensor {
    try_stack(tensors).unwrap_or_else(|e| panic!("{e}"))
}

/// Checked [`stack`]: empty input or a shape mismatch is a typed error
/// instead of a panic.
pub fn try_stack(tensors: &[Tensor]) -> DarResult<Tensor> {
    if tensors.is_empty() {
        return Err(DarError::InvalidData("stack of zero tensors".into()));
    }
    let inner_shape = tensors[0].shape().to_vec();
    let inner_len = numel(&inner_shape);
    let mut out = Vec::with_capacity(tensors.len() * inner_len);
    for t in tensors {
        if t.shape() != inner_shape.as_slice() {
            return Err(DarError::ShapeMismatch {
                expected: inner_shape.clone(),
                got: t.shape().to_vec(),
            });
        }
        out.extend_from_slice(&t.values());
    }
    let mut out_shape = vec![tensors.len()];
    out_shape.extend_from_slice(&inner_shape);
    Ok(Tensor::from_op(
        "stack",
        out,
        out_shape,
        tensors.to_vec(),
        Box::new(move |g, _, parents| {
            for (i, t) in parents.iter().enumerate() {
                if t.requires_grad() {
                    t.accumulate_grad(&g[i * inner_len..(i + 1) * inner_len]);
                }
            }
        }),
    ))
}

impl Tensor {
    /// Slice `len` entries starting at `start` along `axis`, keeping rank.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        self.try_narrow(axis, start, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`narrow`](Self::narrow): a bad axis or out-of-range slice
    /// is a typed error instead of a panic.
    pub fn try_narrow(&self, axis: usize, start: usize, len: usize) -> DarResult<Tensor> {
        let shape = self.shape().to_vec();
        let (outer, alen, inner) = axis_split("narrow", &shape, axis)?;
        if start + len > alen {
            return Err(DarError::InvalidData(format!(
                "narrow [{start}..{}] out of range for axis {axis} of {shape:?}",
                start + len
            )));
        }
        let v = self.values();
        let mut out = vec![0.0f32; outer * len * inner];
        for o in 0..outer {
            let src_base = (o * alen + start) * inner;
            out[o * len * inner..(o + 1) * len * inner]
                .copy_from_slice(&v[src_base..src_base + len * inner]);
        }
        drop(v);
        let mut out_shape = shape.clone();
        out_shape[axis] = len;
        Ok(Tensor::from_op(
            "narrow",
            out,
            out_shape,
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; outer * alen * inner];
                for o in 0..outer {
                    let dst_base = (o * alen + start) * inner;
                    gin[dst_base..dst_base + len * inner]
                        .copy_from_slice(&g[o * len * inner..(o + 1) * len * inner]);
                }
                p.accumulate_grad(&gin);
            }),
        ))
    }

    /// Concatenate `self` with `other` along `axis`.
    pub fn cat(&self, other: &Tensor, axis: usize) -> Tensor {
        concat(&[self.clone(), other.clone()], axis)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::{concat, stack};
    use crate::Tensor;

    #[test]
    fn cat_columns() {
        let a = Tensor::param(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::param(vec![5., 6.], &[2, 1]);
        let y = a.cat(&b, 1);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.to_vec(), vec![1., 2., 5., 3., 4., 6.]);
        y.sum().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0; 4]);
        assert_eq!(b.grad_vec().unwrap(), vec![1.0; 2]);
    }

    #[test]
    fn cat_rows() {
        let a = Tensor::new(vec![1., 2.], &[1, 2]);
        let b = Tensor::new(vec![3., 4.], &[1, 2]);
        let y = a.cat(&b, 0);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    fn concat_three_way_grad_splits() {
        let parts: Vec<Tensor> = (0..3)
            .map(|i| Tensor::param(vec![i as f32; 2], &[1, 2]))
            .collect();
        let y = concat(&parts, 1);
        assert_eq!(y.shape(), &[1, 6]);
        let w = Tensor::new(vec![1., 2., 3., 4., 5., 6.], &[1, 6]);
        y.mul(&w).sum().backward();
        assert_eq!(parts[0].grad_vec().unwrap(), vec![1., 2.]);
        assert_eq!(parts[1].grad_vec().unwrap(), vec![3., 4.]);
        assert_eq!(parts[2].grad_vec().unwrap(), vec![5., 6.]);
    }

    #[test]
    fn narrow_middle_axis() {
        let x = Tensor::param((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let y = x.narrow(1, 1, 1);
        assert_eq!(y.shape(), &[2, 1, 4]);
        assert_eq!(y.to_vec(), vec![4., 5., 6., 7., 16., 17., 18., 19.]);
        y.sum().backward();
        let g = x.grad_vec().unwrap();
        assert_eq!(g[4..8], [1.0; 4]);
        assert_eq!(g[0..4], [0.0; 4]);
    }

    #[test]
    fn narrow_then_reshape_is_time_step_extraction() {
        // The GRU pattern: [B,L,E] -> step t -> [B,E].
        let x = Tensor::new((0..12).map(|i| i as f32).collect(), &[2, 3, 2]);
        let t1 = x.narrow(1, 1, 1).reshape(&[2, 2]);
        assert_eq!(t1.to_vec(), vec![2., 3., 8., 9.]);
    }

    #[test]
    fn stack_makes_new_axis() {
        let a = Tensor::param(vec![1., 2.], &[2]);
        let b = Tensor::param(vec![3., 4.], &[2]);
        let y = stack(&[a.clone(), b.clone()]);
        assert_eq!(y.shape(), &[2, 2]);
        y.sum().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1., 1.]);
        assert_eq!(b.grad_vec().unwrap(), vec![1., 1.]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn narrow_out_of_range_panics() {
        let x = Tensor::new(vec![0.0; 4], &[2, 2]);
        let _ = x.narrow(1, 1, 2);
    }

    #[test]
    fn try_structural_ops_return_typed_errors() {
        let x = Tensor::new(vec![0.0; 4], &[2, 2]);
        assert!(x.try_narrow(1, 1, 2).is_err());
        assert!(x.try_narrow(5, 0, 1).is_err());
        assert!(super::try_concat(&[], 0).is_err());
        assert!(super::try_concat(std::slice::from_ref(&x), 3).is_err());
        let y = Tensor::new(vec![0.0; 2], &[1, 2]);
        assert!(super::try_concat(&[x.clone(), y.clone()], 0).is_ok());
        assert!(super::try_concat(&[x.clone(), y.clone()], 1).is_err());
        assert!(super::try_stack(&[]).is_err());
        assert!(super::try_stack(&[x.clone(), y]).is_err());
        assert!(super::try_stack(&[x.clone(), x]).is_ok());
    }
}
