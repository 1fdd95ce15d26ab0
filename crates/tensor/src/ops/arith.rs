//! Elementwise binary arithmetic with NumPy-style broadcasting, plus scalar
//! ops.
//!
//! The two broadcast patterns the models hammer — a trailing row vector
//! (`[n, c] op [c]`, every bias add) and a trailing size-1 dim
//! (`[b, l, e] op [b, l, 1]`, every rationale masking) — take dedicated
//! loops; everything else falls back to generic stride arithmetic.

use crate::error::{DarError, DarResult};
use crate::shape::{
    broadcast_index, broadcast_shape, broadcast_strides, numel, reduce_grad_to_shape, strides,
};
use crate::Tensor;

/// How the two operands combine, and the local derivatives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Provenance label for the taint layer.
fn op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
    }
}

#[inline(always)]
fn apply(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
    }
}

/// Local derivative w.r.t. `a`, times upstream gradient `g`.
#[inline(always)]
fn da(op: BinOp, g: f32, _a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add | BinOp::Sub => g,
        BinOp::Mul => g * b,
        BinOp::Div => g / b,
    }
}

/// Local derivative w.r.t. `b`, times upstream gradient `g`.
#[inline(always)]
fn db(op: BinOp, g: f32, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => g,
        BinOp::Sub => -g,
        BinOp::Mul => g * a,
        BinOp::Div => -g * a / (b * b),
    }
}

/// Recognized broadcast layouts (operand `a` always has the output shape
/// in the fast cases; `swap` marks when the roles were exchanged).
enum Layout {
    /// Identical shapes.
    Same,
    /// `b` is a single scalar.
    ScalarB,
    /// `b` is a row vector equal to `a`'s trailing dimensions:
    /// out = a viewed as `[rows, c]`, b of length `c`.
    RowB { rows: usize, c: usize },
    /// `b` matches `a` except its last dimension is 1:
    /// out = a viewed as `[rows, c]`, b of length `rows`.
    LastOneB { rows: usize, c: usize },
    /// Anything else.
    General,
}

fn classify(a: &[usize], b: &[usize]) -> Layout {
    if a == b {
        return Layout::Same;
    }
    let an = numel(a);
    let bn = numel(b);
    if bn == 1 {
        return Layout::ScalarB;
    }
    if bn < an {
        // Row vector: b's shape equals a trailing suffix of a's shape
        // (with any leading 1s stripped).
        let bs: Vec<usize> = b.iter().copied().skip_while(|&d| d == 1).collect();
        if !bs.is_empty() && a.len() >= bs.len() && a[a.len() - bs.len()..] == bs[..] {
            let c = numel(&bs);
            return Layout::RowB { rows: an / c, c };
        }
        // Trailing one: b == a except last dim 1.
        if b.len() == a.len() && b[b.len() - 1] == 1 && a[..a.len() - 1] == b[..b.len() - 1] {
            let c = a[a.len() - 1];
            return Layout::LastOneB { rows: an / c, c };
        }
    }
    Layout::General
}

/// Compute the broadcast elementwise result of `a op b`.
fn forward(op: BinOp, a: &Tensor, b: &Tensor) -> DarResult<(Vec<f32>, Vec<usize>)> {
    let out_shape = broadcast_shape(a.shape(), b.shape()).ok_or_else(|| {
        DarError::InvalidData(format!(
            "cannot broadcast shapes {:?} and {:?}",
            a.shape(),
            b.shape()
        ))
    })?;
    let av = a.values();
    let bv = b.values();
    let n = numel(&out_shape);
    let mut out: Vec<f32> = Vec::with_capacity(n);
    match classify(a.shape(), b.shape()) {
        Layout::Same => {
            out.extend(av.iter().zip(bv.iter()).map(|(&x, &y)| apply(op, x, y)));
        }
        Layout::ScalarB => {
            let y = bv[0];
            out.extend(av.iter().map(|&x| apply(op, x, y)));
        }
        Layout::RowB { rows, c } => {
            for r in 0..rows {
                let row = &av[r * c..(r + 1) * c];
                out.extend(row.iter().zip(bv.iter()).map(|(&x, &y)| apply(op, x, y)));
            }
        }
        Layout::LastOneB { rows, c } => {
            for r in 0..rows {
                let y = bv[r];
                let row = &av[r * c..(r + 1) * c];
                out.extend(row.iter().map(|&x| apply(op, x, y)));
            }
        }
        Layout::General => {
            // Either a is the smaller operand, or the shapes interleave.
            if a.len() == 1 {
                let x = av[0];
                out.extend(bv.iter().map(|&y| apply(op, x, y)));
            } else {
                let os = strides(&out_shape);
                let asd = broadcast_strides(a.shape(), &out_shape);
                let bsd = broadcast_strides(b.shape(), &out_shape);
                for lin in 0..n {
                    let x = av[broadcast_index(lin, &os, &asd)];
                    let y = bv[broadcast_index(lin, &os, &bsd)];
                    out.push(apply(op, x, y));
                }
            }
        }
    }
    Ok((out, out_shape))
}

/// Gradient of the broadcast binary op w.r.t. each operand, reduced back to
/// the operand's own shape.
fn binary_backward(op: BinOp, g: &[f32], out_shape: &[usize], a: &Tensor, b: &Tensor) {
    let need_a = a.requires_grad();
    let need_b = b.requires_grad();
    if !need_a && !need_b {
        return;
    }
    let av = a.values();
    let bv = b.values();
    match (a.shape() == out_shape).then(|| classify(a.shape(), b.shape())) {
        Some(Layout::Same) => {
            if need_a {
                let ga: Vec<f32> = (0..g.len()).map(|i| da(op, g[i], av[i], bv[i])).collect();
                drop_and_acc(a, av, ga);
            }
            if need_b {
                let av = a.values();
                let gb: Vec<f32> = (0..g.len()).map(|i| db(op, g[i], av[i], bv[i])).collect();
                drop(av);
                drop(bv);
                b.accumulate_grad(&gb);
            }
        }
        Some(Layout::ScalarB) => {
            let y = bv[0];
            if need_a {
                let ga: Vec<f32> = (0..g.len()).map(|i| da(op, g[i], av[i], y)).collect();
                drop_and_acc(a, av, ga);
            }
            if need_b {
                let av = a.values();
                let mut acc = 0.0f32;
                for i in 0..g.len() {
                    acc += db(op, g[i], av[i], y);
                }
                drop(av);
                drop(bv);
                b.accumulate_grad(&[acc]);
            }
        }
        Some(Layout::RowB { rows, c }) => {
            if need_a {
                let mut ga = Vec::with_capacity(g.len());
                for r in 0..rows {
                    for j in 0..c {
                        let i = r * c + j;
                        ga.push(da(op, g[i], av[i], bv[j]));
                    }
                }
                drop_and_acc(a, av, ga);
            }
            if need_b {
                let av = a.values();
                let mut gb = vec![0.0f32; c];
                for r in 0..rows {
                    for j in 0..c {
                        let i = r * c + j;
                        gb[j] += db(op, g[i], av[i], bv[j]);
                    }
                }
                drop(av);
                drop(bv);
                b.accumulate_grad(&gb);
            }
        }
        Some(Layout::LastOneB { rows, c }) => {
            if need_a {
                let mut ga = Vec::with_capacity(g.len());
                for r in 0..rows {
                    let y = bv[r];
                    for j in 0..c {
                        let i = r * c + j;
                        ga.push(da(op, g[i], av[i], y));
                    }
                }
                drop_and_acc(a, av, ga);
            }
            if need_b {
                let av = a.values();
                let mut gb = vec![0.0f32; rows];
                for r in 0..rows {
                    let y = bv[r];
                    let mut acc = 0.0f32;
                    for j in 0..c {
                        let i = r * c + j;
                        acc += db(op, g[i], av[i], y);
                    }
                    gb[r] = acc;
                }
                drop(av);
                drop(bv);
                b.accumulate_grad(&gb);
            }
        }
        _ => {
            // General path: stride arithmetic + reduction to each shape.
            let n = g.len();
            let os = strides(out_shape);
            let asd = broadcast_strides(a.shape(), out_shape);
            let bsd = broadcast_strides(b.shape(), out_shape);
            let mut ga = if need_a { vec![0.0f32; n] } else { Vec::new() };
            let mut gb = if need_b { vec![0.0f32; n] } else { Vec::new() };
            for lin in 0..n {
                let ai = broadcast_index(lin, &os, &asd);
                let bi = broadcast_index(lin, &os, &bsd);
                if need_a {
                    ga[lin] = da(op, g[lin], av[ai], bv[bi]);
                }
                if need_b {
                    gb[lin] = db(op, g[lin], av[ai], bv[bi]);
                }
            }
            drop(av);
            drop(bv);
            if need_a {
                let r = reduce_grad_to_shape(&ga, out_shape, a.shape());
                a.accumulate_grad(&r);
            }
            if need_b {
                let r = reduce_grad_to_shape(&gb, out_shape, b.shape());
                b.accumulate_grad(&r);
            }
        }
    }
}

/// Helper releasing the value borrow before accumulating (borrow rules).
fn drop_and_acc(t: &Tensor, values: std::cell::Ref<'_, Vec<f32>>, g: Vec<f32>) {
    drop(values);
    t.accumulate_grad(&g);
}

fn try_binary(op: BinOp, a: &Tensor, b: &Tensor) -> DarResult<Tensor> {
    let (values, out_shape) = forward(op, a, b)?;
    let shape_for_bw = out_shape.clone();
    Ok(Tensor::from_op(
        op_name(op),
        values,
        out_shape,
        vec![a.clone(), b.clone()],
        Box::new(move |g, _, parents| {
            binary_backward(op, g, &shape_for_bw, &parents[0], &parents[1]);
        }),
    ))
}

fn binary(op: BinOp, a: &Tensor, b: &Tensor) -> Tensor {
    try_binary(op, a, b).unwrap_or_else(|e| panic!("{e}"))
}

impl Tensor {
    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        binary(BinOp::Add, self, other)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        binary(BinOp::Sub, self, other)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        binary(BinOp::Mul, self, other)
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        binary(BinOp::Div, self, other)
    }

    /// Checked [`add`](Self::add): broadcast failure is a typed error.
    pub fn try_add(&self, other: &Tensor) -> DarResult<Tensor> {
        try_binary(BinOp::Add, self, other)
    }

    /// Checked [`sub`](Self::sub): broadcast failure is a typed error.
    pub fn try_sub(&self, other: &Tensor) -> DarResult<Tensor> {
        try_binary(BinOp::Sub, self, other)
    }

    /// Checked [`mul`](Self::mul): broadcast failure is a typed error.
    pub fn try_mul(&self, other: &Tensor) -> DarResult<Tensor> {
        try_binary(BinOp::Mul, self, other)
    }

    /// Checked [`div`](Self::div): broadcast failure is a typed error.
    pub fn try_div(&self, other: &Tensor) -> DarResult<Tensor> {
        try_binary(BinOp::Div, self, other)
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let values: Vec<f32> = self.values().iter().map(|&x| x + c).collect();
        Tensor::from_op(
            "add_scalar",
            values,
            self.shape().to_vec(),
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                if parents[0].requires_grad() {
                    parents[0].accumulate_grad(g);
                }
            }),
        )
    }

    /// Multiply by a scalar constant.
    pub fn scale(&self, c: f32) -> Tensor {
        let values: Vec<f32> = self.values().iter().map(|&x| x * c).collect();
        Tensor::from_op(
            "scale",
            values,
            self.shape().to_vec(),
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                if parents[0].requires_grad() {
                    let gg: Vec<f32> = g.iter().map(|&x| x * c).collect();
                    parents[0].accumulate_grad(&gg);
                }
            }),
        )
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    #[test]
    fn add_same_shape_forward_backward() {
        let a = Tensor::param(vec![1.0, 2.0], &[2]);
        let b = Tensor::param(vec![10.0, 20.0], &[2]);
        let y = a.add(&b);
        assert_eq!(y.to_vec(), vec![11.0, 22.0]);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn mul_grad_routes_operand_values() {
        let a = Tensor::param(vec![3.0], &[1]);
        let b = Tensor::param(vec![4.0], &[1]);
        let y = a.mul(&b);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![4.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![3.0]);
    }

    #[test]
    fn div_forward_and_grad() {
        let a = Tensor::param(vec![6.0], &[1]);
        let b = Tensor::param(vec![2.0], &[1]);
        let y = a.div(&b);
        assert_eq!(y.item(), 3.0);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![0.5]);
        assert_eq!(b.grad_vec().unwrap(), vec![-1.5]);
    }

    #[test]
    fn row_broadcast_add() {
        // [2,3] + [1,3] — the bias-add fast path.
        let a = Tensor::param(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::param(vec![10., 20., 30.], &[1, 3]);
        let y = a.add(&b);
        assert_eq!(y.to_vec(), vec![11., 22., 33., 14., 25., 36.]);
        y.backward();
        assert_eq!(b.grad_vec().unwrap(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn row_broadcast_bare_vector() {
        // [2,3] + [3] (no leading 1).
        let a = Tensor::param(vec![0.0; 6], &[2, 3]);
        let b = Tensor::param(vec![1., 2., 3.], &[3]);
        let y = a.add(&b);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 1., 2., 3.]);
        y.backward();
        assert_eq!(b.grad_vec().unwrap(), vec![2., 2., 2.]);
    }

    #[test]
    fn trailing_one_broadcast_mul() {
        // [2,2,2] * [2,2,1] — the rationale-mask fast path.
        let a = Tensor::param(vec![1., 2., 3., 4., 5., 6., 7., 8.], &[2, 2, 2]);
        let m = Tensor::param(vec![1., 0., 0., 1.], &[2, 2, 1]);
        let y = a.mul(&m);
        assert_eq!(y.to_vec(), vec![1., 2., 0., 0., 0., 0., 7., 8.]);
        y.backward();
        // dY/dm sums over the embedding dim.
        assert_eq!(m.grad_vec().unwrap(), vec![3.0, 7.0, 11.0, 15.0]);
    }

    #[test]
    fn trailing_one_div() {
        // [2,2] / [2,1] — the mean-pool normalization pattern.
        let a = Tensor::param(vec![2., 4., 9., 12.], &[2, 2]);
        let b = Tensor::param(vec![2., 3.], &[2, 1]);
        let y = a.div(&b);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4.]);
        y.sum().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0]);
        // db = -a/b^2 summed over the row.
        let gb = b.grad_vec().unwrap();
        assert!((gb[0] - (-6.0 / 4.0)).abs() < 1e-6);
        assert!((gb[1] - (-21.0 / 9.0)).abs() < 1e-6);
    }

    #[test]
    fn scalar_tensor_broadcast() {
        let a = Tensor::param(vec![1., 2., 3.], &[3]);
        let s = Tensor::param(vec![2.0], &[1]);
        let y = a.mul(&s);
        assert_eq!(y.to_vec(), vec![2., 4., 6.]);
        y.backward();
        assert_eq!(s.grad_vec().unwrap(), vec![6.0]);
    }

    #[test]
    fn general_broadcast_small_a() {
        // a is the broadcast side: [1,3] * [2,3] exercises the general
        // fallback with grad reduction on a.
        let a = Tensor::param(vec![1., 2., 3.], &[1, 3]);
        let b = Tensor::param(vec![4., 5., 6., 7., 8., 9.], &[2, 3]);
        let y = a.mul(&b);
        assert_eq!(y.to_vec(), vec![4., 10., 18., 7., 16., 27.]);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![11., 13., 15.]);
        assert_eq!(b.grad_vec().unwrap(), vec![1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn middle_one_broadcast_general() {
        // [2,2,2] * [2,1,2] is neither fast pattern: general path.
        let a = Tensor::param(vec![1.; 8], &[2, 2, 2]);
        let b = Tensor::param(vec![1., 2., 3., 4.], &[2, 1, 2]);
        let y = a.mul(&b);
        assert_eq!(y.to_vec(), vec![1., 2., 1., 2., 3., 4., 3., 4.]);
        y.backward();
        assert_eq!(b.grad_vec().unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = Tensor::param(vec![1.0, -2.0], &[2]);
        let y = a.scale(3.0).add_scalar(1.0);
        assert_eq!(y.to_vec(), vec![4.0, -5.0]);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_shapes_panic() {
        let a = Tensor::new(vec![1.0, 2.0], &[2]);
        let b = Tensor::new(vec![1.0, 2.0, 3.0], &[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn try_ops_return_typed_errors_instead_of_panicking() {
        let a = Tensor::new(vec![1.0, 2.0], &[2]);
        let b = Tensor::new(vec![1.0, 2.0, 3.0], &[3]);
        for r in [a.try_add(&b), a.try_sub(&b), a.try_mul(&b), a.try_div(&b)] {
            match r {
                Err(crate::DarError::InvalidData(msg)) => {
                    assert!(msg.contains("cannot broadcast"), "{msg}");
                }
                other => panic!("expected InvalidData, got {other:?}"),
            }
        }
        assert_eq!(a.try_add(&a).unwrap().to_vec(), vec![2.0, 4.0]);
    }
}
