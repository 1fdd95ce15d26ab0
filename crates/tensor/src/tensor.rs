//! The core [`Tensor`] type: a reference-counted autograd graph node.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

use crate::error::{DarError, DarResult};
use crate::shape::{check_numel, numel};
use crate::taint;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
    static NO_GRAD: Cell<bool> = const { Cell::new(false) };
}

fn next_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// Run `f` with gradient recording disabled: any op performed inside
/// produces leaf tensors with no graph history. Mirrors `torch.no_grad()`.
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    let prev = NO_GRAD.with(|c| c.replace(true));
    let out = f();
    NO_GRAD.with(|c| c.set(prev));
    out
}

/// Run `f` with gradient recording re-enabled (escape hatch inside
/// [`no_grad`] scopes; rarely needed).
pub fn with_no_grad_disabled<T>(f: impl FnOnce() -> T) -> T {
    let prev = NO_GRAD.with(|c| c.replace(false));
    let out = f();
    NO_GRAD.with(|c| c.set(prev));
    out
}

pub(crate) fn grad_enabled() -> bool {
    NO_GRAD.with(|c| !c.get())
}

/// Whether an op over `parents` records graph history: gradient recording
/// is on and some parent requires gradients. [`Tensor::from_op`] prunes
/// every other node, so an op may skip any state only its backward reads.
pub(crate) fn tracked(parents: &[Tensor]) -> bool {
    grad_enabled() && parents.iter().any(|p| p.inner.requires_grad.get())
}

/// Backward closure: receives the gradient of the output, the output's
/// own values (which the node owns, so an op keeps no copy of them) and
/// the parent tensors, and accumulates gradients into the parents.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[f32], &[Tensor])>;

pub(crate) struct Inner {
    pub(crate) id: u64,
    /// Name of the op that produced this node (`"leaf"`/`"param"` for
    /// leaves) — the taint layer's provenance label.
    pub(crate) op: &'static str,
    pub(crate) shape: Vec<usize>,
    pub(crate) values: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    pub(crate) requires_grad: Cell<bool>,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

/// A dense `f32` tensor participating in a dynamic autograd graph.
///
/// Cloning a `Tensor` is cheap (reference count bump) and clones share both
/// values and gradient storage. Ops build new nodes; calling
/// [`Tensor::backward`] on a scalar walks the graph in reverse topological
/// order and fills the `grad` buffers of every tensor created with
/// [`Tensor::param`] (and intermediates on the path).
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.inner.values.borrow();
        let preview: Vec<f32> = v.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, requires_grad={}, values[..8]={:?})",
            self.inner.shape,
            self.inner.requires_grad.get(),
            preview
        )
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A leaf tensor that does not require gradients (inputs, constants).
    pub fn new(values: Vec<f32>, shape: &[usize]) -> Self {
        check_numel(values.len(), shape);
        let id = next_id();
        taint::scan("leaf", id, shape, &values);
        Tensor {
            inner: Rc::new(Inner {
                id,
                op: "leaf",
                shape: shape.to_vec(),
                values: RefCell::new(values),
                grad: RefCell::new(None),
                requires_grad: Cell::new(false),
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// A trainable leaf tensor: gradients accumulate here during backward.
    pub fn param(values: Vec<f32>, shape: &[usize]) -> Self {
        check_numel(values.len(), shape);
        let id = next_id();
        taint::scan("param", id, shape, &values);
        Tensor {
            inner: Rc::new(Inner {
                id,
                op: "param",
                shape: shape.to_vec(),
                values: RefCell::new(values),
                grad: RefCell::new(None),
                requires_grad: Cell::new(true),
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Internal constructor for op results. If gradient recording is off or
    /// no parent requires gradients, the history is pruned. `op` is the
    /// node's provenance label; when taint mode is on the output is scanned
    /// and the first non-finite value on the thread is attributed to it.
    pub(crate) fn from_op(
        op: &'static str,
        values: Vec<f32>,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Self {
        check_numel(values.len(), &shape);
        let id = next_id();
        taint::scan(op, id, &shape, &values);
        let track = tracked(&parents);
        Tensor {
            inner: Rc::new(Inner {
                id,
                op,
                shape,
                values: RefCell::new(values),
                grad: RefCell::new(None),
                requires_grad: Cell::new(track),
                parents: if track { parents } else { Vec::new() },
                backward: if track { Some(backward) } else { None },
            }),
        }
    }

    /// All-zero leaf tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::new(vec![0.0; numel(shape)], shape)
    }

    /// All-one leaf tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::new(vec![1.0; numel(shape)], shape)
    }

    /// Leaf tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor::new(vec![value; numel(shape)], shape)
    }

    /// A scalar (shape `[1]`) leaf tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::new(vec![value], &[1])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Unique node id (useful for parameter registries).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Name of the op that produced this node (`"leaf"`/`"param"` for
    /// leaves) — the taint layer's provenance label.
    pub fn op(&self) -> &'static str {
        self.inner.op
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.inner.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        numel(&self.inner.shape)
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether gradients flow into (or through) this tensor.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad.get()
    }

    /// Borrow the value buffer.
    pub fn values(&self) -> Ref<'_, Vec<f32>> {
        self.inner.values.borrow()
    }

    /// Copy the values out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.values.borrow().clone()
    }

    /// The single value of a scalar tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let v = self.inner.values.borrow();
        assert_eq!(
            v.len(),
            1,
            "item() called on non-scalar tensor {:?}",
            self.inner.shape
        );
        v[0]
    }

    /// Checked [`item`](Self::item): a non-scalar tensor is a typed error,
    /// and a non-finite scalar reports its taint provenance (when latched)
    /// instead of silently returning NaN.
    pub fn try_item(&self) -> DarResult<f32> {
        let v = self.inner.values.borrow();
        if v.len() != 1 {
            return Err(DarError::InvalidData(format!(
                "item() called on non-scalar tensor {:?}",
                self.inner.shape
            )));
        }
        let x = v[0];
        if !x.is_finite() {
            return Err(taint::non_finite_error(self.inner.op));
        }
        Ok(x)
    }

    /// Copy of the accumulated gradient, if any.
    pub fn grad_vec(&self) -> Option<Vec<f32>> {
        self.inner.grad.borrow().clone()
    }

    /// Overwrite the value buffer in place (used by optimizers).
    ///
    /// # Panics
    /// Panics if the length changes.
    pub fn set_values(&self, values: Vec<f32>) {
        let mut v = self.inner.values.borrow_mut();
        assert_eq!(v.len(), values.len(), "set_values must preserve length");
        *v = values;
    }

    /// Mutate values in place through a closure (used by optimizers).
    pub fn update_values(&self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.inner.values.borrow_mut());
    }

    /// Stop gradients from accumulating here: the tensor becomes a frozen
    /// leaf. Ops consuming it skip its weight-gradient computation entirely
    /// while gradients still flow *through* ops toward other inputs —
    /// exactly what DAR's fixed `predictor^t` needs.
    pub fn freeze(&self) {
        self.inner.requires_grad.set(false);
        *self.inner.grad.borrow_mut() = None;
    }

    /// Re-enable gradient accumulation on a leaf (inverse of [`freeze`]).
    ///
    /// # Panics
    /// Panics when called on a non-leaf (op result), whose history was
    /// already pruned.
    ///
    /// [`freeze`]: Tensor::freeze
    pub fn unfreeze(&self) {
        assert!(
            self.inner.backward.is_none(),
            "unfreeze only applies to leaf tensors"
        );
        self.inner.requires_grad.set(true);
    }

    /// Drop any accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Accumulate `g` into this tensor's gradient buffer.
    ///
    /// Mostly internal (backward closures call it), but public so tests and
    /// custom training code can seed gradients directly.
    pub fn accumulate_grad(&self, g: &[f32]) {
        debug_assert_eq!(g.len(), self.len(), "gradient length mismatch");
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                for (b, x) in buf.iter_mut().zip(g) {
                    *b += *x;
                }
            }
            None => *slot = Some(g.to_vec()),
        }
    }

    // ------------------------------------------------------------------
    // Autograd driver
    // ------------------------------------------------------------------

    /// Reverse-mode differentiation from this tensor.
    ///
    /// The receiver is typically a scalar loss; the seed gradient is 1 for
    /// every element (so for non-scalars this computes the gradient of the
    /// elementwise sum).
    pub fn backward(&self) {
        let order = self.topo_order();
        self.accumulate_grad(&vec![1.0; self.len()]);
        for node in order.iter().rev() {
            let Some(bw) = &node.inner.backward else {
                continue;
            };
            // A node with a backward is an op result, whose gradient is
            // not needed once propagated: taking it keeps step memory
            // proportional to parameters. A node reachable without a
            // gradient (e.g. a detached branch) has nothing to propagate.
            let Some(grad) = node.inner.grad.borrow_mut().take() else {
                continue;
            };
            bw(&grad, &node.inner.values.borrow(), &node.inner.parents);
        }
    }

    /// Iterative DFS topological order (parents before children).
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Stack of (node, next-parent-index) frames to avoid recursion on
        // deep graphs (e.g. long GRU unrolls).
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.inner.id);
        while let Some((node, pi)) = stack.pop() {
            if pi < node.inner.parents.len() {
                let parent = node.inner.parents[pi].clone();
                stack.push((node, pi + 1));
                if parent.inner.requires_grad.get() && visited.insert(parent.inner.id) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }
        order
    }

    /// A gradient-isolated copy: same values, fresh leaf, no history.
    pub fn detach(&self) -> Tensor {
        Tensor::new(self.to_vec(), &self.inner.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_construction_and_access() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.len(), 4);
        assert!(!t.requires_grad());
        assert_eq!(t.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn shape_mismatch_panics() {
        let _ = Tensor::new(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn param_requires_grad() {
        let p = Tensor::param(vec![0.5], &[1]);
        assert!(p.requires_grad());
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(7.5).item(), 7.5);
    }

    #[test]
    fn grad_accumulates_across_calls() {
        let p = Tensor::param(vec![1.0, 2.0], &[2]);
        p.accumulate_grad(&[1.0, 1.0]);
        p.accumulate_grad(&[0.5, 0.25]);
        assert_eq!(p.grad_vec().unwrap(), vec![1.5, 1.25]);
        p.zero_grad();
        assert!(p.grad_vec().is_none());
    }

    #[test]
    fn backward_on_leaf_sets_ones() {
        let p = Tensor::param(vec![3.0, 4.0], &[2]);
        p.backward();
        assert_eq!(p.grad_vec().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn no_grad_prunes_history() {
        let p = Tensor::param(vec![1.0], &[1]);
        let y = no_grad(|| p.mul(&p));
        assert!(!y.requires_grad());
        y.backward();
        assert!(p.grad_vec().is_none());
    }

    #[test]
    fn detach_blocks_gradient() {
        let p = Tensor::param(vec![2.0], &[1]);
        let d = p.detach();
        let y = d.mul(&d);
        y.backward();
        assert!(p.grad_vec().is_none());
        assert_eq!(y.item(), 4.0);
    }

    #[test]
    fn clone_shares_storage() {
        let p = Tensor::param(vec![1.0], &[1]);
        let q = p.clone();
        p.update_values(|v| v[0] = 9.0);
        assert_eq!(q.item(), 9.0);
        assert_eq!(p.id(), q.id());
    }
}
