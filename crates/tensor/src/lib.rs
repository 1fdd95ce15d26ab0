//! `dar-tensor`: a small dense-tensor library with reverse-mode automatic
//! differentiation, written as the numerical substrate for the DAR
//! rationalization reproduction.
//!
//! The design mirrors the dynamic-graph style of PyTorch at a much smaller
//! scale: every [`Tensor`] is a reference-counted node holding `f32` values,
//! an optional gradient buffer, and (for op results) a backward closure that
//! scatters the output gradient into its parents. Graphs are built per
//! training step and freed when the loss tensor is dropped.
//!
//! # Quick tour
//!
//! ```
//! use dar_tensor::Tensor;
//!
//! let w = Tensor::param(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let x = Tensor::new(vec![1.0, -1.0], &[1, 2]);
//! let y = x.matmul(&w).relu().sum();
//! y.backward();
//! assert_eq!(w.grad_vec().unwrap().len(), 4);
//! ```
//!
//! # Modules
//!
//! * [`shape`] — shape/stride helpers and broadcasting rules.
//! * [`ops`] — the differentiable operator set (arithmetic, matmul,
//!   activations, reductions, softmax, gather, structural ops).
//! * [`init`] — weight initializers.
//! * [`optim`] — Adam / SGD optimizers with gradient clipping.
//! * [`serial`] — the checkpoint format (CRC-checked v2) and its codec.
//! * [`storage`] — the storage substrate and the one atomic write every
//!   durable file in the workspace goes through.
//! * [`grad_check`] — finite-difference gradient checking used throughout
//!   the test suites of downstream crates.
//! * [`taint`] — opt-in NaN/Inf provenance: with `DAR_TAINT=1` the first
//!   non-finite op result on a thread is attributed to its originating op.
//! * [`ops::kernel`] — the compute backends behind the hot inner loops:
//!   the cache-blocked SIMD kernel runs everywhere; the reference loops
//!   are its non-AVX2 fallback and, through [`with_kernel_backend`], the
//!   oracle equivalence tests compare it against.

pub mod error;
pub mod grad_check;
pub mod init;
pub mod ops;
pub mod optim;
pub mod serial;
pub mod shape;
pub mod storage;
pub mod taint;
mod tensor;

pub use error::{DarError, DarResult};
pub use ops::kernel::{
    current_kernel, kernel_backend, kernel_for, with_kernel_backend, Kernel, KernelBackend,
};
pub use taint::{clear_taint, first_taint, set_taint_mode, taint_enabled, TaintRecord};
pub use tensor::{no_grad, with_no_grad_disabled, Tensor};

/// Convenience alias for the RNG used across the workspace.
pub type Rng = rand::rngs::StdRng;

/// Build the workspace-standard seeded RNG.
pub fn rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}
