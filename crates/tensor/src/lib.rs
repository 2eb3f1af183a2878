//! # rtp-tensor
//!
//! A small, self-contained, tape-based reverse-mode automatic
//! differentiation engine for CPU `f32` tensors.
//!
//! This crate is the deep-learning substrate of the M²G4RTP reproduction:
//! the paper trains its models with PyTorch on GPUs, which is unavailable
//! here, so every neural model in the workspace (M²G4RTP itself plus the
//! DeepRoute / FDNET / Graph2Route baselines) is built on this engine
//! instead.
//!
//! ## Design
//!
//! * **Tape as an arena.** A [`Tape`] owns a flat `Vec` of nodes; tensors
//!   are [`TensorId`] indices into it. Forward passes append nodes,
//!   [`Tape::backward`] walks the arena in reverse. No `Rc<RefCell<…>>`,
//!   no graph pointers — dropping a tape frees the whole forward pass at
//!   once, which matters because the models build one tape per sample
//!   (graphs are dynamic: every query has a different number of nodes).
//! * **Parameters live outside tapes** in a [`ParamStore`]. A forward pass
//!   leases a parameter onto the tape with [`Tape::param`]; `backward`
//!   accumulates the gradient back into the store, and an optimizer
//!   ([`optim::Adam`] / [`optim::Sgd`]) steps the store. This gives mini-batch gradient
//!   accumulation across independent per-sample tapes for free.
//! * **2-D everywhere.** Tensors are `[rows, cols]` row-major. The paper's
//!   3-D edge tensors `E ∈ R^{n×n×d}` are stored as `[n*n, d]`, with
//!   dedicated broadcast ops ([`Tape::add_outer`], [`Tape::repeat_rows`],
//!   [`Tape::repeat_interleave_rows`]) so that attention logits and edge
//!   updates stay vectorised — tape length is O(layers), not O(n²).
//!
//! ## Quick example
//!
//! ```
//! use rtp_tensor::{ParamStore, Tape, optim::Adam, optim::Optimizer};
//!
//! let mut store = ParamStore::new(7);
//! let w = store.add_param("w", 1, 1, vec![0.0]);
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let wv = tape.param(&store, w);
//!     let target = tape.constant(1, 1, vec![3.0]);
//!     let diff = tape.sub(wv, target);
//!     let loss = tape.mul(diff, diff);
//!     store.zero_grad();
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.data(w)[0] - 3.0).abs() < 1e-3);
//! ```

mod params;
mod tape;

pub mod kernels;
pub mod nn;
pub mod optim;
pub mod parallel;
pub mod simd;

pub use params::{GradBuffer, GradSink, ParamId, ParamStore};
pub use tape::{Numerics, Tape, TensorId};

/// Numerically compares two f32 slices within a tolerance; used widely by
/// this workspace's tests.
pub fn approx_eq_slice(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// Finite-difference gradient check utility.
///
/// `f` must rebuild the forward pass from scratch against the given store
/// and return the scalar loss value. Returns the maximum absolute
/// difference between the analytic gradient already present in the store
/// and a central finite difference, over every coordinate of `pid`.
///
/// Only intended for tests: it is O(param size) forward passes.
#[allow(clippy::needless_range_loop)] // perturbs store in place; iterator borrow rules forbid it
pub fn grad_check<F>(
    store: &mut ParamStore,
    pid: ParamId,
    analytic: &[f32],
    eps: f32,
    mut f: F,
) -> f32
where
    F: FnMut(&ParamStore) -> f32,
{
    let n = store.data(pid).len();
    assert_eq!(analytic.len(), n, "analytic gradient length mismatch");
    let mut worst = 0.0f32;
    for i in 0..n {
        let orig = store.data(pid)[i];
        store.data_mut(pid)[i] = orig + eps;
        let up = f(store);
        store.data_mut(pid)[i] = orig - eps;
        let down = f(store);
        store.data_mut(pid)[i] = orig;
        let numeric = (up - down) / (2.0 * eps);
        let d = (numeric - analytic[i]).abs();
        if d > worst {
            worst = d;
        }
    }
    worst
}
