//! Deterministic data-parallel training.
//!
//! [`minibatch_step`] is the one training step every trainer in the
//! workspace calls, and the one place that knows how a mini-batch's
//! gradient is formed: each sample runs forward/backward on a fresh
//! tape of its own, on a worker thread, into a private gradient buffer,
//! and the buffers are reduced into the store **in sample-index order**.
//! Because that reduction is a fixed sequence of float additions,
//! training results are bit-identical for any thread count.
//!
//! The fan-out under it runs an indexed job list on a fixed number of
//! scoped OS threads and returns the results in index order, regardless
//! of which worker computed which index or in what order they finished.
//! Work is distributed by an atomic next-index counter (work stealing
//! in the limit of one-item granularity), so unevenly sized samples —
//! routes vary in length — still balance across workers. Workers carry
//! no state from one job to the next, so which worker ran which index
//! cannot show in the results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::optim::Optimizer;
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::{Tape, TensorId};

/// Resolves a user-facing thread-count setting: `0` means "all
/// available cores", anything else is used as given.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// One mini-batch optimisation step of `model` over the training
/// samples `batch`, on up to `threads` worker threads (`0` = all cores).
/// In order, it
///
/// 1. zeroes the gradients;
/// 2. runs `loss(model, tape, i)` for each sample index `i` of `batch`
///    on a fresh grad tape, and back-propagates the objective it returns
///    into a gradient buffer of the sample's own;
/// 3. reduces the buffers into the store in `batch` order;
/// 4. zeroes the gradients of the `frozen` parameters;
/// 5. scales the gradient to the batch mean, clips its global norm to
///    `grad_clip` and steps `opt`.
///
/// `loss` returns the objective to differentiate and the loss value to
/// report. The reported values come back in `batch` order, so a caller
/// that sums them adds the same floats in the same order for every
/// thread count. Nothing writes the store while `loss` runs.
///
/// # Panics
/// Panics if `batch` is empty, or if a `loss` call panics (after the
/// other workers drain).
pub fn minibatch_step<M, L>(
    model: &mut M,
    opt: &mut impl Optimizer,
    batch: &[usize],
    threads: usize,
    grad_clip: f32,
    frozen: &[ParamId],
    loss: L,
) -> Vec<f32>
where
    M: AsRef<ParamStore> + AsMut<ParamStore> + Sync,
    L: Fn(&M, &mut Tape, usize) -> (TensorId, f32) + Sync,
{
    assert!(!batch.is_empty(), "a mini-batch needs at least one sample");
    model.as_mut().zero_grad();
    let shared = &*model;
    let shards = parallel_map_ordered(batch.len(), threads, |k| {
        let mut tape = Tape::new();
        let (objective, reported) = loss(shared, &mut tape, batch[k]);
        let mut buffer = GradBuffer::zeros_like(shared.as_ref());
        tape.backward_into(objective, &mut buffer);
        (buffer, reported)
    });
    let store = model.as_mut();
    let mut losses = Vec::with_capacity(shards.len());
    for (buffer, reported) in shards {
        store.accumulate(&buffer);
        losses.push(reported);
    }
    for &id in frozen {
        store.zero_grad_of(id);
    }
    store.scale_grad(1.0 / batch.len() as f32);
    store.clip_grad_norm(grad_clip);
    opt.step(store);
    losses
}

/// Computes `f(0..n)` on up to `threads` worker threads (`0` = all
/// cores) and returns the outputs ordered by index. With one worker the
/// jobs run sequentially on the caller's thread.
///
/// `f` runs concurrently and must be `Sync`; a panic in any worker
/// propagates after the remaining workers drain.
pub(crate) fn parallel_map_ordered<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Receive until every worker has dropped its sender.
        while let Ok((i, r)) = rx.recv() {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|s| s.expect("parallel worker dropped an item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_zero_to_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn results_are_index_ordered_for_any_thread_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map_ordered(257, threads, |i| i * i);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_jobs() {
        assert_eq!(parallel_map_ordered(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_ordered(1, 4, |i| i + 10), vec![10]);
    }

    struct Toy(ParamStore);

    impl AsRef<ParamStore> for Toy {
        fn as_ref(&self) -> &ParamStore {
            &self.0
        }
    }

    impl AsMut<ParamStore> for Toy {
        fn as_mut(&mut self) -> &mut ParamStore {
            &mut self.0
        }
    }

    /// The step's contract at any thread count: the same weights to
    /// the bit, the reported losses in batch order, and frozen
    /// parameters left where they were.
    #[test]
    fn minibatch_step_is_bit_identical_and_holds_frozen_params_still() {
        let run = |threads: usize| {
            let mut toy = Toy(ParamStore::new(3));
            let w = toy.0.add_xavier("w", 3, 2);
            let b = toy.0.add_xavier("b", 1, 2);
            let (w_init, b_init) = (toy.0.data(w).to_vec(), toy.0.data(b).to_vec());
            let mut opt = crate::optim::Adam::new(0.05);
            let batch = [4, 0, 7, 2, 5];
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses =
                    minibatch_step(&mut toy, &mut opt, &batch, threads, 0.5, &[b], |m, t, i| {
                        let x = t.constant(1, 3, vec![i as f32, 1.0, -0.5]);
                        let (wv, bv) = (t.param(&m.0, w), t.param(&m.0, b));
                        let y = t.matmul(x, wv);
                        let y = t.add(y, bv);
                        let y = t.tanh(y);
                        let loss = t.mean_all(y);
                        (loss, i as f32)
                    });
            }
            assert_eq!(losses, batch.map(|i| i as f32), "losses in batch order");
            assert_ne!(toy.0.data(w), w_init, "the step must train `w`");
            assert_eq!(toy.0.data(b), b_init, "a frozen parameter moved");
            toy.0.snapshot()
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            let bits = |w: &[Vec<f32>]| -> Vec<Vec<u32>> {
                w.iter().map(|t| t.iter().map(|x| x.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&one), bits(&run(threads)), "threads={threads}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_ordered(8, 2, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
