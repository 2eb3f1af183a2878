//! Deterministic fan-out for data-parallel training.
//!
//! [`parallel_map_ordered`] runs an indexed job list on a fixed number
//! of scoped OS threads and returns the results **in index order**,
//! regardless of which worker computed which index or in what order
//! they finished. Combined with per-sample [`crate::GradBuffer`]s and
//! an index-ordered [`crate::ParamStore::accumulate`] reduction, this
//! makes training results bit-identical for any thread count.
//!
//! Workers carry no state from one job to the next: a trainer's job
//! builds its own [`crate::Tape`] and drops it on return, so which
//! worker ran which index cannot show in the results.
//!
//! Work is distributed by an atomic next-index counter (work stealing
//! in the limit of one-item granularity), so unevenly sized samples —
//! routes vary in length — still balance across workers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a user-facing thread-count setting: `0` means "all
/// available cores", anything else is used as given.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Computes `f(0..n)` on up to `threads` worker threads (`0` = all
/// cores) and returns the outputs ordered by index. With one worker the
/// jobs run sequentially on the caller's thread.
///
/// `f` runs concurrently and must be `Sync`; a panic in any worker
/// propagates after the remaining workers drain.
pub fn parallel_map_ordered<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
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
