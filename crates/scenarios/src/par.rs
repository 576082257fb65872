//! Deterministic parallel execution of independent run grids.
//!
//! Every experiment in this crate is a grid of fully independent
//! simulations — (scenario × policy × rep) cells whose seeds are derived
//! per cell up front. This module fans such a grid across a fixed number
//! of worker threads while keeping the *collected* results in exact grid
//! order, so any output folded from them (CSV, report text, summaries) is
//! byte-identical to a serial run. Parallelism is an engine knob
//! ([`crate::config::RunConfig::jobs`]); it must never be able to change a
//! result, only the wall-clock.
//!
//! The scheme is a work-stealing-free classic: an atomic cursor hands out
//! grid indices, each worker writes its result into the slot for that
//! index, and the caller drains the slots in index order. Dynamic
//! index-claiming (rather than pre-chunking) keeps all workers busy even
//! when cell runtimes are skewed, which they are — a `no-tmem` rep can
//! take several times longer than a `greedy` rep of the same scenario.
//!
//! Inside one cell, a multi-host run advances its hosts in parallel too
//! ([`crate::runner::run_cluster`]): one scoped worker per host, capped
//! at [`default_jobs`]. Those workers do not read `jobs`, so a grid
//! pinned to one job still runs a cluster cell's hosts side by side.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to default to: the cores the OS reports, or 1
/// when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item of `grid`, using up to `jobs` worker threads,
/// and return the results **in grid order** regardless of completion
/// order.
///
/// `f` receives the item's grid index alongside the item. With `jobs == 1`
/// (or a grid of ≤ 1 item) no threads are spawned and the calls happen
/// inline, in order — the serial baseline the determinism tests compare
/// against. A panic inside `f` propagates to the caller once all workers
/// have stopped.
///
/// # Panics
///
/// Panics if `jobs == 0`; callers validate user input first (the CLI
/// rejects `--jobs 0` with its own message).
pub fn run_indexed<T, R, F>(grid: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    assert!(jobs > 0, "jobs must be >= 1");
    let n = grid.len();
    if jobs == 1 || n <= 1 {
        return grid.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let inputs: Vec<Mutex<Option<T>>> = grid.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("no other thread panicked holding this input")
                    .take()
                    .expect("each grid index is claimed exactly once");
                let result = f(i, item);
                *outputs[i]
                    .lock()
                    .expect("no other thread touches this output") = Some(result);
            });
        }
    });

    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers are joined")
                .expect("every slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_grid_order_at_any_job_count() {
        let grid: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = grid.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = run_indexed(grid.clone(), jobs, |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn passes_matching_indices() {
        let got = run_indexed(vec!['a', 'b', 'c'], 2, |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let got: Vec<u32> = run_indexed(Vec::<u32>::new(), 4, |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "jobs must be >= 1")]
    fn zero_jobs_panics() {
        run_indexed(vec![1], 0, |_, x: i32| x);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
