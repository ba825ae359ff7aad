//! Deterministic work-stealing parallel map.
//!
//! The Monte-Carlo layer above the simulator fans one closure out over an
//! index range (`f(i)` for `i in 0..n`) and needs three properties at once:
//!
//! * **index-order determinism** — the output vector is `[f(0), …, f(n-1)]`
//!   no matter which worker computed which index, so callers can derive RNG
//!   seeds from the index alone;
//! * **thread-count independence** — the result is byte-identical for any
//!   worker count, including 1, so `--threads` is a pure throughput knob;
//! * **load balance under heavy-tailed task costs** — per-run wall time in
//!   the paper's overload regime varies with the instance draw (deep
//!   overloads run long event loops), which starves a static chunk split.
//!
//! [`parallel_map`] hands out small index blocks from a shared atomic
//! counter: a worker that draws cheap runs comes back for more instead of
//! idling, and the block size caps counter traffic at a few hundred
//! `fetch_add`s per sweep. [`parallel_map_with`] additionally threads a
//! per-worker scratch state (e.g. a reusable simulation workspace) through
//! every call the worker makes — the state must be a pure *arena*: outputs
//! may only depend on the index, never on which indices the worker saw
//! before, or thread-count independence is lost.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the stolen block size: small enough to balance
/// heavy-tailed sweeps, large enough that the shared counter is touched
/// O(n/32) times.
const MAX_BLOCK: usize = 32;

/// Default worker count: all cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs `f(i)` for `i in 0..n` across up to `threads` workers and returns
/// the results in index order.
///
/// Work is distributed by block stealing (see the module docs), so the
/// assignment of indices to workers is nondeterministic — but the output
/// is not: slot `i` always holds `f(i)`. Degenerate arguments are safe:
/// `n == 0` returns an empty vector without spawning, `threads` is clamped
/// to `1..=n` so no idle workers are spawned, and `threads == 0` is treated
/// as 1.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, threads, || (), |(), i| f(i))
}

/// [`parallel_map`] with a per-worker scratch state: every worker calls
/// `init()` once and then `f(&mut state, i)` for each index it steals.
///
/// The state is a reuse arena (buffers, workspaces, caches) — `f`'s output
/// must depend only on `i`, or the result ceases to be thread-count
/// independent.
// This is the one sanctioned thread fan-out (L008): output is index-ordered,
// so it does not depend on the thread count.
#[allow(clippy::disallowed_methods)]
pub fn parallel_map_with<W, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    // The requested count is honored even past the detected core count:
    // callers like the fleet bench measure serial-vs-threaded wall time and
    // need `--threads N` to actually spawn N workers, and the determinism
    // suites need real cross-thread interleaving at every requested count.
    // Capping here silently turned both into serial runs on small machines.
    // Oversubscription costs only idle workers (output is index-ordered and
    // thread-count invariant either way); `default_threads()` remains the
    // sizing hint for callers that want one worker per core.
    let workers = threads.max(1).min(n);
    if workers == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    // Aim for ~8 blocks per worker so late-arriving stragglers still find
    // work to steal, capped so the counter stays cold. Round up: truncating
    // degenerated to block = 1 whenever n < workers * 8 (exactly the small
    // sweep fan-outs we run), maximizing counter traffic.
    let block = n.div_ceil(workers * 8).clamp(1, MAX_BLOCK);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let init = &init;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut state = init();
                let mut produced: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + block).min(n) {
                        produced.push((i, f(&mut state, i)));
                    }
                }
                produced
            }));
        }
        for handle in handles {
            let produced = handle
                .join()
                .expect("invariant: a panicking worker re-raises its panic here");
            for (i, value) in produced {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("invariant: the counter hands every index 0..n to exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_index_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_range_spawns_nothing_and_returns_empty() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map(0, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // Zero workers on an empty range must not panic either.
        assert!(parallel_map(0, 0, |i| i).is_empty());
    }

    #[test]
    fn more_threads_than_tasks_is_exact_with_no_idle_workers() {
        // threads is clamped to n, so a 1-task sweep with 16 requested
        // workers computes exactly one result, once.
        let calls = AtomicUsize::new(0);
        let out = parallel_map(1, 16, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i + 1
        });
        assert_eq!(out, vec![1]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // n slightly above threads exercises the stealing loop.
        let out = parallel_map(5, 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn zero_threads_is_treated_as_one() {
        assert_eq!(parallel_map(3, 0, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let reference = parallel_map(257, 1, |i| (i as u64).wrapping_mul(0x9E37) % 8191);
        for threads in [2, 3, 8, 64] {
            let out = parallel_map(257, threads, |i| (i as u64).wrapping_mul(0x9E37) % 8191);
            assert_eq!(out, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn worker_state_is_initialized_per_worker_and_threaded_through() {
        // Each worker counts its own calls; the sum over workers must be n
        // and every index must be computed exactly once.
        let out = parallel_map_with(
            97,
            4,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(out.len(), 97);
        for (slot, (i, seen)) in out.iter().enumerate() {
            assert_eq!(*i, slot);
            assert!(*seen >= 1, "worker-local call counter starts at 1");
        }
    }

    #[test]
    fn uneven_tail_blocks_cover_the_whole_range() {
        // n chosen to not divide evenly by any plausible block size.
        for n in [1usize, 2, 31, 33, 63, 101] {
            let out = parallel_map(n, 7, |i| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }
}
