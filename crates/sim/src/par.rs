//! Host-side parallel execution of independent simulation work.
//!
//! The simulator replays thousands of *independent* per-DPU traces; nothing
//! about the simulated machine couples them, so the host is free to fan the
//! replay out over OS threads. This module is the only threading primitive in
//! the workspace: a scoped fork/join pool built purely on
//! [`std::thread::scope`] (no external crates, per the offline-build policy).
//!
//! Threads are spawned per call and joined before the call returns — scoped
//! lifetimes make borrowing inputs by reference safe, and for simulation
//! workloads (micro- to milliseconds per DPU, thousands of DPUs) the spawn
//! cost is noise. Work is distributed dynamically: workers claim fixed-size
//! index chunks from a shared atomic counter, which load-balances the skewed
//! per-DPU costs that graph partitions produce.
//!
//! Determinism contract: [`par_map_indexed`] returns results **in input
//! order**, so any order-sensitive reduction (floating-point sums, `max`
//! tie-breaking) done by the caller over the returned `Vec` is bit-identical
//! for every thread count, including 1. Worker panics are re-raised on the
//! calling thread after all workers have been joined.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Global thread-count configuration for the simulation pool.
///
/// Resolution order: an explicit [`SimThreads::set`] call wins; otherwise the
/// `ALPHA_PIM_THREADS` environment variable (a positive integer); otherwise
/// [`std::thread::available_parallelism`]. A value of `1` forces fully
/// sequential execution (no worker threads are spawned at all).
pub struct SimThreads;

/// 0 = not yet resolved; any other value is the effective thread count.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(0);

impl SimThreads {
    /// The effective thread count, resolving and caching it on first use.
    pub fn get() -> usize {
        let cached = SIM_THREADS.load(Ordering::Relaxed);
        if cached != 0 {
            return cached;
        }
        let resolved = std::env::var("ALPHA_PIM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            });
        // First writer wins, so racing initializers agree on the answer.
        match SIM_THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => resolved,
            Err(previous) => previous,
        }
    }

    /// Overrides the thread count for the rest of the process (used by
    /// benchmarks to compare 1 vs N threads within one run). Clamped to at
    /// least 1.
    pub fn set(threads: usize) {
        SIM_THREADS.store(threads.max(1), Ordering::Relaxed);
    }
}

/// Convenience alias for [`SimThreads::get`].
pub fn sim_threads() -> usize {
    SimThreads::get()
}

/// Convenience alias for [`SimThreads::set`].
pub fn set_sim_threads(threads: usize) {
    SimThreads::set(threads)
}

/// Maps `f` over `items` on the simulation pool, returning results in input
/// order.
///
/// `f` receives `(index, &item)` and must be safe to call concurrently for
/// distinct indices. With one thread (or one item) this degenerates to a
/// plain sequential loop on the calling thread. If any worker panics, the
/// panic is propagated here after all workers finish.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_with(items, || (), |_, i, t| f(i, t))
}

/// [`par_map_indexed`] with per-worker scratch: each worker builds one `W`
/// with `init` and lends it to every `f(&mut scratch, index, &item)` call
/// it makes, so buffers an item needs are allocated once per worker
/// instead of once per item.
///
/// Which items share a scratch depends on the thread count and on how
/// workers race for chunks, so `f`'s result must not depend on what an
/// earlier item left in the scratch — leave it as the next item expects to
/// find it. Results come back in input order, as from [`par_map_indexed`].
pub fn par_map_indexed_with<T, W, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &T) -> R + Sync,
{
    let threads = sim_threads().min(items.len());
    if threads <= 1 {
        let mut scratch = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut scratch, i, t)).collect();
    }
    // ~4 chunks per worker: small enough to balance skew, large enough to
    // keep counter contention negligible.
    let chunk = (items.len() / (threads * 4)).max(1);
    let next = AtomicUsize::new(0);
    let (f, init) = (&f, &init);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut produced = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            produced.push((i, f(&mut scratch, i, item)));
                        }
                    }
                    produced
                })
            })
            .collect();
        let mut panic_payload = None;
        for worker in workers {
            match worker.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// Runs `f` over mutable work items on the simulation pool, summing the
/// per-item `u64` results (edge counts, bytes, ...).
///
/// Items are partitioned statically into contiguous runs, one per worker —
/// appropriate when items are themselves coarse (e.g. per-thread column
/// ranges of a baseline engine). Panics propagate like [`par_map_indexed`].
pub fn par_fold_mut<T, F>(items: &mut [T], f: F) -> u64
where
    T: Send,
    F: Fn(&mut T) -> u64 + Sync,
{
    let threads = sim_threads().min(items.len());
    if threads <= 1 {
        return items.iter_mut().map(&f).sum();
    }
    let run = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks_mut(run)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().map(f).sum::<u64>()))
            .collect();
        let mut total = 0u64;
        let mut panic_payload = None;
        for worker in workers {
            match worker.join() {
                Ok(sum) => total += sum,
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_indexed(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_degenerate_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_with_reuses_one_scratch_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let init = || {
            inits.fetch_add(1, Ordering::Relaxed);
        };
        let out = par_map_indexed_with(&items, init, |_, i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
        let workers = inits.load(Ordering::Relaxed);
        assert!((1..=sim_threads()).contains(&workers), "{workers} scratches");
    }

    #[test]
    fn fold_mut_sums_and_mutates() {
        let mut items: Vec<u64> = (0..257).collect();
        let total = par_fold_mut(&mut items, |x| {
            *x += 1;
            *x
        });
        assert_eq!(total, (1..=257).sum::<u64>());
        assert_eq!(items[0], 1);
        assert_eq!(items[256], 257);
    }
}
