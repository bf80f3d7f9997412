//! Data-parallel loop helpers over the fork/join pool.
//!
//! JStar rules contain `for` loops whose bodies are independent because the
//! language has no mutable variables (§1.3 of the paper); the compiler may
//! execute them in parallel. These helpers are the runtime shape of that:
//! chunked parallel iteration, map, and tree reduction.

use crate::pool::ThreadPool;

/// Occupancy-aware chunk size: gives each thread a few chunks to steal
/// when the pool is idle, but when the pool already has a backlog of
/// queued jobs the split is coarsened — extra tasks would only queue
/// behind the backlog, so fine-grained splitting buys no extra
/// parallelism and costs task overhead.
pub fn adaptive_chunk(pool: &ThreadPool, len: usize) -> usize {
    let threads = pool.num_threads();
    let backlog = pool.pending_jobs();
    if backlog >= threads {
        // Saturated pool: one chunk per thread is plenty.
        len.div_ceil(threads.max(1)).max(1)
    } else {
        len.div_ceil((threads * 4).max(1)).max(1)
    }
}

/// Runs `body(i)` for every `i` in `range`, in parallel chunks.
///
/// `chunk` controls granularity; pass 0 to let the pool choose.
pub fn parallel_for<F>(pool: &ThreadPool, range: std::ops::Range<usize>, chunk: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let chunk = if chunk == 0 {
        adaptive_chunk(pool, len)
    } else {
        chunk
    };
    if len <= chunk || pool.num_threads() == 1 {
        for i in range {
            body(i);
        }
        return;
    }
    let body = &body;
    pool.scope(|s| {
        let mut start = range.start;
        while start < range.end {
            let end = (start + chunk).min(range.end);
            s.spawn(move |_| {
                for i in start..end {
                    body(i);
                }
            });
            start = end;
        }
    });
}

/// Runs `body` on immutable chunks of `data` in parallel, collecting one
/// result per chunk (in order).
pub fn parallel_chunks<T, R, F>(pool: &ThreadPool, data: &[T], chunk: usize, body: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], usize) -> R + Sync,
{
    let len = data.len();
    if len == 0 {
        return Vec::new();
    }
    let chunk = if chunk == 0 {
        adaptive_chunk(pool, len)
    } else {
        chunk
    };
    let n_chunks = len.div_ceil(chunk);
    let mut results: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    let body = &body;
    pool.scope(|s| {
        for (idx, (piece, slot)) in data.chunks(chunk).zip(results.iter_mut()).enumerate() {
            let start = idx * chunk;
            s.spawn(move |_| {
                *slot = Some(body(piece, start));
            });
        }
    });
    results
        .into_iter()
        // lint: allow(expect): scope() joins every task before returning.
        .map(|r| r.expect("all chunks completed by scope exit"))
        .collect()
}

/// Applies `f` to every index in `0..n` in parallel and collects the results
/// in order.
pub fn parallel_map<R, F>(pool: &ThreadPool, n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = if chunk == 0 {
        adaptive_chunk(pool, n)
    } else {
        chunk
    };
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let f = &f;
    pool.scope(|s| {
        for (chunk_idx, slots) in results.chunks_mut(chunk).enumerate() {
            let start = chunk_idx * chunk;
            s.spawn(move |_| {
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(start + off));
                }
            });
        }
    });
    results
        .into_iter()
        // lint: allow(expect): scope() joins every task before returning.
        .map(|r| r.expect("all indices filled by scope exit"))
        .collect()
}

/// Runs a set of heterogeneous tasks on the pool and collects their
/// results in submission order.
///
/// The whole task set is submitted through [`crate::Scope::spawn_batch`]
/// — one queue submission, one worker wakeup — which is the shape the
/// engine's partitioned Delta drain needs: all per-partition merge tasks
/// are known up front, and a notify-per-task storm would eat the win of
/// parallelising the merge in the first place. The calling thread helps
/// execute queued work while it waits, so this is safe to call from a
/// worker thread.
pub fn parallel_tasks<R, F>(pool: &ThreadPool, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    parallel_tasks_impl(pool, tasks)
}

fn parallel_tasks_impl<R, F>(pool: &ThreadPool, tasks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    if tasks.is_empty() {
        return Vec::new();
    }
    if tasks.len() == 1 || pool.num_threads() == 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let mut results: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    pool.scope(|s| {
        let jobs = tasks
            .into_iter()
            .zip(results.iter_mut())
            .map(|(task, slot)| {
                move |_: &crate::Scope<'_>| {
                    *slot = Some(task());
                }
            });
        s.spawn_batch(jobs);
    });
    results
        .into_iter()
        // lint: allow(expect): scope() joins every task before returning.
        .map(|r| r.expect("all tasks completed by scope exit"))
        .collect()
}

/// Parallel tree reduction: maps each chunk to a partial value with `map`,
/// then folds the partials with the associative `combine`.
///
/// This is the execution shape of JStar's `reduce` operations with
/// user-defined operators (§1.3) — the paper notes loops with a reducer
/// object "could also be executed in parallel, with a tree-based pass to
/// combine the final reducer results".
pub fn parallel_reduce<T, R, M, C>(
    pool: &ThreadPool,
    data: &[T],
    chunk: usize,
    identity: R,
    map: M,
    combine: C,
) -> R
where
    T: Sync,
    R: Send,
    M: Fn(&[T]) -> R + Sync,
    C: Fn(R, R) -> R,
{
    let partials = parallel_chunks(pool, data, chunk, |piece, _| map(piece));
    partials.into_iter().fold(identity, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        let p = pool();
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        parallel_for(&p, 0..1000, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range() {
        let p = pool();
        parallel_for(&p, 5..5, 0, |_| panic!("must not run"));
    }

    #[test]
    fn parallel_chunks_preserves_order() {
        let p = pool();
        let data: Vec<u64> = (0..100).collect();
        let sums = parallel_chunks(&p, &data, 10, |c, start| (start, c.iter().sum::<u64>()));
        assert_eq!(sums.len(), 10);
        for (i, (start, _)) in sums.iter().enumerate() {
            assert_eq!(*start, i * 10);
        }
        let total: u64 = sums.iter().map(|(_, s)| s).sum();
        assert_eq!(total, 4950);
    }

    #[test]
    fn parallel_map_collects_in_order() {
        let p = pool();
        let out = parallel_map(&p, 50, 3, |i| i * i);
        assert_eq!(out.len(), 50);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_reduce_sums() {
        let p = pool();
        let data: Vec<u64> = (1..=1000).collect();
        let sum = parallel_reduce(&p, &data, 64, 0u64, |c| c.iter().sum::<u64>(), |a, b| a + b);
        assert_eq!(sum, 500500);
    }

    #[test]
    fn parallel_reduce_matches_sequential_for_min() {
        let p = pool();
        let data: Vec<i64> = (0..500).map(|i| ((i * 7919) % 1000) as i64 - 500).collect();
        let par_min = parallel_reduce(
            &p,
            &data,
            13,
            i64::MAX,
            |c| c.iter().copied().min().unwrap_or(i64::MAX),
            |a, b| a.min(b),
        );
        assert_eq!(par_min, data.iter().copied().min().unwrap());
    }

    #[test]
    fn parallel_tasks_collects_in_submission_order() {
        let p = pool();
        let tasks: Vec<_> = (0..37).map(|i| move || i * 3).collect();
        let out = parallel_tasks(&p, tasks);
        assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_tasks_empty_and_single() {
        let p = pool();
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(parallel_tasks(&p, none).is_empty());
        assert_eq!(parallel_tasks(&p, vec![|| 9u32]), vec![9]);
    }

    #[test]
    fn chunk_zero_picks_automatically() {
        let p = pool();
        let data: Vec<u64> = (0..10_000).collect();
        let sum = parallel_reduce(&p, &data, 0, 0u64, |c| c.iter().sum::<u64>(), |a, b| a + b);
        assert_eq!(sum, 49_995_000);
    }
}
