//! Data-parallel loop helpers over the fork/join pool.
//!
//! JStar rules contain `for` loops whose bodies are independent because the
//! language has no mutable variables (§1.3 of the paper); the compiler may
//! execute them in parallel. These helpers are the runtime shape of that:
//! a chunked parallel loop, and a batch of tasks whose results come back
//! in order.

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
        let sum = AtomicU64::new(0);
        parallel_for(&p, 0..10_000, 0, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 49_995_000);
    }
}
