//! Detached task batches on the pool.
//!
//! [`submit_background`] enqueues a batch of `'static` tasks on the
//! pool's one queue, like a scope's [`crate::Scope::spawn_batch`], and
//! returns a [`TaskBatch`] handle immediately; [`TaskBatch::join`]
//! collects the results, helping execute queued work while anything is
//! still outstanding, so joining from inside a fork/join scope can never
//! deadlock the pool. Until they start, the batch's tasks count in
//! [`ThreadPool::pending_jobs`] like any other queued job.
//!
//! Tasks must be `'static`: unlike [`crate::Scope`] there is no enclosing
//! frame whose lifetime bounds them — the handle may outlive the
//! submitting stack frame by design.

// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::Mutex;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::latch::CountLatch;
use crate::pool::ThreadPool;

/// Shared state of one submitted batch.
struct BatchState<R> {
    latch: CountLatch,
    /// `(submission index, result)` pairs, pushed as tasks finish.
    results: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A handle to a detached batch of tasks running on the pool.
///
/// Created by [`submit_background`]. Dropping the handle without joining
/// leaks nothing — the tasks still run to completion and their results
/// are dropped with the shared state.
pub struct TaskBatch<R> {
    state: Arc<BatchState<R>>,
}

impl<R: Send + 'static> TaskBatch<R> {
    /// Waits for the batch and returns the results in submission order.
    ///
    /// While tasks are outstanding the calling thread *helps*: it
    /// executes queued pool jobs — possibly this batch's own tasks. If
    /// any task panicked, the panic is resumed here.
    pub fn join(self, pool: &ThreadPool) -> Vec<R> {
        let mut stalled_waits = 0u32;
        while !self.state.latch.is_clear() {
            if pool.shared().try_help(false) {
                stalled_waits = 0;
            } else {
                self.state.latch.wait_timeout(Duration::from_millis(1));
                stalled_waits += 1;
                if stalled_waits >= 2
                    && !self.state.latch.is_clear()
                    && pool.shared().try_help(true)
                {
                    stalled_waits = 0;
                }
            }
        }
        if let Some(payload) = self.state.panic.lock().take() {
            panic::resume_unwind(payload);
        }
        let mut results = std::mem::take(&mut *self.state.results.lock());
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

/// Submits `tasks` on `pool` and returns immediately
/// with a [`TaskBatch`] handle. One queue submission and one worker
/// wakeup for the whole batch, like [`crate::Scope::spawn_batch`].
pub fn submit_background<R, F>(pool: &ThreadPool, tasks: Vec<F>) -> TaskBatch<R>
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let len = tasks.len();
    let state = Arc::new(BatchState {
        latch: CountLatch::new(),
        results: Mutex::new(Vec::with_capacity(len)),
        panic: Mutex::new(None),
    });
    let mut jobs: Vec<crate::pool::Job> = Vec::with_capacity(len);
    for (i, task) in tasks.into_iter().enumerate() {
        state.latch.increment();
        let state = Arc::clone(&state);
        jobs.push(Box::new(move || {
            match panic::catch_unwind(AssertUnwindSafe(task)) {
                Ok(r) => state.results.lock().push((i, r)),
                Err(payload) => {
                    let mut slot = state.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            // Decrement last: a joiner that sees the latch clear must
            // also see this task's result (or its panic).
            state.latch.decrement();
        }));
    }
    Arc::clone(pool.shared()).push_batch(jobs);
    TaskBatch { state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jstar_check::sync::{AtomicUsize, Ordering};

    #[test]
    fn empty_batch_joins_immediately() {
        let pool = ThreadPool::new(2);
        let batch: TaskBatch<u32> = submit_background(&pool, Vec::<fn() -> u32>::new());
        assert!(batch.join(&pool).is_empty());
    }

    #[test]
    fn join_collects_in_submission_order() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * 3).collect();
        let out = submit_background(&pool, tasks).join(&pool);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_the_handle_still_runs_the_tasks() {
        let pool = ThreadPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..16)
            .map(|_| {
                let hits = Arc::clone(&hits);
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        drop(submit_background(&pool, tasks));
        while hits.load(Ordering::Relaxed) < 16 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn works_on_single_thread_pool() {
        let pool = ThreadPool::new(1);
        let tasks: Vec<_> = (0..8).map(|i| move || i + 1).collect();
        let batch = submit_background(&pool, tasks);
        assert_eq!(batch.join(&pool), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bg boom")]
    fn join_resumes_task_panics() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("bg boom")),
            Box::new(|| 3),
        ];
        submit_background(&pool, tasks).join(&pool);
    }

    #[test]
    fn a_scope_completes_while_a_detached_batch_is_pending() {
        // A scope entered behind an unjoined batch shares the queue with
        // it; helping alone must carry the scope to completion, on one
        // worker as on two.
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
            let batch = submit_background(&pool, tasks);
            let count = AtomicUsize::new(0);
            pool.scope(|s| {
                s.spawn_batch((0..32).map(|_| {
                    |_: &crate::Scope<'_>| {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            });
            assert_eq!(count.load(Ordering::Relaxed), 32);
            assert_eq!(batch.join(&pool), vec![0, 1, 2, 3]);
        }
    }
}
