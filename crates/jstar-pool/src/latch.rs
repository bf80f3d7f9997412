//! A counting latch used to implement fork/join scopes.

// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicUsize, Condvar, Mutex, Ordering};

/// A latch that counts outstanding tasks and lets one thread wait for the
/// count to reach zero.
///
/// This is the synchronisation backbone of [`crate::Scope`] and
/// [`crate::TaskBatch`]: every spawned task increments the latch, every
/// completed task decrements it, and the owner helps execute work —
/// parking briefly when there is none — until it drains.
///
/// The fast path is a lone atomic; the mutex/condvar pair is only touched
/// when a waiter is actually parked.
pub(crate) struct CountLatch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CountLatch {
    /// Creates a latch with an initial count of zero.
    pub(crate) fn new() -> Self {
        CountLatch {
            count: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Registers one more outstanding task.
    pub(crate) fn increment(&self) {
        // ord: Relaxed — registration precedes the task's queue
        // submission, and the queue's own synchronisation publishes it;
        // the latch only needs the count arithmetic to be atomic.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one task as finished, waking waiters if the count hits zero.
    pub(crate) fn decrement(&self) {
        // ord: Release — pairs with `count`'s Acquire load so everything
        // the finished task wrote happens-before a waiter seeing zero.
        if self.count.fetch_sub(1, Ordering::Release) == 1 {
            // Last task out: take the lock so a concurrent `wait` cannot
            // observe the zero between its check and its sleep, then wake.
            let _guard = self.lock.lock();
            self.cond.notify_all();
        }
    }

    /// Returns the current count. Zero means all registered tasks finished.
    pub(crate) fn count(&self) -> usize {
        // ord: Acquire — pairs with decrement's Release: observing zero
        // makes every finished task's writes visible to the caller.
        self.count.load(Ordering::Acquire)
    }

    /// Returns true if there is nothing outstanding.
    pub(crate) fn is_clear(&self) -> bool {
        self.count() == 0
    }

    /// Blocks until the count reaches zero or the timeout elapses.
    /// Returns true if the latch is clear. The pool's helping loops poll
    /// [`Self::is_clear`] and park here only when no work is available.
    pub(crate) fn wait_timeout(&self, dur: std::time::Duration) -> bool {
        if self.is_clear() {
            return true;
        }
        let mut guard = self.lock.lock();
        if self.is_clear() {
            return true;
        }
        self.cond.wait_for(&mut guard, dur);
        self.is_clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Parks until the latch is clear, as the helping loops do when there
    /// is nothing to help with.
    fn wait(latch: &CountLatch) {
        while !latch.wait_timeout(Duration::from_millis(1)) {}
    }

    #[test]
    fn starts_clear() {
        let latch = CountLatch::new();
        assert!(latch.is_clear());
        assert!(latch.wait_timeout(Duration::ZERO), "must not block");
    }

    #[test]
    fn increments_and_decrements() {
        let latch = CountLatch::new();
        latch.increment();
        latch.increment();
        assert_eq!(latch.count(), 2);
        latch.decrement();
        assert_eq!(latch.count(), 1);
        latch.decrement();
        assert!(latch.is_clear());
    }

    #[test]
    fn wait_blocks_until_clear() {
        let latch = Arc::new(CountLatch::new());
        latch.increment();
        let l2 = Arc::clone(&latch);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            l2.decrement();
        });
        wait(&latch);
        assert!(latch.is_clear());
        handle.join().unwrap();
    }

    #[test]
    fn wait_timeout_reports_pending() {
        let latch = CountLatch::new();
        latch.increment();
        assert!(!latch.wait_timeout(Duration::from_millis(5)));
        latch.decrement();
        assert!(latch.wait_timeout(Duration::from_millis(5)));
    }

    #[test]
    fn many_threads_drain() {
        let latch = Arc::new(CountLatch::new());
        for _ in 0..64 {
            latch.increment();
        }
        let mut handles = Vec::new();
        for _ in 0..64 {
            let l = Arc::clone(&latch);
            handles.push(thread::spawn(move || l.decrement()));
        }
        wait(&latch);
        assert!(latch.is_clear());
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// Exhaustive interleaving checks for the latch protocol — the edge that
/// publishes every task's effects (scoped or in a detached batch) to the
/// joining owner. Run with
/// `cargo test -p jstar-pool --features model-check`.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use jstar_check::sync::UnsafeCell;
    use jstar_check::{thread, Checker};
    use std::sync::Arc;

    /// One job result per writer, as `Scope::spawn` + `submit_background`
    /// would produce them.
    struct Jobs {
        scoped: UnsafeCell<u64>,
        detached: UnsafeCell<u64>,
        latch: CountLatch,
    }
    // SAFETY: the cells are written only by their task before its latch
    // decrement and read only after the owner observes the latch clear;
    // the decrement's Release / count's Acquire pairing orders them. The
    // model tests below are exactly the proof of this claim.
    unsafe impl Sync for Jobs {}

    /// A condvar-parked waiter must see the worker's pre-decrement write
    /// once `wait_timeout` reports the latch clear — the race detector
    /// fails the run otherwise.
    #[test]
    fn wait_publishes_task_effects() {
        let report = Checker::new().check(|| {
            let jobs = Arc::new(Jobs {
                scoped: UnsafeCell::new(0),
                detached: UnsafeCell::new(0),
                latch: CountLatch::new(),
            });
            jobs.latch.increment();
            let worker = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.scoped.with_mut(|p| unsafe { *p = 7 });
                    jobs.latch.decrement();
                })
            };
            while !jobs.latch.wait_timeout(std::time::Duration::from_millis(1)) {}
            // SAFETY: latch observed clear — the task's write is ordered
            // before this read.
            assert_eq!(jobs.scoped.with(|p| unsafe { *p }), 7);
            worker.join();
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// A polling join (the `is_clear` loop of `Scope::run` and
    /// `TaskBatch::join`) must publish every task's effects: a scoped job
    /// and a detached batch job each write their result before
    /// decrementing, and the owner spins on `is_clear` instead of
    /// parking.
    #[test]
    fn polling_join_publishes_task_effects() {
        let report = Checker::new().check(|| {
            let jobs = Arc::new(Jobs {
                scoped: UnsafeCell::new(0),
                detached: UnsafeCell::new(0),
                latch: CountLatch::new(),
            });
            jobs.latch.increment();
            jobs.latch.increment();
            let scoped = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.scoped.with_mut(|p| unsafe { *p = 1 });
                    jobs.latch.decrement();
                })
            };
            let detached = {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || {
                    // SAFETY: unique writer; published by the decrement.
                    jobs.detached.with_mut(|p| unsafe { *p = 2 });
                    jobs.latch.decrement();
                })
            };
            while !jobs.latch.is_clear() {
                jstar_check::sync::spin_loop();
            }
            // SAFETY: latch observed clear — both decrements' Release
            // stores are acquired, ordering both writes before these
            // reads.
            assert_eq!(jobs.scoped.with(|p| unsafe { *p }), 1);
            assert_eq!(jobs.detached.with(|p| unsafe { *p }), 2);
            scoped.join();
            detached.join();
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
