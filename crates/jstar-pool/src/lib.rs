//! # jstar-pool — a work-stealing fork/join thread pool
//!
//! The JStar paper executes the tuples of each minimal Delta equivalence
//! class "in parallel" on top of the Java 7 Fork/Join framework (Lea, 2000),
//! with the pool size controlled by a `--threads=N` runtime flag.  This crate
//! is the Rust substitute for that substrate: a small work-stealing thread
//! pool built on [`crossbeam::deque`], offering
//!
//! * [`ThreadPool::scope`] — structured fork/join: spawn borrowed closures
//!   and block (while *helping*, i.e. executing queued jobs) until all of
//!   them finish, mirroring `ForkJoinTask::invokeAll`;
//! * [`parallel_tasks`] — a batch of tasks submitted with one wakeup,
//!   results in submission order: the shape of the engine's partitioned
//!   Delta merge, its parallel in-rule reads and the checkpoint encode;
//! * [`parallel_for`] — a chunked data-parallel loop;
//! * a configurable thread count (the `--threads=N` flag of the paper).
//!
//! Worker threads sleep on a condition variable when no work is available
//! and are woken on submission, so an idle pool consumes no CPU.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = jstar_pool::ThreadPool::new(4);
//! let data: Vec<AtomicU64> = (0..1024).map(|_| AtomicU64::new(0)).collect();
//! jstar_pool::parallel_for(&pool, 0..data.len(), 64, |i| {
//!     data[i].store(i as u64 * 2, Ordering::Relaxed);
//! });
//! assert_eq!(data[513].load(Ordering::Relaxed), 1026);
//! ```

mod batch;
mod latch;
mod parfor;
mod pool;
mod scope;

pub use batch::{submit_background, TaskBatch};
pub use parfor::{adaptive_chunk, parallel_for, parallel_tasks};
pub use pool::ThreadPool;
pub use scope::Scope;
