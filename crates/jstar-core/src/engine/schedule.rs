//! Adaptive all-minimums scheduling: how one extracted equivalence
//! class is executed.
//!
//! The paper's "simple all-minimums parallelisation strategy" makes
//! every tuple of the minimal class a fork/join task. The scheduler
//! keeps that shape and only decides how the tasks are cut:
//!
//! * **sequential engine** — everything runs inline on the coordinator,
//!   with the class sorted for a deterministic intra-class order
//!   (parallel execution order is intentionally unspecified, so only
//!   this arm pays for the sort) unless its table triggers a join rule,
//!   whose walk orders its root by the join key itself;
//! * **one tuple** — inline on the coordinator: there is nothing to
//!   split, and a fork would only add a wakeup round trip;
//! * **a class with a table that triggers a join rule** — inline on
//!   the coordinator, each table's tuples inserted as one batch; the
//!   join rule's walk then fans its root rows over the pool
//!   ([`crate::gamma::leapfrog`]), so each such table's share of the
//!   class is one walk whatever its width;
//! * **wider class** — forked, chunked by measured class width and
//!   current pool occupancy ([`jstar_pool::adaptive_chunk`], which aims
//!   at 4·T chunks) and submitted as one batch (single wakeup); the
//!   scope's join helps execute them. Balance comes from those ≥ 4·T
//!   tasks: a thread that falls behind — a worker woken from idle for
//!   one burst often runs 1.2–1.7× slower — leaves its remaining chunks
//!   to be stolen. A class narrower than that is one tuple per task and
//!   done when its slowest thread is, so a program whose narrow class
//!   carries the work splits it finer itself: `pvwatts` puts four
//!   region requests per expected reader.

use jstar_pool::ThreadPool;

/// How one equivalence class should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ClassPlan {
    /// Run on the coordinator thread; `sort` requests the deterministic
    /// intra-class order of the sequential engine.
    Inline { sort: bool },
    /// Chunk the class by `chunk` tuples and fan the chunks out to the
    /// pool as one batch.
    Forked { chunk: usize },
}

/// Plans the execution of a class of `class_size` tuples; `walks` says
/// one of its tables triggers a join rule.
pub(super) fn plan(pool: Option<&ThreadPool>, class_size: usize, walks: bool) -> ClassPlan {
    match pool {
        Some(pool) if class_size > 1 && !walks => ClassPlan::Forked {
            chunk: jstar_pool::adaptive_chunk(pool, class_size),
        },
        Some(_) => ClassPlan::Inline { sort: false },
        None => ClassPlan::Inline { sort: !walks },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_engine_sorts_inline() {
        assert_eq!(plan(None, 100, false), ClassPlan::Inline { sort: true });
        assert_eq!(plan(None, 1, false), ClassPlan::Inline { sort: true });
    }

    #[test]
    fn narrow_classes_run_inline_without_sorting() {
        // Only a one-tuple class is narrow enough to stay on the
        // coordinator.
        let pool = ThreadPool::new(2);
        assert_eq!(
            plan(Some(&pool), 1, false),
            ClassPlan::Inline { sort: false }
        );
    }

    #[test]
    fn wide_classes_fork_with_adaptive_chunks() {
        let pool = ThreadPool::new(2);
        // An 8-tuple class at T = 2 is 8 one-tuple tasks to steal.
        assert_eq!(plan(Some(&pool), 8, false), ClassPlan::Forked { chunk: 1 });
        for width in [3, 1000] {
            match plan(Some(&pool), width, false) {
                ClassPlan::Forked { chunk } => assert!((1..width).contains(&chunk)),
                other => panic!("width {width}: expected a forked plan, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_threshold_forks_every_multi_tuple_class() {
        // With no inline threshold left, every class of two or more
        // tuples forks, as a zero threshold used to make it.
        let pool = ThreadPool::new(2);
        assert_eq!(
            plan(Some(&pool), 1, false),
            ClassPlan::Inline { sort: false }
        );
        assert_eq!(plan(Some(&pool), 2, false), ClassPlan::Forked { chunk: 1 });
    }

    #[test]
    fn join_classes_run_on_the_coordinator_at_every_width() {
        // A class whose table triggers a join rule is one walk, its root
        // rows fanned over the pool by the walk itself and ordered by
        // the join key: never forked, never sorted, whatever its width
        // and on either engine.
        let pool = ThreadPool::new(2);
        for width in [1, 2, 31, 32, 1000] {
            for pool in [Some(&pool), None] {
                let plan = plan(pool, width, true);
                assert_eq!(plan, ClassPlan::Inline { sort: false }, "width {width}");
            }
        }
    }
}
