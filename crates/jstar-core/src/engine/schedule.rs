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
//!   this arm pays for the sort);
//! * **one tuple** — inline on the coordinator: there is nothing to
//!   split, and a fork would only add a wakeup round trip;
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

use crate::tuple::Tuple;
use jstar_pool::ThreadPool;

/// Minimum class width for batched delta-join execution (the engine
/// module's "Execution modes"). Below it the sort and the per-stage
/// views cost more than the probes they save.
pub(super) const DELTA_JOIN_MIN_CLASS: usize = 32;

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

/// The per-run scheduling policy (all-minimums, made adaptive).
pub(super) struct Scheduler {
    /// Per-table flag: does any rule triggered by this table carry a
    /// [`crate::rule::JoinPlan`]? Tables without one never take the
    /// delta-join arm, whatever the class size.
    join_tables: Vec<bool>,
}

impl Scheduler {
    pub(super) fn new() -> Scheduler {
        Scheduler {
            join_tables: Vec::new(),
        }
    }

    /// Arms delta-join mode: classes of at least
    /// [`DELTA_JOIN_MIN_CLASS`] tuples whose (uniform) trigger table has
    /// a join-plan rule execute as one batched Gamma pass.
    pub(super) fn with_delta_join(mut self, join_tables: Vec<bool>) -> Scheduler {
        self.join_tables = join_tables;
        self
    }

    /// True when `class` should execute in batched delta-join mode:
    /// it is at least [`DELTA_JOIN_MIN_CLASS`] wide, is uniform over one
    /// table, and that table triggers at least one join-plan rule. Mixed-table classes
    /// (one order key spanning tables) always take the per-tuple path —
    /// correctness never depends on this answer, only probe counts.
    pub(super) fn delta_join(&self, class: &[Tuple]) -> bool {
        let Some(first) = class.first() else {
            return false;
        };
        class.len() >= DELTA_JOIN_MIN_CLASS
            && self
                .join_tables
                .get(first.table().index())
                .copied()
                .unwrap_or(false)
            && class.iter().all(|t| t.table() == first.table())
    }

    /// Plans the execution of a class of `class_size` tuples.
    pub(super) fn plan(&self, pool: Option<&ThreadPool>, class_size: usize) -> ClassPlan {
        match pool {
            Some(pool) if class_size > 1 => ClassPlan::Forked {
                chunk: jstar_pool::adaptive_chunk(pool, class_size),
            },
            Some(_) => ClassPlan::Inline { sort: false },
            None => ClassPlan::Inline { sort: true },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_engine_sorts_inline() {
        let s = Scheduler::new();
        assert_eq!(s.plan(None, 100), ClassPlan::Inline { sort: true });
        assert_eq!(s.plan(None, 1), ClassPlan::Inline { sort: true });
    }

    #[test]
    fn narrow_classes_run_inline_without_sorting() {
        // Only a one-tuple class is narrow enough to stay on the
        // coordinator.
        let pool = ThreadPool::new(2);
        let s = Scheduler::new();
        assert_eq!(s.plan(Some(&pool), 1), ClassPlan::Inline { sort: false });
    }

    #[test]
    fn wide_classes_fork_with_adaptive_chunks() {
        let pool = ThreadPool::new(2);
        let s = Scheduler::new();
        // An 8-tuple class at T = 2 is 8 one-tuple tasks to steal.
        assert_eq!(s.plan(Some(&pool), 8), ClassPlan::Forked { chunk: 1 });
        for width in [3, 1000] {
            match s.plan(Some(&pool), width) {
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
        let s = Scheduler::new();
        assert_eq!(s.plan(Some(&pool), 1), ClassPlan::Inline { sort: false });
        assert_eq!(s.plan(Some(&pool), 2), ClassPlan::Forked { chunk: 1 });
    }

    #[test]
    fn delta_join_requires_threshold_uniform_table_and_plan_rule() {
        use crate::schema::TableId;
        use crate::value::Value;
        let row = |ti: u32, v: i64| Tuple::new(TableId(ti), vec![Value::Int(v)]);
        let rows = |ti| -> Vec<Tuple> { (0..32).map(|v| row(ti, v)).collect() };
        // Table 0 has a join-plan rule, table 1 does not.
        let s = Scheduler::new().with_delta_join(vec![true, false]);
        let wide = rows(0);
        assert!(s.delta_join(&wide));
        assert!(!s.delta_join(&wide[1..]), "below threshold");
        assert!(!s.delta_join(&rows(1)), "no join-plan rule on that table");
        let mixed = [&wide[1..], &[row(1, 0)]].concat();
        assert!(!s.delta_join(&mixed), "mixed-table classes stay per-tuple");
        assert!(!s.delta_join(&[]), "empty class");
        // An unarmed scheduler (no join tables) never batches.
        assert!(!Scheduler::new().delta_join(&wide));
    }
}
