//! Adaptive all-minimums scheduling: how one extracted equivalence
//! class is executed.
//!
//! The paper's "simple all-minimums parallelisation strategy" makes
//! every tuple of the minimal class a fork/join task. That is the right
//! shape for wide classes and an unsteady one for narrow ones, so the
//! scheduler plans each class adaptively:
//!
//! * **sequential engine** — everything runs inline on the coordinator,
//!   with the class sorted for a deterministic intra-class order
//!   (parallel execution order is intentionally unspecified, so only
//!   this arm pays for the sort);
//! * **narrow class** (at or below
//!   [`super::EngineConfig::inline_class_threshold`]) — inline on the
//!   coordinator. Not because it is cheap — width is not work: each of
//!   `pvwatts`' two to four reader tuples parses for 30 ms — but because
//!   it cannot be balanced: one task per tuple, done when the slowest
//!   thread is, and a worker woken from idle for one burst is that
//!   thread. Forked on a 2-vCPU VM that job's median is 42 ms against
//!   63 ms inline, and from process to process it ranges 36–52 ms
//!   against 62–69 ms. The default keeps the steady side;
//!   `inline_classes_up_to(0)` forks every class;
//! * **wide class** — chunked by measured class width and current pool
//!   occupancy ([`jstar_pool::adaptive_chunk`]) and submitted as one
//!   batch (single wakeup); the scope's join helps execute them.

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
    /// Classes at or below this width run inline (see
    /// [`super::EngineConfig::inline_class_threshold`]).
    inline_threshold: usize,
    /// Per-table flag: does any rule triggered by this table carry a
    /// [`crate::rule::JoinPlan`]? Tables without one never take the
    /// delta-join arm, whatever the class size.
    join_tables: Vec<bool>,
}

impl Scheduler {
    pub(super) fn new(inline_threshold: usize) -> Scheduler {
        Scheduler {
            inline_threshold: inline_threshold.max(1),
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
            Some(pool) if class_size > self.inline_threshold => ClassPlan::Forked {
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
        let s = Scheduler::new(4);
        assert_eq!(s.plan(None, 100), ClassPlan::Inline { sort: true });
        assert_eq!(s.plan(None, 1), ClassPlan::Inline { sort: true });
    }

    #[test]
    fn narrow_classes_run_inline_without_sorting() {
        let pool = ThreadPool::new(2);
        let s = Scheduler::new(4);
        for width in 1..=4 {
            assert_eq!(
                s.plan(Some(&pool), width),
                ClassPlan::Inline { sort: false }
            );
        }
    }

    #[test]
    fn wide_classes_fork_with_adaptive_chunks() {
        let pool = ThreadPool::new(2);
        let s = Scheduler::new(4);
        match s.plan(Some(&pool), 1000) {
            ClassPlan::Forked { chunk } => assert!(chunk >= 1),
            other => panic!("expected a forked plan, got {other:?}"),
        }
    }

    #[test]
    fn zero_threshold_forks_every_multi_tuple_class() {
        let pool = ThreadPool::new(2);
        let s = Scheduler::new(0); // clamped to 1
        assert_eq!(s.plan(Some(&pool), 1), ClassPlan::Inline { sort: false });
        assert!(matches!(s.plan(Some(&pool), 2), ClassPlan::Forked { .. }));
    }

    #[test]
    fn delta_join_requires_threshold_uniform_table_and_plan_rule() {
        use crate::schema::TableId;
        use crate::value::Value;
        let row = |ti: u32, v: i64| Tuple::new(TableId(ti), vec![Value::Int(v)]);
        let rows = |ti| -> Vec<Tuple> { (0..32).map(|v| row(ti, v)).collect() };
        // Table 0 has a join-plan rule, table 1 does not.
        let s = Scheduler::new(4).with_delta_join(vec![true, false]);
        let wide = rows(0);
        assert!(s.delta_join(&wide));
        assert!(!s.delta_join(&wide[1..]), "below threshold");
        assert!(!s.delta_join(&rows(1)), "no join-plan rule on that table");
        let mixed = [&wide[1..], &[row(1, 0)]].concat();
        assert!(!s.delta_join(&mixed), "mixed-table classes stay per-tuple");
        assert!(!s.delta_join(&[]), "empty class");
        // An unarmed scheduler (no join tables) never batches.
        assert!(!Scheduler::new(4).delta_join(&wide));
    }
}
