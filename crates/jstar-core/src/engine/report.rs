//! The result of one engine run: counters, phase timers, and the
//! metrics derived from them.

use std::time::Duration;

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of Delta extraction steps.
    pub steps: u64,
    /// Tuples processed out of the Delta set.
    pub tuples_processed: u64,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Coordinator time spent absorbing staged tuples into the Delta
    /// queue at the step boundary (the sum of `partition_time` and
    /// `merge_time`). Zero unless
    /// [`super::EngineConfig::record_steps`] is set — the per-step
    /// timers are profiling instrumentation, not free.
    pub drain_time: Duration,
    /// Drain phase 1: swapping the per-worker staging bins out into
    /// per-partition runs. Zero unless
    /// [`super::EngineConfig::record_steps`] is set.
    pub partition_time: Duration,
    /// Drain phase 2: merging the partition runs into the Delta queue
    /// (one class map per partition built on the pool, then moved into
    /// the queue class by class on the coordinator, or the sequential
    /// fallback). Zero unless
    /// [`super::EngineConfig::record_steps`] is set.
    pub merge_time: Duration,
    /// Always zero; kept for `spine/adapter.rs`. Every absorb runs at
    /// the step boundary and is counted in [`RunReport::drain_time`].
    pub overlap_time: Duration,
    /// Time spent executing equivalence classes (Gamma inserts + rules).
    /// Zero unless [`super::EngineConfig::record_steps`] is set.
    pub execute_time: Duration,
    /// Classes executed inline on the coordinator: one-tuple classes,
    /// classes whose table triggers a join rule, and every class of the
    /// sequential engine.
    pub inline_classes: u64,
    /// Classes fanned out to the fork/join pool.
    pub forked_classes: u64,
    /// Checkpoints written during the run (see
    /// [`super::EngineConfig::checkpoint`]).
    pub checkpoints: u64,
    /// Coordinator time spent writing checkpoints (quiescing the Delta
    /// queue, serializing, fsync-free atomic rename, rotation). Always
    /// recorded when checkpointing is on — unlike the per-step phase
    /// timers it does not require
    /// [`super::EngineConfig::record_steps`], because checkpoints are
    /// rare enough that the two clock reads per checkpoint are free.
    pub checkpoint_time: Duration,
    /// Runs of fresh trigger tuples whose join rules were walked — a
    /// class run on the coordinator, a chunk of a mixed-table class or
    /// a flushed `-noDelta` batch — each rule one leapfrog walk rooted
    /// at the run. Zero on a program without a join rule.
    pub delta_join_classes: u64,
    /// Total Gamma queries issued by rule bodies across all tables —
    /// per-tuple probes and leapfrog cursor opens alike, so an A/B run
    /// against a nested-loop twin of a join rule shows the probe-count
    /// reduction directly.
    pub gamma_probes: u64,
    /// Galloping cursor repositionings performed by leapfrog join
    /// walks (`join::<..>()` reads and join rules).
    /// Single-step `next` advances are free and not counted, so
    /// `gamma_probes + join_seeks` is the walk's total store-search
    /// cost.
    pub join_seeks: u64,
    /// Sorted column views opened for leapfrog join walks — one per
    /// (walk × relation), each also counted in
    /// [`RunReport::gamma_probes`].
    pub join_cursor_opens: u64,
    /// Cursor opens served by a view already built: a write-once
    /// table's sealed column-0 view, or a column the same walk opened
    /// before — see [`crate::gamma::Gamma::open_cursor`]. The name is
    /// kept for `spine/adapter.rs`.
    pub index_cache_hits: u64,
    /// Cursor opens that built a column view: every open of any other
    /// column, off the claim journal or, for a store without one, over
    /// `for_each`.
    pub index_cache_misses: u64,
    /// Always zero; kept for `spine/adapter.rs`. A view is never caught
    /// up: a changed table is rebuilt and counted in
    /// [`RunReport::index_build_tuples`].
    pub index_catchup_tuples: u64,
    /// Tuples sorted by view builds — every live tuple of the table
    /// once per miss — and by write-once seals.
    pub index_build_tuples: u64,
    /// Collected `println` output (order not significant).
    pub output: Vec<String>,
}

impl RunReport {
    /// Fraction of accounted step time the coordinator spent draining
    /// serially (vs. executing). A high value means the drain, not the
    /// hardware, sets the speed limit.
    pub fn drain_fraction(&self) -> f64 {
        let total = self.drain_time.as_secs_f64() + self.execute_time.as_secs_f64();
        if total > 0.0 {
            self.drain_time.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// `overlap / (overlap + serial drain)`: always 0.0, since
    /// [`RunReport::overlap_time`] is; kept for `spine/adapter.rs`.
    pub fn overlap_fraction(&self) -> f64 {
        let total = self.overlap_time.as_secs_f64() + self.drain_time.as_secs_f64();
        if total > 0.0 {
            self.overlap_time.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Fraction of cursor opens served by a view already built:
    /// `hits / (hits + misses)`. 0.0 when no join walk opened a cursor.
    pub fn index_cache_hit_rate(&self) -> f64 {
        let total = self.index_cache_hits + self.index_cache_misses;
        if total > 0 {
            self.index_cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}
