//! Moving staged tuples into the Delta tree, either serially at the
//! step boundary or overlapped with class execution.
//!
//! Tuples a step's workers `put` are staged in the
//! [`crate::delta::ShardedInbox`], binned by key prefix at push time.
//! Absorbing them is three phases: **close** (swap the staging epoch out
//! of every shard — [`crate::delta::ShardedInbox::swap_epoch`]),
//! **build** (one Delta subtree per partition, on the pool's
//! **background lane** so only otherwise-idle workers touch them —
//! [`crate::delta::EpochBuild`]), and **graft** (the coordinator merges
//! the built subtrees — [`crate::delta::DeltaTree::absorb_epoch`]).
//!
//! Which of the two it is follows from how the class executes: a forked
//! class (which implies a pool) is the overlap window — while its chunks
//! run, the coordinator closes epochs mid-step and grafts each one
//! immediately, helping execute queued work while it waits on the
//! builds. Inline and delta-join classes, and every `-sequential` run,
//! absorb at the step boundary only.
//!
//! The Law of Causality guarantees staged tuples never belong to the
//! *current* step, and the Delta tree is a canonical set keyed by
//! position — so absorbing epochs early (in any interleaving with
//! execution) produces exactly the queue state the step-boundary drain
//! would have, and the pop sequence is unchanged.
//!
//! ## The overlap controller
//!
//! A mid-step epoch swap only pays once enough tuples are staged (a
//! near-empty swap is a mutex round over every shard for nothing). The
//! swap point is chosen per step by [`OverlapController`]: it tracks an
//! EWMA of the coordinator-side absorb cost per staged tuple and of the
//! execute-window length, and sizes the batch so one absorb costs about
//! a quarter of the window — big enough to amortise the swap, small
//! enough that the final absorb does not spill past the join. Before
//! any measurements exist the fixed
//! `max(64, parallel_merge_threshold / 4)` trigger applies.

use crate::delta::{DeltaTree, EpochBuild};
use jstar_pool::{Scope, ThreadPool};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::config::EngineConfig;
use super::runtime::RunState;
use crate::orderby::OrderKey;
use crate::tuple::Tuple;

/// How many overlapped absorbs the controller aims to fit in one
/// execute window.
const TARGET_OVERLAP_ROUNDS: f64 = 4.0;
/// EWMA smoothing factor for the controller's two signals.
const EWMA_ALPHA: f64 = 0.3;
/// Bounds on the swap point, in staged tuples.
const MIN_SWAP_POINT: usize = 64;
const MAX_SWAP_POINT: usize = 1 << 16;

/// Feedback-driven sizing of the overlapped absorb batches.
pub(super) struct OverlapController {
    /// The trigger used before the first measurements.
    fixed: usize,
    /// EWMA of coordinator-side absorb nanoseconds per staged tuple;
    /// 0.0 until the first measurement.
    absorb_ns_per_tuple: f64,
    /// EWMA of the forked-class execute window in nanoseconds; 0.0
    /// until the first window closes.
    window_ns: f64,
    swap_point: usize,
}

impl OverlapController {
    fn new(merge_threshold: usize) -> OverlapController {
        let fixed = (merge_threshold / 4).max(MIN_SWAP_POINT);
        OverlapController {
            fixed,
            absorb_ns_per_tuple: 0.0,
            window_ns: 0.0,
            swap_point: fixed,
        }
    }

    /// The number of staged tuples at which the next mid-step epoch
    /// swap triggers.
    fn swap_point(&self) -> usize {
        self.swap_point
    }

    /// Feeds one absorbed epoch: `staged` tuples took `dur` of
    /// coordinator time (swap + graft).
    fn record_absorb(&mut self, staged: usize, dur: Duration) {
        if staged == 0 {
            return;
        }
        let per = dur.as_nanos() as f64 / staged as f64;
        self.absorb_ns_per_tuple = ewma(self.absorb_ns_per_tuple, per);
    }

    /// Feeds one closed execute window and recomputes the swap point
    /// for the next step.
    fn record_window(&mut self, dur: Duration) {
        self.window_ns = ewma(self.window_ns, dur.as_nanos() as f64);
        if self.absorb_ns_per_tuple > 0.0 && self.window_ns > 0.0 {
            let batch = self.window_ns / TARGET_OVERLAP_ROUNDS / self.absorb_ns_per_tuple;
            self.swap_point = (batch as usize).clamp(MIN_SWAP_POINT, MAX_SWAP_POINT);
        } else {
            self.swap_point = self.fixed;
        }
    }
}

fn ewma(prev: f64, sample: f64) -> f64 {
    if prev == 0.0 {
        sample
    } else {
        prev + EWMA_ALPHA * (sample - prev)
    }
}

/// Reusable absorption state: the recycled per-partition run buffers,
/// the per-table insert counters (flushed as **one** stats update per
/// touched table per epoch) and the overlap controller.
pub(super) struct Pipeline {
    /// Spare run-buffer sets, recycled through each epoch so staging
    /// allocations survive the round trip.
    spare: Vec<Vec<Vec<(OrderKey, Tuple)>>>,
    inserted_by_table: Vec<u64>,
    merge_threshold: usize,
    controller: OverlapController,
    timing: bool,
}

impl Pipeline {
    pub(super) fn new(state: &RunState, config: &EngineConfig) -> Pipeline {
        let merge_threshold = config.parallel_merge_threshold;
        Pipeline {
            spare: Vec::new(),
            inserted_by_table: vec![0; state.program.defs().len()],
            merge_threshold,
            controller: OverlapController::new(merge_threshold),
            timing: config.record_steps,
        }
    }

    /// Closes the current staging epoch. Returns `None` (and recycles
    /// the buffers) when nothing was staged.
    fn close_epoch(
        &mut self,
        state: &RunState,
        build_pool: Option<&ThreadPool>,
    ) -> Option<EpochBuild> {
        let mut runs = self
            .spare
            .pop()
            .unwrap_or_else(|| vec![Vec::new(); state.inbox.partitions()]);
        if state.inbox.swap_epoch(&mut runs) == 0 {
            self.spare.push(runs);
            return None;
        }
        Some(EpochBuild::start(
            runs,
            build_pool,
            self.inserted_by_table.len(),
            self.merge_threshold,
        ))
    }

    /// Grafts one epoch into the tree (joining its builds if still in
    /// flight — helping the pool meanwhile) and recycles the buffers.
    ///
    /// `clean_timing` marks a graft whose duration measures only absorb
    /// work and so feeds the controller's absorb-cost EWMA: a blocking
    /// join on a *not-ready* epoch executes queued foreground class
    /// chunks while it waits, which would poison the signal — such
    /// absorbs pass false.
    fn absorb_one(
        &mut self,
        epoch: EpochBuild,
        state: &RunState,
        tree: &mut DeltaTree,
        pool: Option<&ThreadPool>,
        clean_timing: bool,
    ) {
        let t0 = clean_timing.then(Instant::now);
        let staged = epoch.staged();
        let absorbed = tree.absorb_epoch(epoch, pool, &mut self.inserted_by_table);
        self.flush_counts(state);
        self.spare.push(absorbed.buffers);
        if let Some(t0) = t0 {
            self.controller.record_absorb(staged, t0.elapsed());
        }
    }

    /// Serial absorb at the step boundary (the **absorb** phase):
    /// everything still staged — all of it after an inline step, the
    /// sub-swap-point remainder after an overlapped one — so the
    /// following extract sees every tuple put by earlier steps.
    pub(super) fn absorb(
        &mut self,
        state: &RunState,
        tree: &mut DeltaTree,
        pool: Option<&ThreadPool>,
    ) {
        if state.inbox.is_empty() {
            return;
        }
        // `swap_epoch` is exact at the boundary — the scope join ordered
        // every worker push before this read.
        let partition_start = self.timing.then(Instant::now);
        let epoch = self.close_epoch(state, pool);
        let partition_elapsed = partition_start.map(|t0| t0.elapsed());
        let Some(epoch) = epoch else {
            return;
        };
        // Clean timing: the class has joined, so nothing foreign rides
        // inside the build join.
        let merge_start = self.timing.then(Instant::now);
        self.absorb_one(epoch, state, tree, pool, true);
        let merge_elapsed = merge_start.map(|t0| t0.elapsed());

        if let (Some(p), Some(m)) = (partition_elapsed, merge_elapsed) {
            state
                .stats
                .partition_nanos
                .fetch_add(p.as_nanos() as u64, Ordering::Relaxed);
            state
                .stats
                .merge_nanos
                .fetch_add(m.as_nanos() as u64, Ordering::Relaxed);
            state
                .stats
                .drain_nanos
                .fetch_add((p + m).as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Overlapped absorb (the other half of a forked **execute**
    /// phase): runs on the coordinator inside the class's fork/join
    /// scope. Cycles through (a) closing the staged epoch once it
    /// reaches the controller's swap point and grafting it, and (b)
    /// helping execute queued pool work, until every spawned chunk of
    /// the class has finished.
    pub(super) fn overlap(
        &mut self,
        scope: &Scope<'_>,
        state: &RunState,
        tree: &mut DeltaTree,
        pool: &ThreadPool,
    ) {
        let window_start = Instant::now();
        loop {
            let mut progressed = false;
            if state.inbox.len() >= self.controller.swap_point() {
                // The graft follows immediately, so a busy pool gains
                // nothing from parallel builds — the sequential insert
                // loop on the otherwise-waiting coordinator *is* the
                // overlap (and it keeps execute help out of the overlap
                // timer). Background builds pay only on an idle lane.
                let build_pool = (pool.pending_jobs() == 0).then_some(pool);
                let t0 = self.timing.then(Instant::now);
                if let Some(epoch) = self.close_epoch(state, build_pool) {
                    // A graft that has to wait on unfinished builds
                    // helps execute class chunks meanwhile: it is
                    // excluded from the controller's absorb-cost
                    // signal, and the help share it bills to the
                    // overlap timer is the caveat noted on
                    // [`super::RunReport::overlap_time`].
                    let ready = epoch.is_ready();
                    self.absorb_one(epoch, state, tree, Some(pool), ready);
                    progressed = true;
                }
                if let Some(t0) = t0 {
                    state
                        .stats
                        .overlap_nanos
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
            if scope.completed() {
                break;
            }
            if !progressed && !scope.help() {
                // Nothing to absorb, nothing to help with: the chunks
                // are all running on workers. Park briefly; a finishing
                // chunk (or fresh staging) ends the wait.
                scope.wait_timeout(Duration::from_micros(200));
            }
        }
        self.controller.record_window(window_start.elapsed());
    }

    /// Publishes the epoch's per-table Delta-insert counts — one atomic
    /// update per touched table, not one per tuple.
    fn flush_counts(&mut self, state: &RunState) {
        for (ti, count) in self.inserted_by_table.iter_mut().enumerate() {
            if *count > 0 {
                state.stats.tables[ti]
                    .delta_inserts
                    .fetch_add(*count, Ordering::Relaxed);
                *count = 0;
            }
        }
    }
}
