//! The shared run-time core: per-table query plans, the state every
//! worker thread sees, and the put → Delta / Gamma → trigger path that
//! both the coordinator and the rule contexts drive.
//!
//! Tuples enter Gamma through **one** function, [`insert_and_fire`]: a
//! slice is cut into uniform-table runs, each run is one
//! [`Gamma::insert_batch`] with its counters added once, and the run's
//! fresh tuples then fire its opaque rules one tuple at a time and its
//! join rules as one walk each. An extracted class, or a chunk of one,
//! arrives there directly. A `-noDelta` put arrives there *staged*:
//! [`put_tuple`] appends it to the calling worker's [`StagingSlot`], and
//! the slot is flushed ([`flush_staged`]) when it holds [`FLUSH_AT`]
//! tuples, before the putting thread's next query (a rule sees its own
//! puts), when the firings that filled it return, and — for puts made on
//! helper threads inside `par_for_each_match` — by the coordinator once
//! the class has joined ([`drain_staged`]): nothing staged survives into
//! the next step. Rules fired by a flush put into the slot it just
//! emptied and the flush loops, so a `-noDelta` cascade costs no stack.
//! What is deferred is only when *other* threads see the put, and
//! intra-class visibility across threads was never specified.
//!
//! What a put costs in memory: a typed put builds its row straight from
//! the struct ([`crate::relation::Relation::into_tuple`] — one allocation,
//! see [`crate::tuple`]), its order key is a plain value computed in place
//! ([`QueryPlan::key_for`], [`crate::orderby`]), and a flush's outcome
//! buffer lives in the staging slot between flushes — so the put that
//! Fig. 5 makes per finalised vertex, flushed alone because the rule
//! queries right after it, allocates the row and nothing else.

use crate::delta::ShardedInbox;
use crate::error::JStarError;
use crate::gamma::leapfrog::{self, Stage};
use crate::gamma::{self, ColumnIndex, Gamma, InsertOutcome};
use crate::orderby::{KeyPart, OrderKey, ResolvedComponent, ResolvedOrderBy};
use crate::program::Program;
use crate::rule::{JoinPlan, JoinStage, Rule, RuleKind};
use crate::schema::TableId;
use crate::stats::EngineStats;
use crate::tuple::Tuple;
use jstar_check::sync::{AtomicBool, AtomicUsize, Mutex, Ordering};
use jstar_pool::ThreadPool;
use std::borrow::Cow;
use std::cmp::Ordering as CmpOrdering;
use std::sync::Arc;

use super::ctx::RuleCtx;

/// Per-table hot-path cache, computed once at engine construction.
///
/// Consolidates what `put` would otherwise re-derive per call: the
/// resolved orderby key extractor and the interned key for tables whose
/// ordering is tuple-independent (pure-stratum orderbys — every tuple of
/// the table shares one Delta equivalence class).
pub struct QueryPlan {
    /// The table's resolved orderby list (the key extractor).
    orderby: ResolvedOrderBy,
    /// Interned order key when the orderby has no tuple-dependent
    /// component; such tables form a single delta class per run.
    const_key: Option<OrderKey>,
}

impl QueryPlan {
    pub(super) fn new(orderby: &ResolvedOrderBy) -> QueryPlan {
        let tuple_independent = orderby
            .components
            .iter()
            .all(|c| !matches!(c, ResolvedComponent::Seq { .. }));
        let const_key = tuple_independent.then(|| {
            let strata = orderby.components.iter().map_while(|c| match c {
                ResolvedComponent::Strat { rank, .. } => Some(KeyPart::Strat(*rank)),
                ResolvedComponent::Seq { .. } => unreachable!("tuple-independent"),
                ResolvedComponent::Par { .. } => None,
            });
            OrderKey::from_parts(strata)
        });
        QueryPlan {
            orderby: orderby.clone(),
            const_key,
        }
    }

    /// The table's interned order key, when its ordering is
    /// tuple-independent.
    pub(super) fn const_key(&self) -> Option<&OrderKey> {
        self.const_key.as_ref()
    }

    /// The shape of the table's order keys — each stratum's rank, `None`
    /// for a `seq` field — up to the first `par`. Tuples of two tables
    /// can share a class only when the tables' shapes are equal.
    pub(super) fn key_shape(&self) -> Vec<Option<u32>> {
        let part = |c: &ResolvedComponent| match c {
            ResolvedComponent::Strat { rank, .. } => Some(Some(*rank)),
            ResolvedComponent::Seq { .. } => Some(None),
            ResolvedComponent::Par { .. } => None,
        };
        self.orderby.components.iter().map_while(part).collect()
    }

    /// The order key of `t` — the interned key, borrowed, when the
    /// table's ordering is tuple-independent; a fresh extraction otherwise.
    #[inline]
    pub fn key_for(&self, t: &Tuple) -> Cow<'_, OrderKey> {
        match &self.const_key {
            Some(k) => Cow::Borrowed(k),
            None => Cow::Owned(self.orderby.key_of(t)),
        }
    }
}

/// Staged `-noDelta` puts are flushed once a slot holds this many: enough
/// to amortise the batch insert's shared writes, few enough to stay cached.
const FLUSH_AT: usize = 256;

/// One staging shard's `-noDelta` puts awaiting their batch insert — the
/// [`ShardedInbox`] shard layout, reused: padded to its own cache lines
/// and written by one worker (the last slot by every non-pool thread), so
/// the lock is uncontended.
#[derive(Default)]
#[repr(align(128))]
pub(super) struct StagingSlot {
    staged: Mutex<Staged>,
    /// How many tuples `staged` holds, written under its lock: what a
    /// flush of an empty slot — every query a rule makes — reads instead
    /// of taking the lock.
    len: AtomicUsize,
}

#[derive(Default)]
struct Staged {
    tuples: Vec<Tuple>,
    /// The outcome buffer the slot's flushes hand to [`insert_and_fire`]:
    /// kept here between flushes, so a flush of one `Done` tuple (every
    /// `dijkstra` firing makes one) allocates nothing.
    outcomes: Vec<InsertOutcome>,
    /// Flushes of this slot in progress: puts made by the rules a flush
    /// fires are picked up by its loop instead of starting a nested one.
    flushes: usize,
}

/// Shared run-time state, accessible from worker threads.
pub(crate) struct RunState {
    pub(super) program: Arc<Program>,
    pub(super) gamma: Gamma,
    pub(super) inbox: ShardedInbox,
    /// One slot per inbox shard, indexed by [`RunState::staging_shard`].
    pub(super) staged: Vec<StagingSlot>,
    pub(super) plans: Vec<QueryPlan>,
    pub(super) no_delta: Vec<bool>,
    pub(super) no_gamma: Vec<bool>,
    /// Which tables a rule may read: every table but a write-once one
    /// (see [`crate::gamma::WriteOnceStore`]) the run has not closed.
    pub(super) readable: Vec<AtomicBool>,
    pub(super) output: Mutex<Vec<String>>,
    pub(super) errors: Mutex<Vec<JStarError>>,
    pub(super) stats: EngineStats,
    pub(super) pool: Option<Arc<ThreadPool>>,
}

impl RunState {
    pub(super) fn record_error(&self, e: JStarError) {
        self.errors.lock().push(e);
    }

    pub(super) fn has_errors(&self) -> bool {
        !self.errors.lock().is_empty()
    }

    /// True when `table` may be read by a rule; records
    /// [`JStarError::ReadBeforeClose`] for `rule` otherwise.
    pub(super) fn check_readable(&self, table: TableId, rule: &str) -> bool {
        // ord: Relaxed — set at the step boundary before the class that
        // may read it is executed, and the scope's spawn orders that set
        // before every worker's read.
        let readable = self.readable[table.index()].load(Ordering::Relaxed);
        if !readable {
            self.record_error(JStarError::ReadBeforeClose {
                rule: rule.to_string(),
                table: self.program.def(table).name.clone(),
            });
        }
        readable
    }

    /// The staging shard for the calling thread: the worker's stable index
    /// on pool threads, the external shard everywhere else.
    #[inline]
    pub(super) fn staging_shard(&self) -> usize {
        self.pool
            .as_ref()
            .and_then(|p| p.current_worker_index())
            .unwrap_or_else(|| self.inbox.external_shard())
    }
}

/// Core put path, shared by `RuleCtx::put`, initial puts and injected
/// event tuples. Type and causality are checked here, at the put, so an
/// error names the putting rule; the key is cloned only if the tuple is
/// actually staged for the Delta set.
pub(super) fn put_tuple(state: &RunState, trigger_key: &OrderKey, rule: &str, t: Tuple) {
    let ti = t.table().index();
    let shard = state.staging_shard();
    let puts = &state.stats.tables[ti].stripe(shard).puts;
    puts.fetch_add(1, Ordering::Relaxed); // ord: statistic, own stripe

    if let Err(msg) = state.program.def(t.table()).type_check(t.fields()) {
        state.record_error(JStarError::Type(msg));
        return;
    }

    let key = state.plans[ti].key_for(&t);
    if trigger_key.cmp(&key) == CmpOrdering::Greater {
        state.record_error(JStarError::CausalityViolation {
            rule: rule.to_string(),
            trigger_key: Box::new(trigger_key.clone()),
            put_key: Box::new(key.into_owned()),
            tuple: t.to_string(),
        });
        return;
    }

    if state.no_delta[ti] {
        // §5.1: straight to Gamma, a batch at a time (module docs).
        let full = {
            let slot = &state.staged[shard];
            let mut staged = slot.staged.lock();
            staged.tuples.push(t);
            // ord: Relaxed — written under the slot's lock; see `flush_staged`.
            slot.len.store(staged.tuples.len(), Ordering::Relaxed);
            staged.tuples.len() >= FLUSH_AT
        };
        if full {
            flush_staged(state, shard, false);
        }
    } else {
        state.inbox.push(shard, key, t);
    }
}

/// Flushes staging slot `shard` until it is empty, including what the
/// rules fired here stage meanwhile. Returns false when there was nothing
/// to do: the slot was empty, or a flush of it is already running (up
/// this stack, or on another thread sharing the external slot) and will
/// take what is there. `nest` flushes even then — [`RuleCtx`] asks before
/// it reads — so only a cascade that queries between puts recurses.
pub(super) fn flush_staged(state: &RunState, shard: usize, nest: bool) -> bool {
    let StagingSlot { staged: slot, len } = &state.staged[shard];
    // ord: Relaxed — a put that happens before this flush (the caller's
    // own, in program order, or a helper's, ordered by the scope join
    // before `drain_staged`) set the count first, and coherence forbids
    // reading the older 0 after it. A put racing this flush from another
    // thread is not ordered with it either way, as with the lock: its
    // thread flushes it, or the coordinator does after the step.
    if len.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mut outcomes = {
        let mut slot = slot.lock();
        if slot.tuples.is_empty() || (slot.flushes > 0 && !nest) {
            return false;
        }
        slot.flushes += 1;
        // A nested flush finds the buffer taken and works with a fresh one.
        std::mem::take(&mut slot.outcomes)
    };
    let mut batch = Vec::new();
    loop {
        {
            let mut slot = slot.lock();
            // The slot gets the spent buffer back, capacity intact.
            std::mem::swap(&mut slot.tuples, &mut batch);
            // ord: Relaxed — written under the slot's lock.
            len.store(0, Ordering::Relaxed);
            if batch.is_empty() {
                slot.flushes -= 1;
                slot.outcomes = outcomes;
                return true;
            }
        }
        // Each tuple's own key is its rules' trigger key (`None`).
        insert_and_fire(state, None, &batch, &mut outcomes, None);
        batch.clear();
    }
}

/// The coordinator's step-boundary flush: every slot, until a whole pass
/// finds them all empty (rules fired here put into the external slot).
pub(super) fn drain_staged(state: &RunState) {
    let pass = |any, shard| flush_staged(state, shard, false) | any;
    while (0..state.staged.len()).fold(false, pass) {}
}

/// Inserts a uniform-table run into Gamma as one batch (nothing to insert
/// for a `-noGamma` table: every tuple counts as fresh), records `->`
/// violations, and adds the run's counters once. `outcomes` is left
/// holding one outcome per tuple; returns how many were fresh.
fn insert_run(
    state: &RunState,
    shard: usize,
    run: &[Tuple],
    outcomes: &mut Vec<InsertOutcome>,
) -> u64 {
    let table = run[0].table();
    let ti = table.index();
    let stored = !state.no_gamma[ti];
    outcomes.clear();
    // A write-once table takes the run as one append to this shard's
    // run: every tuple counts as fresh until its seal says otherwise.
    if stored && !state.gamma.append(table, shard, run) {
        state.gamma.insert_batch(table, run, outcomes);
    } else {
        outcomes.resize(run.len(), InsertOutcome::Fresh);
    }
    let (mut fresh, mut dups) = (0u64, 0u64);
    for (t, outcome) in run.iter().zip(outcomes.iter()) {
        match outcome {
            InsertOutcome::Fresh => fresh += 1,
            // Set-oriented semantics: duplicates neither re-trigger
            // rules nor re-enter Gamma (§6.2's SumMonth dedup).
            InsertOutcome::Duplicate => dups += 1,
            InsertOutcome::KeyConflict => state.record_error(JStarError::KeyViolation {
                table: state.program.def(table).name.clone(),
                detail: format!("insert of {t} violates the -> key invariant"),
            }),
        }
    }
    // ord: Relaxed ×3 — statistics counters in the caller's own stripe.
    let stripe = state.stats.tables[ti].stripe(shard);
    if fresh > 0 {
        if stored {
            stripe.gamma_fresh.fetch_add(fresh, Ordering::Relaxed);
        }
        let rules = state.program.rules_by_trigger()[ti].len() as u64;
        stripe.triggers.fetch_add(fresh * rules, Ordering::Relaxed);
    }
    if dups > 0 {
        stripe.gamma_dups.fetch_add(dups, Ordering::Relaxed);
    }
    fresh
}

/// Moves `tuples` out of the Delta set (a class or a chunk of one, `key`
/// its class key) or out of a staging slot (`key` is `None`: each
/// tuple's own key) into Gamma, and fires every rule the fresh ones
/// trigger. Mixed-table slices are cut into uniform runs, each inserted
/// as one batch before its rules fire: opaque rules once per fresh
/// tuple, in order — what a tuple's firings staged is flushed as they
/// return, so the sequential engine's schedule is what it was when a
/// `-noDelta` put inserted at once — then each join rule as one walk
/// rooted at the run's fresh tuples ([`walk_join`]), its root rows
/// fanned over `pool` when the coordinator runs the class and passes
/// one. Rule contexts borrow the key — zero copies per trigger.
/// `outcomes` is scratch: the caller's to keep between calls,
/// overwritten by every run.
pub(super) fn insert_and_fire(
    state: &RunState,
    key: Option<&OrderKey>,
    tuples: &[Tuple],
    outcomes: &mut Vec<InsertOutcome>,
    pool: Option<&ThreadPool>,
) {
    let shard = state.staging_shard();
    let program = &state.program;
    for run in tuples.chunk_by(|a, b| a.table() == b.table()) {
        let ti = run[0].table().index();
        let ids = &program.rules_by_trigger()[ti];
        if insert_run(state, shard, run, outcomes) == 0 || ids.is_empty() {
            continue;
        }
        let rules = || ids.iter().map(|&ri| &*program.rules()[ri]);
        let fresh = || {
            let fresh = |(_, o): &(&Tuple, &InsertOutcome)| **o == InsertOutcome::Fresh;
            run.iter()
                .zip(outcomes.iter())
                .filter(fresh)
                .map(|(t, _)| t)
        };
        if rules().any(|rule| rule.plan().is_none()) {
            for t in fresh() {
                let key = key.map_or_else(|| state.plans[ti].key_for(t), Cow::Borrowed);
                for rule in rules() {
                    if let RuleKind::Body(body) = &rule.kind {
                        body(&RuleCtx::new(state, &key, &rule.name), t);
                    }
                }
                flush_staged(state, shard, false);
            }
        }
        if rules().any(|rule| rule.plan().is_some()) {
            let fresh: Vec<&Tuple> = fresh().collect();
            for rule in rules() {
                if let RuleKind::Join(plan) = &rule.kind {
                    walk_join(state, key, rule, plan, &fresh, pool);
                }
            }
            // ord: Relaxed — statistic only.
            let stats = &state.stats;
            stats.delta_join_classes.fetch_add(1, Ordering::Relaxed);
            flush_staged(state, shard, false);
        }
    }
}

/// Seals the write-once stores of `tables` that hold rows no seal has
/// taken, one after another, each on `pool` — at a quiescent point: the
/// step boundary before a class is executed, a checkpoint, the end of a
/// run. What the seals found is accounted as the batch insert would have:
/// repeats move from `gamma_fresh` to `gamma_dups`, and each `->`
/// conflict leaves `gamma_fresh` and is recorded as a
/// [`JStarError::KeyViolation`].
pub(super) fn seal(state: &RunState, tables: &[TableId], pool: Option<&ThreadPool>) {
    for (table, report) in state.gamma.seal(tables, pool) {
        let rejected = report.rejected() as u64;
        if rejected > 0 {
            state.stats.tables[table.index()].unfresh(rejected, report.dups);
        }
        for t in report.conflicts {
            state.record_error(JStarError::KeyViolation {
                table: state.program.def(table).name.clone(),
                detail: format!("insert of {t} violates the -> key invariant"),
            });
        }
    }
}

/// Opens one column view per `(table, field)`, each counted as a query
/// against its table (so `gamma_probes` stays honest) and as a cursor
/// open; the views an open must build are built one after another,
/// each on `pool` ([`Gamma::open_views`]). The one way a join walk —
/// rule-side or read-side — reaches Gamma's stores.
pub(super) fn open_views(
    state: &RunState,
    columns: &[(TableId, usize)],
    pool: Option<&ThreadPool>,
) -> Vec<Arc<ColumnIndex>> {
    for &(table, _) in columns {
        let stripe = state.stats.tables[table.index()].stripe(state.staging_shard());
        // ord: Relaxed ×2 — statistics only, read after the run.
        stripe.queries.fetch_add(1, Ordering::Relaxed);
        let stats = &state.stats;
        stats.join_cursor_opens.fetch_add(1, Ordering::Relaxed);
    }
    state.gamma.open_views(columns, pool)
}

/// The walk stages of `stages` over their opened `views`.
pub(super) fn walk_stages<'a>(
    stages: &'a [JoinStage],
    views: &'a [Arc<ColumnIndex>],
) -> Vec<Stage<'a>> {
    (stages.iter().zip(views))
        .map(|(s, view)| Stage::new(view, &s.keys, &s.less))
        .collect()
}

/// One join rule over a run's fresh tuples — semi-naive evaluation
/// with the run as the delta.
///
/// The delta is cut into a view of its own on the trigger field stage 0
/// seeks by ([`gamma::rows_view`], the builder every Gamma view comes
/// from, so its groups are ordered by their next column with run order
/// breaking ties), never cached, and becomes
/// the root of one [`leapfrog`] walk, which drops the tuples failing
/// the plan's root checks: one column view is opened per stage (one
/// store pass each, or a cache hit; shared by every worker with private
/// positions), the root's groups leapfrog against stage 0's and later
/// stages seek per row, each stage dropping the candidates that fail
/// its inequalities before the next one seeks. Store work per run is
/// `stages` cursor opens plus the counted gallops, instead of one probe
/// per tuple. With a pool, the root view and then each stage view the
/// cache must build are built on it, one after another, and the root's
/// rows are then split across workers.
/// Each emission's context carries `key`, or — for a run flushed from
/// a staging slot — its trigger tuple's own key.
///
/// This is a valid serialization of the per-tuple schedule: the run is
/// inserted before any rule fires, intra-class visibility is
/// unspecified, and set semantics plus the Law of Causality make the
/// emitted tuple set that of a nested loop firing per tuple
/// (prop-tested against hand-written nested-loop twins).
fn walk_join(
    state: &RunState,
    key: Option<&OrderKey>,
    rule: &Rule,
    plan: &JoinPlan,
    fresh: &[&Tuple],
    pool: Option<&ThreadPool>,
) {
    let ((_, by), _) = plan.first_stage().keys[0];
    let columns: Vec<(TableId, usize)> = plan.stages.iter().map(JoinStage::column).collect();
    if !(columns.iter()).all(|&(table, _)| state.check_readable(table, &rule.name)) {
        return;
    }
    let root = gamma::rows_view(fresh, by, pool);
    let views = open_views(state, &columns, pool);
    let plans = &state.plans[rule.trigger.index()];
    let (_, seeks) = leapfrog::fan_out(
        &root,
        &plan.root_less,
        &walk_stages(&plan.stages, &views),
        pool,
        || (),
        |(), rows| {
            let key = key.map_or_else(|| plans.key_for(rows[0]), Cow::Borrowed);
            (plan.emit)(&RuleCtx::new(state, &key, &rule.name), rows)
        },
    );
    if seeks > 0 {
        // ord: Relaxed — statistic only.
        state.stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
    }
}
