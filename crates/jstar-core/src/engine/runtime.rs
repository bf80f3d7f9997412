//! The shared run-time core: per-table query plans, the state every
//! worker thread sees, and the put → Delta / Gamma → trigger path that
//! both the coordinator and the rule contexts drive.

use crate::delta::ShardedInbox;
use crate::error::JStarError;
use crate::gamma::leapfrog::{self, Root, Stage};
use crate::gamma::{ColumnIndex, Gamma, InsertOutcome};
use crate::orderby::{OrderKey, ResolvedComponent, ResolvedOrderBy};
use crate::program::Program;
use crate::query::Query;
use crate::rule::{JoinPlan, JoinStage, Rule};
use crate::schema::TableId;
use crate::stats::EngineStats;
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::ctx::RuleCtx;

/// Per-table hot-path cache, computed once at engine construction.
///
/// Consolidates everything `put` and `query` would otherwise re-derive per
/// call: the resolved orderby key extractor, the interned key for tables
/// whose ordering is tuple-independent (pure-stratum orderbys — every
/// tuple of the table shares one Delta equivalence class), and the store's
/// index-selection data (`covers_fields` input).
pub struct QueryPlan {
    /// The table's resolved orderby list (the key extractor).
    orderby: ResolvedOrderBy,
    /// Interned order key when the orderby has no tuple-dependent
    /// component; such tables form a single delta class per run.
    const_key: Option<OrderKey>,
    /// Fields the table's Gamma store is hash-indexed on, if any.
    index_fields: Option<Box<[usize]>>,
}

impl QueryPlan {
    pub(super) fn new(
        orderby: &ResolvedOrderBy,
        store: &dyn crate::gamma::TableStore,
    ) -> QueryPlan {
        let tuple_independent = orderby
            .components
            .iter()
            .all(|c| !matches!(c, ResolvedComponent::Seq { .. }));
        let const_key = tuple_independent.then(|| {
            let mut parts = Vec::new();
            for c in &orderby.components {
                match c {
                    ResolvedComponent::Strat { rank, .. } => {
                        parts.push(crate::orderby::KeyPart::Strat(*rank))
                    }
                    ResolvedComponent::Seq { .. } => unreachable!("tuple-independent"),
                    ResolvedComponent::Par { .. } => break,
                }
            }
            OrderKey(parts)
        });
        QueryPlan {
            orderby: orderby.clone(),
            const_key,
            index_fields: store.index_fields().map(|f| f.to_vec().into_boxed_slice()),
        }
    }

    /// The order key of `t` — a clone of the interned key when the table's
    /// ordering is tuple-independent, a fresh extraction otherwise.
    #[inline]
    pub fn key_for(&self, t: &Tuple) -> OrderKey {
        match &self.const_key {
            Some(k) => k.clone(),
            None => self.orderby.key_of(t),
        }
    }

    /// True when `q` binds every indexed field of the table's store with an
    /// equality constraint — the cached index-selection decision.
    #[inline]
    pub fn query_uses_index(&self, q: &Query) -> bool {
        match &self.index_fields {
            Some(fields) => q.covers_fields(fields),
            None => false,
        }
    }
}

/// Shared run-time state, accessible from worker threads.
pub(crate) struct RunState {
    pub(super) program: Arc<Program>,
    pub(super) gamma: Gamma,
    pub(super) inbox: ShardedInbox,
    pub(super) plans: Vec<QueryPlan>,
    pub(super) no_delta: Vec<bool>,
    pub(super) no_gamma: Vec<bool>,
    pub(super) type_check: bool,
    pub(super) enforce_causality: bool,
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
/// event tuples. The trigger key is borrowed; the computed key for `t`
/// moves into the staging shard without further copies.
pub(super) fn put_tuple(state: &RunState, trigger_key: &OrderKey, rule: &str, t: Tuple) {
    let table = t.table();
    let ti = table.index();
    state.stats.tables[ti].puts.fetch_add(1, Ordering::Relaxed);

    if state.type_check {
        if let Err(msg) = state.program.def(table).type_check(t.fields()) {
            state.record_error(JStarError::Type(msg));
            return;
        }
    }

    let key = state.plans[ti].key_for(&t);
    if state.enforce_causality && trigger_key.cmp(&key) == CmpOrdering::Greater {
        state.record_error(JStarError::CausalityViolation {
            rule: rule.to_string(),
            trigger_key: trigger_key.clone(),
            put_key: key,
            tuple: t.to_string(),
        });
        return;
    }

    if state.no_delta[ti] {
        // §5.1: put straight into Gamma and fire triggered rules
        // immediately on this thread.
        process_tuple(state, &key, t);
    } else {
        state.inbox.push(state.staging_shard(), key, t);
    }
}

/// Moves one tuple out of the Delta set: inserts it into Gamma (unless
/// `-noGamma`), and if it is fresh, fires every rule it triggers. `key`
/// is borrowed from the executing class — rule contexts borrow it too,
/// so triggering N rules performs zero key clones.
pub(super) fn process_tuple(state: &RunState, key: &OrderKey, t: Tuple) {
    let table = t.table();
    let ti = table.index();
    let fresh = if state.no_gamma[ti] {
        true
    } else {
        match state.gamma.insert(t.clone()) {
            InsertOutcome::Fresh => {
                state.stats.tables[ti]
                    .gamma_fresh
                    .fetch_add(1, Ordering::Relaxed);
                true
            }
            InsertOutcome::Duplicate => {
                // Set-oriented semantics: duplicates neither re-trigger
                // rules nor re-enter Gamma (§6.2's SumMonth dedup).
                state.stats.tables[ti]
                    .gamma_dups
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
            InsertOutcome::KeyConflict => {
                state.record_error(JStarError::KeyViolation {
                    table: state.program.def(table).name.clone(),
                    detail: format!("insert of {t} violates the -> key invariant"),
                });
                false
            }
        }
    };
    if !fresh {
        return;
    }
    state.stats.tables[ti].triggers.fetch_add(
        state.program.rules_by_trigger()[ti].len() as u64,
        Ordering::Relaxed,
    );
    fire_rules(state, key, &t);
}

/// Fires every rule triggered by `t` (which must be fresh). Contexts
/// borrow the class key — zero copies per trigger.
pub(super) fn fire_rules(state: &RunState, key: &OrderKey, t: &Tuple) {
    let ti = t.table().index();
    for &ri in &state.program.rules_by_trigger()[ti] {
        let rule = &state.program.rules()[ri];
        let ctx = RuleCtx::new(state, key, &rule.name);
        (rule.body)(&ctx, t);
    }
}

/// Executes one chunk of an equivalence class on a worker.
///
/// Uniform-table chunks (the overwhelmingly common case — a class is one
/// key, and most keys belong to one table) take the batch path: a single
/// [`Gamma::insert_batch`] call amortises store locking, statistics are
/// published once per chunk, and rules fire afterwards for the fresh
/// tuples. Mixed-table chunks fall back to the per-tuple path.
pub(super) fn process_class_chunk(state: &RunState, key: &OrderKey, chunk: &[Tuple]) {
    let table = chunk[0].table();
    let ti = table.index();
    let uniform =
        chunk.len() > 1 && !state.no_gamma[ti] && chunk.iter().all(|t| t.table() == table);
    if !uniform {
        for t in chunk {
            process_tuple(state, key, t.clone());
        }
        return;
    }

    let mut outcomes = Vec::with_capacity(chunk.len());
    state.gamma.insert_batch(table, chunk, &mut outcomes);
    let (mut fresh, mut dups) = (0u64, 0u64);
    for (t, outcome) in chunk.iter().zip(&outcomes) {
        match outcome {
            InsertOutcome::Fresh => fresh += 1,
            InsertOutcome::Duplicate => dups += 1,
            InsertOutcome::KeyConflict => {
                state.record_error(JStarError::KeyViolation {
                    table: state.program.def(table).name.clone(),
                    detail: format!("insert of {t} violates the -> key invariant"),
                });
            }
        }
    }
    let stats = &state.stats.tables[ti];
    if fresh > 0 {
        stats.gamma_fresh.fetch_add(fresh, Ordering::Relaxed);
        stats.triggers.fetch_add(
            fresh * state.program.rules_by_trigger()[ti].len() as u64,
            Ordering::Relaxed,
        );
    }
    if dups > 0 {
        stats.gamma_dups.fetch_add(dups, Ordering::Relaxed);
    }
    for (t, outcome) in chunk.iter().zip(&outcomes) {
        if matches!(outcome, InsertOutcome::Fresh) {
            fire_rules(state, key, t);
        }
    }
}

/// Executes a whole extracted class in **delta-join** mode — semi-naive
/// evaluation with the class as the delta.
///
/// Phase A inserts the class into Gamma in one batch and keeps the fresh
/// tuples (in class order). Phase B runs each triggered rule over the
/// fresh set: rules carrying a [`JoinPlan`] are executed as one batched
/// join — the fresh tuples are sorted by their join-key values and
/// walked against one Gamma column cursor per stage instead of probing
/// once per tuple, with the sorted delta fanned out across pool
/// workers — while opaque rules (and
/// plans with a keyless stage) fall back to per-tuple firing over the
/// same fresh set.
///
/// This is a valid serialization of the per-tuple schedule: parallel
/// per-tuple execution already inserts each chunk before firing its
/// rules and interleaves chunks arbitrarily, so intra-class visibility
/// is unspecified in both modes, and set semantics plus the Law of
/// Causality make the emitted tuple set identical (prop-tested
/// bit-identical downstream schedules).
pub(super) fn process_class_delta_join(
    state: &RunState,
    key: &OrderKey,
    class: &[Tuple],
    pool: Option<&ThreadPool>,
) {
    let table = class[0].table();
    let ti = table.index();
    let rules_here = &state.program.rules_by_trigger()[ti];

    // ── Phase A: whole-class Gamma insert, fresh tuples kept in class
    // order (the deterministic build side of the join).
    let mut fresh: Vec<&Tuple> = Vec::with_capacity(class.len());
    if state.no_gamma[ti] {
        fresh.extend(class.iter());
    } else {
        let mut outcomes = Vec::with_capacity(class.len());
        state.gamma.insert_batch(table, class, &mut outcomes);
        let (mut nf, mut nd) = (0u64, 0u64);
        for (t, outcome) in class.iter().zip(&outcomes) {
            match outcome {
                InsertOutcome::Fresh => {
                    nf += 1;
                    fresh.push(t);
                }
                InsertOutcome::Duplicate => nd += 1,
                InsertOutcome::KeyConflict => {
                    state.record_error(JStarError::KeyViolation {
                        table: state.program.def(table).name.clone(),
                        detail: format!("insert of {t} violates the -> key invariant"),
                    });
                }
            }
        }
        let stats = &state.stats.tables[ti];
        if nf > 0 {
            stats.gamma_fresh.fetch_add(nf, Ordering::Relaxed);
        }
        if nd > 0 {
            stats.gamma_dups.fetch_add(nd, Ordering::Relaxed);
        }
    }
    if fresh.is_empty() {
        return;
    }
    state.stats.tables[ti].triggers.fetch_add(
        fresh.len() as u64 * rules_here.len() as u64,
        Ordering::Relaxed,
    );

    // ── Phase B: each triggered rule over the fresh set, in rule order.
    for &ri in rules_here {
        let rule = &state.program.rules()[ri];
        match &rule.plan {
            // A keyless stage is a cross join — nothing for a cursor to
            // seek on — so such a plan fires through its synthesised
            // per-tuple body like an opaque rule.
            Some(plan) if plan.stages.iter().all(|s| !s.keys.is_empty()) => {
                run_join_rule(state, key, rule, plan, &fresh, pool)
            }
            _ => {
                // Opaque body: per-tuple firing is its only defined
                // execution (same context reuse as `fire_rules`).
                let ctx = RuleCtx::new(state, key, &rule.name);
                for t in &fresh {
                    (rule.body)(&ctx, t);
                }
            }
        }
    }
}

/// Opens one column view per `(table, field)`, each counted as a query
/// against its table (so `gamma_probes` stays honest) and as a cursor
/// open. The one way a join walk — rule-side or read-side — reaches
/// Gamma.
pub(super) fn open_views(
    state: &RunState,
    columns: impl Iterator<Item = (TableId, usize)>,
) -> Vec<Arc<ColumnIndex>> {
    columns
        .map(|(table, field)| {
            let stats = &state.stats;
            stats.tables[table.index()]
                .queries
                .fetch_add(1, Ordering::Relaxed);
            stats.join_cursor_opens.fetch_add(1, Ordering::Relaxed);
            state.gamma.open_cursor(table, field)
        })
        .collect()
}

/// The walk stages of `stages` over their opened `views`.
pub(super) fn walk_stages<'a>(
    stages: &'a [JoinStage],
    views: &'a [Arc<ColumnIndex>],
) -> Vec<Stage<'a>> {
    (stages.iter().zip(views))
        .map(|(s, view)| Stage::new(view, &s.keys))
        .collect()
}

/// One join-plan rule over a class's fresh tuples, every stage keyed.
///
/// The delta is sorted by its stage-0 join-key fields (stably, so equal
/// keys stay in class order) and becomes the root of one
/// [`leapfrog`] walk: one column view is opened per stage (one store
/// pass each, or a cache hit; shared by every worker with private
/// positions), stage 0's cursor follows the sorted delta with seek/next
/// motions and later stages seek per row. Store work per class is
/// `stages` cursor opens plus the counted gallops, instead of one probe
/// per tuple; with a pool the sorted delta is split across workers.
fn run_join_rule(
    state: &RunState,
    key: &OrderKey,
    rule: &Rule,
    plan: &JoinPlan,
    fresh: &[&Tuple],
    pool: Option<&ThreadPool>,
) {
    state
        .stats
        .delta_join_build_tuples
        .fetch_add(fresh.len() as u64, Ordering::Relaxed);

    let by = &plan.first_stage().keys;
    let mut delta = fresh.to_vec();
    delta.sort_by(|x, y| {
        (by.iter().map(|&((_, f), _)| x.get(f).cmp(y.get(f))))
            .find(|o| o.is_ne())
            .unwrap_or(CmpOrdering::Equal)
    });

    let views = open_views(state, plan.stages.iter().map(JoinStage::column));
    let ctx = RuleCtx::new(state, key, &rule.name);
    let (_, seeks) = leapfrog::fan_out(
        &Root::Sorted(&delta),
        &walk_stages(&plan.stages, &views),
        pool,
        || (),
        |(), rows| {
            if (plan.filter)(rows) {
                (plan.emit)(&ctx, rows);
            }
        },
    );
    if seeks > 0 {
        state.stats.join_seeks.fetch_add(seeks, Ordering::Relaxed);
    }
}
