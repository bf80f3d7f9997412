//! The context a rule body receives: its window onto the database.

use crate::error::JStarError;
use crate::orderby::OrderKey;
use crate::query::{Probe, Query};
use crate::reduce::Reducer;
use crate::relation::{Field, IntoProbe, Relation, TableHandle};
use crate::schema::TableId;
use crate::tuple::Tuple;
use jstar_check::sync::Ordering;
use jstar_pool::ThreadPool;
use std::sync::Arc;

use super::runtime::{flush_staged, put_tuple, RunState};

/// The context a rule body receives: its window onto the database.
///
/// All queries see only tuples already moved into Gamma — i.e. tuples that
/// are causally at-or-before the trigger — which is exactly why negative
/// and aggregate query results are stable (§4).
pub struct RuleCtx<'a> {
    state: &'a RunState,
    /// Borrowed from the executing equivalence class — constructing a
    /// context per triggered rule copies nothing.
    trigger_key: &'a OrderKey,
    rule: &'a str,
}

impl<'a> RuleCtx<'a> {
    pub(super) fn new(state: &'a RunState, trigger_key: &'a OrderKey, rule: &'a str) -> Self {
        RuleCtx {
            state,
            trigger_key,
            rule,
        }
    }

    /// The causal position of the trigger tuple.
    pub fn trigger_key(&self) -> &OrderKey {
        self.trigger_key
    }

    /// The name of the executing rule (diagnostics).
    pub fn rule_name(&self) -> &str {
        self.rule
    }

    /// Looks up a table id by name.
    pub fn table(&self, name: &str) -> TableId {
        self.state
            .program
            .table_id(name)
            .unwrap_or_else(|| panic!("unknown table {name}"))
    }

    /// Puts a new tuple into the database (§3). The tuple is placed in the
    /// Delta set, or sent straight to Gamma for `-noDelta` tables. The Law
    /// of Causality is enforced here, at the put: the tuple's order key
    /// must not precede the trigger's.
    ///
    /// A `-noDelta` put is staged on the calling thread and inserted (and
    /// its rules fired) in a batch: it is visible to this thread's own
    /// next query, to every thread no later than the end of the firing
    /// that put it, and — when put from a helper thread inside
    /// [`RuleCtx::par_for_each_match`] — before the next step begins.
    pub fn put(&self, t: Tuple) {
        put_tuple(self.state, self.trigger_key, self.rule, t);
    }

    /// Collects all Gamma tuples matching `q` (a positive query).
    pub fn query(&self, q: &Query) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.scan(q.probe(), &mut |t| {
            out.push(t.clone());
            true
        });
        out
    }

    /// True if some tuple matches (positive existence).
    pub fn exists(&self, q: &Query) -> bool {
        self.any(q.probe())
    }

    /// Negative query: true if *no* tuple matches — the paper's
    /// `get uniq? T(...) == null` pattern. Sound only when the queried
    /// region is causally before the trigger, which static checking
    /// verifies (§4).
    pub fn none(&self, q: &Query) -> bool {
        !self.exists(q)
    }

    /// Aggregate query: folds every match through `reducer`.
    pub fn reduce<R: Reducer>(&self, q: &Query, reducer: &R) -> R::Acc {
        self.fold(q.probe(), reducer)
    }

    /// `get min T(...)` over an integer field (§4's example rule uses
    /// `get min Tuple1(queryArgs)`).
    pub fn min_int(&self, q: &Query, field: usize) -> Option<i64> {
        self.reduce(q, &crate::reduce::MinIntReducer { field })
    }

    /// `get max T(...)` over an integer field.
    pub fn max_int(&self, q: &Query, field: usize) -> Option<i64> {
        self.reduce(q, &crate::reduce::MaxIntReducer { field })
    }

    /// Counts matching tuples.
    pub fn count(&self, q: &Query) -> u64 {
        self.reduce(q, &crate::reduce::CountReducer)
    }

    /// §5.2 "additional parallelism": runs `f` over every match of `q` in
    /// parallel on the engine pool. Sound because JStar rule loops "that
    /// do not use a reducer object \[are\] known to have independent loop
    /// bodies" — the language has no mutable variables. Falls back to
    /// sequential iteration in `-sequential` mode.
    pub fn par_for_each_match(&self, q: &Query, f: impl Fn(&Tuple) + Send + Sync) {
        let matches = self.query(q);
        match &self.state.pool {
            Some(pool) if matches.len() > 1 => {
                let f = &f;
                let chunk = jstar_pool::adaptive_chunk(pool, matches.len());
                let tasks: Vec<_> = matches
                    .chunks(chunk)
                    .map(|piece| move || piece.iter().for_each(f))
                    .collect();
                jstar_pool::parallel_tasks(pool, tasks);
            }
            _ => {
                for t in &matches {
                    f(t);
                }
            }
        }
    }

    /// §5.2 "additional parallelism": aggregate query evaluated with a
    /// parallel tree reduction ("loops that do involve a reducer object
    /// could also be executed in parallel, with a tree-based pass to
    /// combine the final reducer results").
    pub fn reduce_parallel<R: Reducer>(&self, q: &Query, reducer: &R) -> R::Acc {
        if !self.check_reducer_field(q.table, reducer) {
            return reducer.identity();
        }
        match &self.state.pool {
            Some(pool) => {
                let matches = self.query(q);
                crate::reduce::reduce_par(pool, reducer, &matches)
            }
            None => self.reduce(q, reducer),
        }
    }

    /// Emits one line of program output. Output is collected per run; the
    /// paper notes tuple/output *order* is not part of the deterministic
    /// semantics, so tests compare output as multisets.
    pub fn println(&self, msg: impl Into<String>) {
        self.state.output.lock().push(msg.into());
    }

    /// Direct access to a table's Gamma store — the analog of the paper's
    /// `unsafe` code blocks used to implement system rules and custom
    /// native-array stores (Median's `double[2][N]`, MatrixMult's 2-D
    /// arrays). Downcast with [`crate::gamma::TableStore::as_any`].
    pub fn store(&self, table: TableId) -> &Arc<dyn crate::gamma::TableStore> {
        // As for queries: this thread's staged `-noDelta` puts first.
        flush_staged(self.state, self.state.staging_shard(), true);
        self.state.gamma.store(table)
    }

    /// The fork/join pool, when running in parallel mode — lets rule bodies
    /// parallelise their independent internal loops (§5.2 notes JStar loops
    /// are data-parallel because variables are immutable).
    pub fn pool(&self) -> Option<&Arc<ThreadPool>> {
        self.state.pool.as_ref()
    }

    /// Records an application-level error, aborting the run.
    pub fn fail(&self, msg: impl Into<String>) {
        self.state.record_error(JStarError::Other(msg.into()));
    }

    /// Every read's one path to Gamma: validates the probe's field
    /// indexes against the table schema, counts it, and streams its
    /// matches into `f`. A field the table does not have records the
    /// error (failing the run) and matches nothing instead of panicking
    /// in a store.
    pub(crate) fn scan(&self, p: Probe<'_>, f: &mut dyn FnMut(&Tuple) -> bool) {
        let table = p.table();
        if let Err(e) = p.query().validate(self.state.program.def(table)) {
            self.state.record_error(e);
            return;
        }
        if !self.state.check_readable(table, self.rule) {
            return;
        }
        let shard = self.state.staging_shard();
        // A rule sees its own `-noDelta` puts: apply what this thread has
        // staged before reading.
        flush_staged(self.state, shard, true);
        // ord: Relaxed — a statistics counter in the caller's own stripe.
        let stats = self.state.stats.tables[table.index()].stripe(shard);
        stats.queries.fetch_add(1, Ordering::Relaxed);
        self.state.gamma.store(table).query(p, f);
    }

    /// True if the probe has a match.
    fn any(&self, p: Probe<'_>) -> bool {
        let mut found = false;
        self.scan(p, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Folds the probe's matches through `reducer`.
    fn fold<R: Reducer>(&self, p: Probe<'_>, reducer: &R) -> R::Acc {
        let mut acc = reducer.identity();
        if self.check_reducer_field(p.table(), reducer) {
            self.scan(p, &mut |t| {
                reducer.accept(&mut acc, t);
                true
            });
        }
        acc
    }

    /// Validates a reducer's input field against the queried table's
    /// arity — the aggregate counterpart of the query-constraint check
    /// in [`RuleCtx::scan`]. Records [`JStarError::NoSuchField`] and
    /// returns false when out of bounds, so the fold never reaches a
    /// store with a bad index.
    fn check_reducer_field<R: Reducer>(&self, table: TableId, reducer: &R) -> bool {
        match reducer.input_field() {
            Some(f) if f >= self.state.program.def(table).arity() => {
                self.state.record_error(JStarError::NoSuchField {
                    table: self.state.program.def(table).name.clone(),
                    field: format!("#{f}"),
                });
                false
            }
            _ => true,
        }
    }

    // ── Typed entry points ──────────────────────────────────────────
    //
    // The façade of `crate::relation`: the same operations as the
    // positional methods above, but relations in and out. Each takes a
    // `TypedQuery`, a constant `&PreparedQuery` or a `Binder` with a
    // prepared query's per-call values (`IntoProbe`); all three reach
    // the store as one probe, so nothing below this layer tells them
    // apart.

    /// The typed handle for relation `R` (panics if unregistered).
    pub fn rel<R: Relation>(&self) -> TableHandle<R> {
        self.state.program.handle::<R>()
    }

    /// Typed [`RuleCtx::put`]: encodes `row` and puts it.
    pub fn put_rel<R: Relation>(&self, row: R) {
        let id = self.rel::<R>().id();
        self.put(row.into_tuple(id));
    }

    /// Typed [`RuleCtx::query`]: collects and decodes every match.
    pub fn query_rel<R: Relation>(&self, q: impl IntoProbe<R>) -> Vec<R> {
        let mut out = Vec::new();
        self.for_each_rel(q, |r| {
            out.push(r);
            true
        });
        out
    }

    /// Streams decoded matches; return `false` to stop early.
    pub fn for_each_rel<R: Relation>(&self, q: impl IntoProbe<R>, mut f: impl FnMut(R) -> bool) {
        q.with_probe(&self.state.program, |p| {
            self.scan(p, &mut |t| f(R::from_tuple(t)));
        });
    }

    /// Typed [`RuleCtx::exists`].
    pub fn exists_rel<R: Relation>(&self, q: impl IntoProbe<R>) -> bool {
        q.with_probe(&self.state.program, |p| self.any(p))
    }

    /// Typed [`RuleCtx::none`] — the `get uniq? R(...) == null` pattern,
    /// e.g. Dijkstra's
    /// `ctx.none_rel(done_probe.binder().set(Done::vertex, e.to))`.
    pub fn none_rel<R: Relation>(&self, q: impl IntoProbe<R>) -> bool {
        !self.exists_rel(q)
    }

    /// Returns the unique match, if any (`get uniq?`).
    pub fn get_uniq_rel<R: Relation>(&self, q: impl IntoProbe<R>) -> Option<R> {
        let mut found = None;
        self.for_each_rel(q, |r| {
            found = Some(r);
            false
        });
        found
    }

    /// Typed [`RuleCtx::reduce`]: aggregates without decoding rows —
    /// reducers address fields via [`Field::index`].
    pub fn reduce_rel<R: Relation, Red: Reducer>(
        &self,
        q: impl IntoProbe<R>,
        reducer: &Red,
    ) -> Red::Acc {
        q.with_probe(&self.state.program, |p| self.fold(p, reducer))
    }

    /// Typed [`RuleCtx::count`].
    pub fn count_rel<R: Relation>(&self, q: impl IntoProbe<R>) -> u64 {
        self.reduce_rel(q, &crate::reduce::CountReducer)
    }

    /// Typed `get min` over an integer field.
    pub fn min_int_rel<R: Relation>(
        &self,
        q: impl IntoProbe<R>,
        field: Field<R, i64>,
    ) -> Option<i64> {
        let field = field.index();
        self.reduce_rel(q, &crate::reduce::MinIntReducer { field })
    }

    /// Typed `get max` over an integer field.
    pub fn max_int_rel<R: Relation>(
        &self,
        q: impl IntoProbe<R>,
        field: Field<R, i64>,
    ) -> Option<i64> {
        let field = field.index();
        self.reduce_rel(q, &crate::reduce::MaxIntReducer { field })
    }
}
