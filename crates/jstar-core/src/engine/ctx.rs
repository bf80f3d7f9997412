//! The context a rule body receives: its window onto the database.

use crate::error::JStarError;
use crate::orderby::OrderKey;
use crate::query::Query;
use crate::reduce::Reducer;
use crate::relation::{Binder, Field, PreparedQuery, Relation, TableHandle, TypedQuery};
use crate::schema::TableId;
use crate::tuple::Tuple;
use jstar_pool::ThreadPool;
use std::sync::atomic::Ordering;
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
        let Some(use_index) = self.count_query(q) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        self.state.gamma.query_hinted(q, use_index, &mut |t| {
            out.push(t.clone());
            true
        });
        out
    }

    /// Streams Gamma tuples matching `q`; return `false` to stop early.
    pub fn query_for_each(&self, q: &Query, mut f: impl FnMut(&Tuple) -> bool) {
        let Some(use_index) = self.count_query(q) else {
            return;
        };
        self.state.gamma.query_hinted(q, use_index, &mut f);
    }

    /// True if some tuple matches (positive existence).
    pub fn exists(&self, q: &Query) -> bool {
        let Some(use_index) = self.count_query(q) else {
            return false;
        };
        let mut found = false;
        self.state.gamma.query_hinted(q, use_index, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Negative query: true if *no* tuple matches — the paper's
    /// `get uniq? T(...) == null` pattern. Sound only when the queried
    /// region is causally before the trigger, which static checking
    /// verifies (§4).
    pub fn none(&self, q: &Query) -> bool {
        !self.exists(q)
    }

    /// Returns the unique match, if any (`get uniq?`).
    pub fn get_uniq(&self, q: &Query) -> Option<Tuple> {
        let use_index = self.count_query(q)?;
        let mut found = None;
        self.state.gamma.query_hinted(q, use_index, &mut |t| {
            found = Some(t.clone());
            false
        });
        found
    }

    /// Aggregate query: folds every match through `reducer`.
    pub fn reduce<R: Reducer>(&self, q: &Query, reducer: &R) -> R::Acc {
        let Some(use_index) = self.count_query(q) else {
            return reducer.identity();
        };
        if !self.check_reducer_field(q, reducer) {
            return reducer.identity();
        }
        let mut acc = reducer.identity();
        self.state.gamma.query_hinted(q, use_index, &mut |t| {
            reducer.accept(&mut acc, t);
            true
        });
        acc
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
                jstar_pool::parallel_chunks(pool, &matches, 0, |chunk, _| {
                    for t in chunk {
                        f(t);
                    }
                });
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
        if !self.check_reducer_field(q, reducer) {
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

    /// Counts the query, validates its field indexes against the table
    /// schema, and returns the table plan's index-selection decision —
    /// computed once here and passed down to the store, which no longer
    /// re-derives it per call. `None` means the query named a field the
    /// table does not have: the error is recorded (failing the run) and
    /// the query reports no matches instead of panicking in a store.
    fn count_query(&self, q: &Query) -> Option<bool> {
        let ti = q.table.index();
        if let Err(e) = q.validate(self.state.program.def(q.table)) {
            self.state.record_error(e);
            return None;
        }
        let shard = self.state.staging_shard();
        // A rule sees its own `-noDelta` puts: apply what this thread has
        // staged before reading.
        flush_staged(self.state, shard, true);
        // ord: Relaxed ×2 — statistics counters in the caller's own stripe.
        let stats = self.state.stats.tables[ti].stripe(shard);
        stats.queries.fetch_add(1, Ordering::Relaxed);
        let use_index = self.state.plans[ti].query_uses_index(q);
        if use_index {
            stats.queries_indexed.fetch_add(1, Ordering::Relaxed);
        }
        Some(use_index)
    }

    /// Validates a reducer's input field against the queried table's
    /// arity — the aggregate counterpart of the query-constraint check
    /// in [`RuleCtx::count_query`]. Records
    /// [`JStarError::NoSuchField`] and returns false when out of
    /// bounds, so the fold never reaches a store with a bad index.
    fn check_reducer_field<R: Reducer>(&self, q: &Query, reducer: &R) -> bool {
        match reducer.input_field() {
            Some(f) if f >= self.state.program.def(q.table).arity() => {
                self.state.record_error(JStarError::NoSuchField {
                    table: self.state.program.def(q.table).name.clone(),
                    field: format!("#{f}"),
                });
                false
            }
            _ => true,
        }
    }

    // ── Typed entry points ──────────────────────────────────────────
    //
    // The façade of [`crate::relation`]: the same operations as the
    // positional methods above, but relations in and out. Each method
    // resolves `R`'s table once (a linear scan over the program's
    // handful of registrations — cheaper than the per-call string
    // lookup `ctx.table("...")` the positional style encouraged) and
    // lowers the typed query by moving its vectors, so nothing below
    // this layer changes.

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
    pub fn query_rel<R: Relation>(&self, q: TypedQuery<R>) -> Vec<R> {
        let q = q.lower(self.rel::<R>());
        let mut out = Vec::new();
        self.query_for_each(&q, |t| {
            out.push(R::from_tuple(t));
            true
        });
        out
    }

    /// Typed [`RuleCtx::query_for_each`]: streams decoded matches;
    /// return `false` to stop early.
    pub fn for_each_rel<R: Relation>(&self, q: TypedQuery<R>, mut f: impl FnMut(R) -> bool) {
        let q = q.lower(self.rel::<R>());
        self.query_for_each(&q, |t| f(R::from_tuple(t)));
    }

    /// Typed [`RuleCtx::exists`].
    pub fn exists_rel<R: Relation>(&self, q: TypedQuery<R>) -> bool {
        let q = q.lower(self.rel::<R>());
        self.exists(&q)
    }

    /// Typed [`RuleCtx::none`] — the `get uniq? R(...) == null` pattern.
    pub fn none_rel<R: Relation>(&self, q: TypedQuery<R>) -> bool {
        !self.exists_rel(q)
    }

    /// Typed [`RuleCtx::get_uniq`].
    pub fn get_uniq_rel<R: Relation>(&self, q: TypedQuery<R>) -> Option<R> {
        let q = q.lower(self.rel::<R>());
        self.get_uniq(&q).map(|t| R::from_tuple(&t))
    }

    /// Typed [`RuleCtx::reduce`]: aggregates without decoding rows —
    /// reducers address fields via [`Field::index`].
    pub fn reduce_rel<R: Relation, Red: Reducer>(
        &self,
        q: TypedQuery<R>,
        reducer: &Red,
    ) -> Red::Acc {
        let q = q.lower(self.rel::<R>());
        self.reduce(&q, reducer)
    }

    /// Typed [`RuleCtx::count`].
    pub fn count_rel<R: Relation>(&self, q: TypedQuery<R>) -> u64 {
        let q = q.lower(self.rel::<R>());
        self.count(&q)
    }

    /// Typed `get min` over an integer field.
    pub fn min_int_rel<R: Relation>(&self, q: TypedQuery<R>, field: Field<R, i64>) -> Option<i64> {
        let q = q.lower(self.rel::<R>());
        self.min_int(&q, field.index())
    }

    /// Typed `get max` over an integer field.
    pub fn max_int_rel<R: Relation>(&self, q: TypedQuery<R>, field: Field<R, i64>) -> Option<i64> {
        let q = q.lower(self.rel::<R>());
        self.max_int(&q, field.index())
    }

    /// Collects and decodes the matches of a [`PreparedQuery`] — the
    /// reuse point for constraint vectors interned once per rule.
    /// Panics on a query with bind slots (its placeholders would
    /// silently match nothing real — use [`RuleCtx::query_bound`]).
    pub fn query_prepared<R: Relation>(&self, q: &PreparedQuery<R>) -> Vec<R> {
        assert_eq!(
            q.slot_count(),
            0,
            "a prepared query with bind slots must be invoked through the *_bound entry points"
        );
        let mut out = Vec::new();
        self.query_for_each(q.as_query(), |t| {
            out.push(R::from_tuple(t));
            true
        });
        out
    }

    /// Aggregates over a [`PreparedQuery`] without decoding rows.
    /// Panics on a query with bind slots (use [`RuleCtx::reduce_bound`]).
    pub fn reduce_prepared<R: Relation, Red: Reducer>(
        &self,
        q: &PreparedQuery<R>,
        reducer: &Red,
    ) -> Red::Acc {
        assert_eq!(
            q.slot_count(),
            0,
            "a prepared query with bind slots must be invoked through the *_bound entry points"
        );
        self.reduce(q.as_query(), reducer)
    }

    // ── Bind-slot entry points ──────────────────────────────────────
    //
    // Invocations of a [`PreparedQuery`] built with `bind_*` slots:
    // `values` (in bind order) are patched into a per-thread cached
    // copy of the query — the rule's inner loop stops rebuilding its
    // eq/range vectors and stops allocating per call. See
    // [`crate::relation::TypedQuery::bind_eq`]. The `*_with` twins
    // below take a [`Binder`] instead of a positional value slice —
    // same machinery, but the values are named by `Field` token, so a
    // wrong-order (or wrong-typed) bind cannot compile.

    /// Bound [`RuleCtx::query_prepared`]: collects and decodes matches.
    pub fn query_bound<R: Relation>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
    ) -> Vec<R> {
        q.with_bound(values, |q| {
            let mut out = Vec::new();
            self.query_for_each(q, |t| {
                out.push(R::from_tuple(t));
                true
            });
            out
        })
    }

    /// Bound streaming query; return `false` to stop early.
    pub fn for_each_bound<R: Relation>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
        mut f: impl FnMut(R) -> bool,
    ) {
        q.with_bound(values, |q| {
            self.query_for_each(q, |t| f(R::from_tuple(t)));
        })
    }

    /// Bound positive existence test.
    pub fn exists_bound<R: Relation>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
    ) -> bool {
        q.with_bound(values, |q| self.exists(q))
    }

    /// Bound negative query — the `get uniq? R(trigger.v) == null`
    /// pattern of the Dijkstra inner loop.
    pub fn none_bound<R: Relation>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
    ) -> bool {
        !self.exists_bound(q, values)
    }

    /// Bound [`RuleCtx::get_uniq`].
    pub fn get_uniq_bound<R: Relation>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
    ) -> Option<R> {
        q.with_bound(values, |q| self.get_uniq(q).map(|t| R::from_tuple(&t)))
    }

    /// Bound aggregate without decoding rows.
    pub fn reduce_bound<R: Relation, Red: Reducer>(
        &self,
        q: &PreparedQuery<R>,
        values: &[crate::value::Value],
        reducer: &Red,
    ) -> Red::Acc {
        q.with_bound(values, |q| self.reduce(q, reducer))
    }

    // ── Typed-binder entry points ───────────────────────────────────

    /// [`RuleCtx::query_bound`] with a typed [`Binder`]: collects and
    /// decodes matches of `b`'s query under `b`'s slot values.
    pub fn query_with<R: Relation>(&self, b: Binder<'_, R>) -> Vec<R> {
        b.apply(|q| {
            let mut out = Vec::new();
            self.query_for_each(q, |t| {
                out.push(R::from_tuple(t));
                true
            });
            out
        })
    }

    /// Typed-binder streaming query; return `false` to stop early.
    pub fn for_each_with<R: Relation>(&self, b: Binder<'_, R>, mut f: impl FnMut(R) -> bool) {
        b.apply(|q| {
            self.query_for_each(q, |t| f(R::from_tuple(t)));
        })
    }

    /// Typed-binder positive existence test.
    pub fn exists_with<R: Relation>(&self, b: Binder<'_, R>) -> bool {
        b.apply(|q| self.exists(q))
    }

    /// Typed-binder negative query — the Dijkstra inner loop's
    /// `get uniq? Done(edge.to) == null` shape:
    /// `ctx.none_with(done_probe.binder().set(Done::vertex, e.to))`.
    pub fn none_with<R: Relation>(&self, b: Binder<'_, R>) -> bool {
        !self.exists_with(b)
    }

    /// Typed-binder [`RuleCtx::get_uniq`].
    pub fn get_uniq_with<R: Relation>(&self, b: Binder<'_, R>) -> Option<R> {
        b.apply(|q| self.get_uniq(q).map(|t| R::from_tuple(&t)))
    }

    /// Typed-binder aggregate without decoding rows.
    pub fn reduce_with<R: Relation, Red: Reducer>(
        &self,
        b: Binder<'_, R>,
        reducer: &Red,
    ) -> Red::Acc {
        b.apply(|q| self.reduce(q, reducer))
    }
}
