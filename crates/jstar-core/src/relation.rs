//! The typed relation façade — schema-carrying handles over the
//! positional core.
//!
//! The paper's first design goal is a *concise, safe* surface for
//! relational parallel programs. The runtime underneath is positional:
//! tuples are `Vec<Value>` rows and queries address columns by `usize`
//! offset. This module layers a zero-cost typed view on top:
//!
//! * a [`Relation`] is a Rust struct that knows its table schema
//!   ([`Relation::COLUMNS`], [`Relation::KEY_ARITY`],
//!   [`Relation::orderby`]) and converts to/from the runtime
//!   [`Tuple`] representation;
//! * a [`Field`]`<R, T>` is a compile-time token naming one column of
//!   `R` with Rust type `T` — using a `Field` of the wrong relation or
//!   comparing it against the wrong value type is a *compile* error,
//!   where the positional API would silently corrupt a query after a
//!   column reorder;
//! * a [`TypedQuery`]`<R>` is the fluent query builder over those
//!   tokens (`Ship::query().eq(Ship::frame, 3).lt(Ship::x, 400)`),
//!   lowered to the ordinary [`Query`] before it reaches the Gamma
//!   stores — the hot path below the façade is unchanged;
//! * a [`TableHandle`]`<R>` is a `Copy` handle tying `R` to the
//!   [`TableId`] a program assigned it, returned by
//!   [`crate::program::ProgramBuilder::relation`].
//!
//! Relations are normally *generated*, not written by hand: the
//! [`crate::jstar_table!`] item form turns the paper's one-line table
//! declaration into the struct, its `Relation` impl and its `Field`
//! tokens. See the [`crate::dsl`] module.
//!
//! The positional API ([`Query::on`], [`Tuple::new`],
//! [`crate::engine::RuleCtx::put`]) remains available as the
//! documented low-level escape hatch — custom [`crate::gamma`] stores
//! and generic tooling still need it.

use crate::gamma::leapfrog::Pair;
use crate::program::Program;
use crate::query::{FieldRange, Predicate, Probe, Query, Slot, SlotOp};
use crate::rule::JoinStage;
use crate::schema::TableId;
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::Arc;

/// Compile-time description of one column: its name and runtime type.
///
/// `const`-constructible so generated relations can carry their schema
/// in a `&'static` slice ([`Relation::COLUMNS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name as declared in the table.
    pub name: &'static str,
    /// Runtime value type of the column.
    pub ty: ValueType,
}

/// A Rust type with a fixed mapping to a JStar column type.
///
/// Implemented for the four surface types of the paper: `i64` (`int`),
/// `f64` (`double`), `Arc<str>` (`String`) and `bool` (`boolean`).
pub trait FieldValue: Sized + Send + Sync + 'static {
    /// The JStar column type this Rust type maps to.
    const TYPE: ValueType;
    /// Wraps the value for the positional runtime.
    fn into_value(self) -> Value;
    /// Extracts the value, panicking on a type mismatch (a mismatch is
    /// a schema bug: relations are registered with their own column
    /// types, so well-formed programs cannot hit it).
    fn from_value(v: &Value) -> Self;
}

impl FieldValue for i64 {
    const TYPE: ValueType = ValueType::Int;
    fn into_value(self) -> Value {
        Value::Int(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_int()
    }
}

impl FieldValue for f64 {
    const TYPE: ValueType = ValueType::Double;
    fn into_value(self) -> Value {
        Value::Double(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_double()
    }
}

impl FieldValue for bool {
    const TYPE: ValueType = ValueType::Bool;
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_bool()
    }
}

impl FieldValue for Arc<str> {
    const TYPE: ValueType = ValueType::Str;
    fn into_value(self) -> Value {
        Value::Str(self)
    }
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Str(s) => Arc::clone(s),
            other => panic!("expected String value, found {other:?}"),
        }
    }
}

/// A [`FieldValue`] whose [`Value`] order is the Rust type's own total
/// order: `i64`, `Arc<str>` (`String`) and `bool`. Join inequalities
/// ([`Join::lt`], [`Join3::lt_a`] and the other `Join3::lt_*`) compare
/// under [`Value`]'s order, so they take only these types: an `if` on
/// the decoded field then means the same thing. `f64` is excluded
/// because `Value::Double` orders by `total_cmp`, which puts `-0.0`
/// below `0.0` and NaN above every number, where `f64`'s `<` does
/// neither — an `f64` inequality stays an `if` in the rule's `emit` or
/// the read's callback:
///
/// ```compile_fail
/// use jstar_core::jstar_table;
/// use jstar_core::prelude::*;
///
/// jstar_table! {
///     pub Reading(int id, double value) orderby (Reading)
/// }
///
/// // `double` columns have no inequality pushdown.
/// let _ = join::<Reading, Reading>().lt(Reading::value, Reading::value);
/// ```
///
/// The same join on an `int` column compiles:
///
/// ```
/// use jstar_core::jstar_table;
/// use jstar_core::prelude::*;
///
/// jstar_table! {
///     pub Reading(int id, double value) orderby (Reading)
/// }
///
/// let _ = join::<Reading, Reading>().lt(Reading::id, Reading::id);
/// ```
pub trait OrderedValue: FieldValue {}

impl OrderedValue for i64 {}
impl OrderedValue for bool {}
impl OrderedValue for Arc<str> {}

/// A typed relation: a Rust struct carrying its table schema.
///
/// One `Relation` type corresponds to one table declaration. The
/// associated constants describe the schema; `from_tuple`/`into_values`
/// convert between the struct and the runtime row. Implementations are
/// generated by the [`crate::jstar_table!`] item form.
pub trait Relation: Send + Sync + Sized + 'static {
    /// The table name (`table Ship(...)` → `"Ship"`).
    const NAME: &'static str;
    /// Column names and types, in declaration order.
    const COLUMNS: &'static [ColumnSpec];
    /// Number of leading primary-key columns (`->` split), or `None`
    /// for whole-tuple set semantics.
    const KEY_ARITY: Option<usize>;

    /// The `orderby` components positioning this table's tuples in the
    /// causality ordering. A function (not a const) because
    /// [`crate::orderby::OrderComponent`] owns heap strings.
    fn orderby() -> Vec<crate::orderby::OrderComponent>;

    /// Decodes a runtime row into the typed struct.
    fn from_tuple(t: &Tuple) -> Self;

    /// Encodes the struct as a positional field vector.
    fn into_values(self) -> Vec<Value>;

    /// Encodes the struct as a row of `table` — what the typed put paths
    /// (`put_rel`, `inject_rel`) call. The generated impls override this
    /// default with [`Tuple::from_fields`], moving the fields straight
    /// into the row's one allocation without the intermediate vector.
    fn into_tuple(self, table: TableId) -> Tuple {
        Tuple::new(table, self.into_values())
    }

    /// Starts a typed query over this relation:
    /// `Ship::query().eq(Ship::frame, 3)`.
    fn query() -> TypedQuery<Self> {
        TypedQuery::new()
    }
}

/// A compile-time token naming one column of relation `R`, carrying the
/// column's Rust type `T`.
///
/// `Field`s are the typed replacement for bare `usize` offsets: a query
/// can only combine a `Field<R, T>` with a `TypedQuery<R>` and a value
/// convertible to `T`, so addressing the wrong table or comparing a
/// string column against an int is rejected at compile time. Tokens are
/// generated as associated constants by [`crate::jstar_table!`]
/// (e.g. `Ship::frame`).
pub struct Field<R, T> {
    index: usize,
    name: &'static str,
    _marker: PhantomData<fn(R) -> T>,
}

impl<R, T> Clone for Field<R, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R, T> Copy for Field<R, T> {}

impl<R, T> std::fmt::Debug for Field<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Field({}#{})", self.name, self.index)
    }
}

impl<R, T> Field<R, T> {
    /// Macro plumbing: constructs a token for column `index`. User code
    /// should use the generated associated constants instead — a
    /// hand-made token with a wrong index defeats the type safety this
    /// module exists for.
    pub const fn new(index: usize, name: &'static str) -> Self {
        Field {
            index,
            name,
            _marker: PhantomData,
        }
    }

    /// The positional column index — the bridge to index-based APIs
    /// such as [`crate::reduce::Statistics`]`::field` or
    /// [`Tuple::get`].
    pub const fn index(self) -> usize {
        self.index
    }

    /// The declared column name.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// A `Copy` handle tying relation `R` to the [`TableId`] assigned by a
/// particular program.
///
/// Returned by [`crate::program::ProgramBuilder::relation`]; converts
/// into a plain [`TableId`] wherever the positional configuration API
/// wants one ([`crate::engine::EngineConfig::no_delta`] and friends).
pub struct TableHandle<R> {
    id: TableId,
    _marker: PhantomData<fn() -> R>,
}

impl<R> Clone for TableHandle<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for TableHandle<R> {}

impl<R> std::fmt::Debug for TableHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TableHandle({})", self.id)
    }
}

impl<R> TableHandle<R> {
    pub(crate) const fn new(id: TableId) -> Self {
        TableHandle {
            id,
            _marker: PhantomData,
        }
    }

    /// The underlying table id.
    pub const fn id(self) -> TableId {
        self.id
    }
}

impl<R> From<TableHandle<R>> for TableId {
    fn from(h: TableHandle<R>) -> TableId {
        h.id
    }
}

/// A conjunctive query over relation `R`, built from [`Field`] tokens.
///
/// The typed twin of [`Query`]: the same equality / range / residual
/// constraint model, but fields are named through tokens so a mismatch
/// is a compile error and an out-of-bounds index is unrepresentable.
/// Lowered to a plain [`Query`] (same vectors, no extra copies) when it
/// reaches the engine, so it adds nothing to the per-tuple hot path.
pub struct TypedQuery<R> {
    eq: Vec<(usize, Value)>,
    ranges: Vec<FieldRange>,
    pred: Option<Predicate>,
    /// The `bind_*` constraints, in bind order; kept apart from the
    /// constant ones by [`TypedQuery::prepare`].
    slots: Vec<Slot>,
    _marker: PhantomData<fn() -> R>,
}

impl<R> Default for TypedQuery<R> {
    fn default() -> Self {
        TypedQuery::new()
    }
}

impl<R> TypedQuery<R> {
    /// Starts an unconstrained query (usually via [`Relation::query`]).
    pub fn new() -> Self {
        TypedQuery {
            eq: Vec::new(),
            ranges: Vec::new(),
            pred: None,
            slots: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Adds `field == value`.
    pub fn eq<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        self.eq.push((field.index(), value.into().into_value()));
        self
    }

    /// Adds `field < value`.
    pub fn lt<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        self.ranges.push(FieldRange {
            field: field.index(),
            lo: Bound::Unbounded,
            hi: Bound::Excluded(value.into().into_value()),
        });
        self
    }

    /// Adds `field <= value`.
    pub fn le<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        self.ranges.push(FieldRange {
            field: field.index(),
            lo: Bound::Unbounded,
            hi: Bound::Included(value.into().into_value()),
        });
        self
    }

    /// Adds `field > value`.
    pub fn gt<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        self.ranges.push(FieldRange {
            field: field.index(),
            lo: Bound::Excluded(value.into().into_value()),
            hi: Bound::Unbounded,
        });
        self
    }

    /// Adds `field >= value`.
    pub fn ge<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        self.ranges.push(FieldRange {
            field: field.index(),
            lo: Bound::Included(value.into().into_value()),
            hi: Bound::Unbounded,
        });
        self
    }

    // ── Bind slots ──────────────────────────────────────────────────
    //
    // The `bind_*` builders add a constraint whose *value* arrives with
    // each call. A rule whose query differs only in trigger-derived
    // values (Dijkstra's `eq(Done::vertex, trigger.vertex)`) prepares it
    // once outside the rule closure and evaluates it through a
    // [`Binder`]: the constraint vectors are built a single time per
    // rule, and a call lends its values to the store on the stack.

    fn bind<T: FieldValue>(mut self, field: Field<R, T>, op: SlotOp) -> Self {
        self.slots.push(Slot {
            field: field.index(),
            op,
        });
        self
    }

    /// Adds `field == ?slot` (value supplied at invocation).
    pub fn bind_eq<T: FieldValue>(self, field: Field<R, T>) -> Self {
        self.bind(field, SlotOp::Eq)
    }

    /// Adds `field < ?slot`.
    pub fn bind_lt<T: FieldValue>(self, field: Field<R, T>) -> Self {
        self.bind(field, SlotOp::Lt)
    }

    /// Adds `field <= ?slot`.
    pub fn bind_le<T: FieldValue>(self, field: Field<R, T>) -> Self {
        self.bind(field, SlotOp::Le)
    }

    /// Adds `field > ?slot`.
    pub fn bind_gt<T: FieldValue>(self, field: Field<R, T>) -> Self {
        self.bind(field, SlotOp::Gt)
    }

    /// Adds `field >= ?slot`.
    pub fn bind_ge<T: FieldValue>(self, field: Field<R, T>) -> Self {
        self.bind(field, SlotOp::Ge)
    }

    /// Adds a residual predicate over the decoded relation (the `[...]`
    /// lambdas of the paper). Decoding is stack-only for scalar
    /// columns; for tight loops over `String`-heavy tables prefer
    /// [`TypedQuery::filter_tuple`].
    pub fn filter(mut self, pred: impl Fn(&R) -> bool + Send + Sync + 'static) -> Self
    where
        R: Relation,
    {
        self.pred = Some(Arc::new(move |t: &Tuple| pred(&R::from_tuple(t))));
        self
    }

    /// Adds a residual predicate over the raw tuple — the escape hatch
    /// when the decode of [`TypedQuery::filter`] is unwanted.
    pub fn filter_tuple(mut self, pred: impl Fn(&Tuple) -> bool + Send + Sync + 'static) -> Self {
        self.pred = Some(Arc::new(pred));
        self
    }

    /// Lowers to the positional [`Query`] against the table `R` was
    /// registered as. The constraint vectors move — lowering allocates
    /// nothing. Panics on a query with bind slots: it has no values yet,
    /// so [`TypedQuery::prepare`] it and evaluate it through
    /// [`PreparedQuery::binder`].
    pub fn lower(self, table: impl Into<TableId>) -> Query {
        assert!(
            self.slots.is_empty(),
            "a query with bind slots has no values to lower: prepare() it once \
             and evaluate it through binder()"
        );
        Query {
            table: table.into(),
            eq: self.eq,
            ranges: self.ranges,
            pred: self.pred,
        }
    }

    /// Lowers once into a [`PreparedQuery`] that can be reused across
    /// rule invocations — the per-rule interning point for queries
    /// whose constraints are constants (build it *outside* the rule
    /// closure and capture it; per-invocation construction then costs
    /// nothing). Queries carrying `bind_*` slots are evaluated with
    /// per-call values through [`PreparedQuery::binder`].
    ///
    /// Panics — at program-build time, where the query is prepared —
    /// on more than [`MAX_BIND_SLOTS`] slots.
    pub fn prepare(mut self, table: TableHandle<R>) -> PreparedQuery<R> {
        assert!(
            self.slots.len() <= MAX_BIND_SLOTS,
            "a prepared query takes at most MAX_BIND_SLOTS = {MAX_BIND_SLOTS} bind slots, \
             this one has {}",
            self.slots.len()
        );
        let slots = std::mem::take(&mut self.slots).into_boxed_slice();
        PreparedQuery {
            query: self.lower(table.id()),
            slots,
            _marker: PhantomData,
        }
    }
}

/// A typed query lowered once and reused — constant constraint vectors
/// are built a single time per rule instead of per invocation.
///
/// Created by [`TypedQuery::prepare`]; passed by reference to the typed
/// reads of [`crate::engine::RuleCtx`] (`ctx.query_rel(&q)`) or,
/// positionally, via [`PreparedQuery::as_query`]. When the query was
/// built with `bind_*` slots, each call supplies their values through a
/// [`PreparedQuery::binder`] instead.
pub struct PreparedQuery<R> {
    /// The constant constraints.
    query: Query,
    /// The `bind_*` constraints, in bind order.
    slots: Box<[Slot]>,
    _marker: PhantomData<fn() -> R>,
}

impl<R> PreparedQuery<R> {
    /// The lowered positional query (borrowed — no copies). For a query
    /// with bind slots it holds only the constant constraints; evaluate
    /// it through [`PreparedQuery::binder`] instead.
    pub fn as_query(&self) -> &Query {
        &self.query
    }

    /// Number of `bind_*` placeholder slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Starts a **typed** bind of this query's slots: values are named
    /// by [`Field`] token (`q.binder().set(Done::vertex, v)`), so
    /// binding in the wrong order is impossible and a wrong-typed or
    /// wrong-relation value is a compile error. Pass the binder to any
    /// typed read of [`crate::engine::RuleCtx`].
    pub fn binder(&self) -> Binder<'_, R> {
        const UNSET: Value = Value::Int(0);
        Binder {
            query: self,
            values: [UNSET; MAX_BIND_SLOTS],
            set: 0,
        }
    }
}

/// Maximum `bind_*` slots a prepared query may carry — a [`Binder`]
/// keeps its values on the stack; every paper workload uses 1–2.
pub const MAX_BIND_SLOTS: usize = 8;

/// A typed, per-invocation value set for a [`PreparedQuery`]'s bind
/// slots.
///
/// Each [`Binder::set`] names the slot by its [`Field`] token, so:
///
/// * binding values **in the wrong order** cannot happen (slots are
///   matched by column, not position);
/// * binding a value of the **wrong type**, or a field of the **wrong
///   relation**, is a compile error (`Field<R, T>` fixes both).
///
/// When a query binds the *same* column more than once (say
/// `bind_ge(x).bind_le(x)` for a range), repeated `set`s on that field
/// fill its slots in bind order. Built by [`PreparedQuery::binder`];
/// the values stay on the stack and the store reads them in place, so
/// an evaluation copies and allocates nothing:
///
/// ```
/// use jstar_core::jstar_table;
/// use jstar_core::prelude::*;
/// use std::sync::{Arc, Mutex};
///
/// jstar_table! {
///     #[derive(Copy, Eq)]
///     pub Hop(int from, int to) orderby (Hop)
/// }
///
/// let mut p = ProgramBuilder::new();
/// let hop = p.relation::<Hop>();
/// // Prepared once, outside the rule: `from == ?` and `to >= ?`.
/// let out_of = Hop::query().bind_eq(Hop::from).bind_ge(Hop::to).prepare(hop);
/// let seen = Arc::new(Mutex::new(Vec::new()));
/// let log = Arc::clone(&seen);
/// p.rule_rel("count", move |ctx, h: Hop| {
///     let onward = out_of.binder().set(Hop::from, h.to).set(Hop::to, 3);
///     log.lock().unwrap().push((h.from, h.to, ctx.count_rel(onward)));
/// });
/// for (from, to) in [(1, 2), (2, 3), (2, 5), (2, 1)] {
///     p.put_rel(Hop { from, to });
/// }
/// let mut engine = Engine::new(Arc::new(p.build()?), EngineConfig::sequential());
/// engine.run()?;
/// // Every hop into vertex 2 sees the two hops out of it with `to >= 3`.
/// let seen = seen.lock().unwrap();
/// assert!(seen.contains(&(1, 2, 2)));
/// assert!(seen.contains(&(2, 3, 0)));
/// # Result::Ok(())
/// ```
pub struct Binder<'q, R> {
    query: &'q PreparedQuery<R>,
    /// `values[i]` is slot `i`'s value once bit `i` of `set` is.
    values: [Value; MAX_BIND_SLOTS],
    set: u8,
}

impl<R> Binder<'_, R> {
    /// Supplies the value for `field`'s (next unfilled) bind slot.
    /// Panics if the query has no remaining unbound slot on that
    /// column.
    pub fn set<T: FieldValue>(mut self, field: Field<R, T>, value: impl Into<T>) -> Self {
        let idx = self
            .query
            .slots
            .iter()
            .enumerate()
            .position(|(i, s)| s.field == field.index() && self.set & (1 << i) == 0)
            .unwrap_or_else(|| {
                panic!(
                    "no unbound slot constrains column `{}` — the prepared query \
                     declared different bind_* fields",
                    field.name()
                )
            });
        self.values[idx] = value.into().into_value();
        self.set |= 1 << idx;
        self
    }

    /// The probe of the prepared query under these values. Panics
    /// unless every slot was `set`.
    pub(crate) fn probe(&self) -> Probe<'_> {
        let n = self.query.slots.len();
        assert_eq!(
            self.set.count_ones() as usize,
            n,
            "every bind slot must be set before the query is evaluated"
        );
        Probe::bound(&self.query.query, &self.query.slots, &self.values[..n])
    }
}

/// A query over relation `R` in any of the forms the typed reads of
/// [`crate::engine::RuleCtx`] accept: a [`TypedQuery`], a constant
/// `&`[`PreparedQuery`], or a [`Binder`] carrying a prepared query's
/// per-call values. All three reach the store as one [`Probe`].
pub trait IntoProbe<R> {
    /// Runs `f` on this query's probe of the table `program` registered
    /// `R` as.
    fn with_probe<O>(self, program: &Program, f: impl FnOnce(Probe<'_>) -> O) -> O;
}

impl<R: Relation> IntoProbe<R> for TypedQuery<R> {
    fn with_probe<O>(self, program: &Program, f: impl FnOnce(Probe<'_>) -> O) -> O {
        f(self.lower(program.handle::<R>()).probe())
    }
}

impl<R> IntoProbe<R> for &PreparedQuery<R> {
    /// Panics on a query with bind slots: their values come with a
    /// [`PreparedQuery::binder`].
    fn with_probe<O>(self, _: &Program, f: impl FnOnce(Probe<'_>) -> O) -> O {
        assert!(
            self.slots.is_empty(),
            "a prepared query with bind slots is evaluated through binder()"
        );
        f(self.query.probe())
    }
}

impl<R> IntoProbe<R> for Binder<'_, R> {
    fn with_probe<O>(self, _: &Program, f: impl FnOnce(Probe<'_>) -> O) -> O {
        f(self.probe())
    }
}

/// Starts a typed two-relation join: `join::<Emp, Dept>()` — the one
/// value both kinds of join take. A **read** evaluates it over Gamma
/// ([`crate::engine::Engine::join_rel`], or
/// [`crate::engine::Engine::join_fold`] to split the walk over the
/// engine's pool); a **rule** runs it for each `A` tuple that triggers
/// it ([`crate::program::ProgramBuilder::rule_rel_join`]).
///
/// The variable order is **fixed by declaration order** (`A` then `B`;
/// no cost-based optimizer): row 0 is the root of one leapfrog walk —
/// `A`'s column view on a read, a view cut from the triggering `A`
/// tuples in a rule — and `B`'s view, opened on the first `on` pair's
/// column, is its single stage, sought with coordinated seek/next
/// motions. Any further `on` pairs are residual equalities inside
/// matched groups, checked beside the [`Join::lt`] inequalities; one on
/// the view's next column (the first field of `B` other than its key)
/// seeks inside the group, as does, failing that, an inequality
/// bounding that column from below.
pub fn join<A: Relation, B: Relation>() -> Join<A, B> {
    Join {
        keys: Vec::new(),
        less: Vec::new(),
        _marker: PhantomData,
    }
}

/// A typed two-relation join (see [`join`]).
pub struct Join<A: Relation, B: Relation> {
    keys: Vec<Pair>,
    less: Vec<Pair>,
    _marker: PhantomData<fn(A, B)>,
}

impl<A: Relation, B: Relation> Join<A, B> {
    /// Adds the equi-join pair `a.field == b.field`. The first pair
    /// names the leapfrog columns; later pairs are residual checks.
    /// Every join needs at least one: without one it is a cross join,
    /// which gives the walk nothing to seek on, so a rule's
    /// [`crate::program::ProgramBuilder::build`] fails and a read
    /// panics.
    pub fn on<T: FieldValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.keys.push(((0, a.index()), b.index()));
        self
    }

    /// Adds the inequality `a.field < b.field`, under [`Value`]'s order
    /// (see [`OrderedValue`]), checked as each `b` row is matched.
    pub fn lt<T: OrderedValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.less.push(((0, a.index()), b.index()));
        self
    }
}

/// Starts a typed three-relation join: `join3::<Edge, Edge, Edge>()`,
/// taken by the same reads and rules as [`join`]. Variable order is
/// fixed as `A`, `B`, then `C` (declaration order; no optimizer): `A`
/// and `B` leapfrog on the first [`Join3::on_ab`] pair, then each
/// matched `(a, b)` row seeks a shared `C` view keyed by the first
/// `C` pair declared — [`Join3::on_bc`] or [`Join3::on_ac`], whichever
/// was called first — with every remaining pair checked as a residual
/// equality. A residual equality on the `C` view's next column (the
/// first field of `C` other than its key) seeks inside the matched
/// group instead: declaring `.on_ac(A::x, C::from).on_bc(B::y, C::to)`
/// walks each `c` group as a sorted list merged against `b`'s.
///
/// Each inequality is checked at the first row that binds both of its
/// sides: [`Join3::lt_a`] before an `a` row is walked at all,
/// [`Join3::lt_ab`] as a `b` row is matched (before `C` is sought for
/// it), [`Join3::lt_ac`] and [`Join3::lt_bc`] as a `c` row is matched.
pub fn join3<A: Relation, B: Relation, C: Relation>() -> Join3<A, B, C> {
    Join3 {
        ab: join(),
        c_keys: Vec::new(),
        a_less: Vec::new(),
        c_less: Vec::new(),
        _marker: PhantomData,
    }
}

/// A typed three-relation join (see [`join3`]): a [`join`] of `A` and
/// `B`, plus the stage that seeks `C` and the root checks.
pub struct Join3<A: Relation, B: Relation, C: Relation> {
    ab: Join<A, B>,
    /// The `C` stage's key pairs in call order: the first is sought.
    c_keys: Vec<Pair>,
    a_less: Vec<(usize, usize)>,
    c_less: Vec<Pair>,
    _marker: PhantomData<fn(C)>,
}

impl<A: Relation, B: Relation, C: Relation> Join3<A, B, C> {
    /// Adds the equi-join pair `a.field == b.field` (the first pair
    /// names the `A`–`B` leapfrog columns).
    pub fn on_ab<T: FieldValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.ab = self.ab.on(a, b);
        self
    }

    /// Adds the equi-join pair `b.field == c.field` (the first `C`
    /// pair, this or [`Join3::on_ac`], names the column `C`'s view is
    /// opened on).
    pub fn on_bc<T: FieldValue>(mut self, b: Field<B, T>, c: Field<C, T>) -> Self {
        self.c_keys.push(((1, b.index()), c.index()));
        self
    }

    /// Adds the equi-join pair `a.field == c.field` (see
    /// [`Join3::on_bc`]).
    pub fn on_ac<T: FieldValue>(mut self, a: Field<A, T>, c: Field<C, T>) -> Self {
        self.c_keys.push(((0, a.index()), c.index()));
        self
    }

    /// Adds the inequality `a.lo < a.hi` between two fields of the same
    /// `a` row (a root check), under [`Value`]'s order (see
    /// [`OrderedValue`], and [`join3`] for where each inequality runs).
    pub fn lt_a<T: OrderedValue>(mut self, lo: Field<A, T>, hi: Field<A, T>) -> Self {
        self.a_less.push((lo.index(), hi.index()));
        self
    }

    /// Adds the inequality `a.field < b.field`.
    pub fn lt_ab<T: OrderedValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.ab = self.ab.lt(a, b);
        self
    }

    /// Adds the inequality `a.field < c.field`.
    pub fn lt_ac<T: OrderedValue>(mut self, a: Field<A, T>, c: Field<C, T>) -> Self {
        self.c_less.push(((0, a.index()), c.index()));
        self
    }

    /// Adds the inequality `b.field < c.field`.
    pub fn lt_bc<T: OrderedValue>(mut self, b: Field<B, T>, c: Field<C, T>) -> Self {
        self.c_less.push(((1, b.index()), c.index()));
        self
    }
}

/// A join builder — [`Join`] or [`Join3`] — as reads and rules take
/// it: the decoded row it yields, and its lowering onto the engine's
/// one leapfrog walk. Sealed: there is no other arity.
pub trait JoinShape: sealed::Sealed + 'static {
    /// One matched row combination, decoded: `(A, B)` or `(A, B, C)`.
    type Row;

    /// Decodes `rows` (`rows[0]` is `A`'s tuple, `rows[1]` `B`'s, …).
    #[doc(hidden)]
    fn decode(rows: &[&Tuple]) -> Self::Row;

    /// The table ids of `A`, `B`(, `C`), in that order.
    #[doc(hidden)]
    fn relation_ids(tables: &mut impl sealed::Tables) -> Vec<TableId>;

    /// The root checks — `(field, field)` pairs of row 0, the first
    /// below the second — and one [`JoinStage`] per relation after `A`
    /// (row 0 is `A`, row 1 `B`, …; each stage's key pairs are in call
    /// order, and the first names the column its view is opened on).
    /// `ids` are [`JoinShape::relation_ids`].
    #[doc(hidden)]
    fn lower(self, ids: &[TableId]) -> (Vec<(usize, usize)>, Vec<JoinStage>);
}

impl<A: Relation, B: Relation> JoinShape for Join<A, B> {
    type Row = (A, B);

    fn decode(rows: &[&Tuple]) -> (A, B) {
        (A::from_tuple(rows[0]), B::from_tuple(rows[1]))
    }

    fn relation_ids(tables: &mut impl sealed::Tables) -> Vec<TableId> {
        vec![tables.id::<A>(), tables.id::<B>()]
    }

    fn lower(self, ids: &[TableId]) -> (Vec<(usize, usize)>, Vec<JoinStage>) {
        let stage = JoinStage {
            probe_table: ids[1],
            keys: self.keys,
            less: self.less,
        };
        (Vec::new(), vec![stage])
    }
}

impl<A: Relation, B: Relation, C: Relation> JoinShape for Join3<A, B, C> {
    type Row = (A, B, C);

    fn decode(rows: &[&Tuple]) -> (A, B, C) {
        let (a, b) = Join::<A, B>::decode(rows);
        (a, b, C::from_tuple(rows[2]))
    }

    fn relation_ids(tables: &mut impl sealed::Tables) -> Vec<TableId> {
        vec![tables.id::<A>(), tables.id::<B>(), tables.id::<C>()]
    }

    fn lower(self, ids: &[TableId]) -> (Vec<(usize, usize)>, Vec<JoinStage>) {
        let (_, mut stages) = self.ab.lower(ids);
        stages.push(JoinStage {
            probe_table: ids[2],
            keys: self.c_keys,
            less: self.c_less,
        });
        (self.a_less, stages)
    }
}

/// A lowered join: its relations' table ids, its root checks and its
/// stages (see [`JoinShape::lower`]).
pub(crate) type Lowered = (Vec<TableId>, Vec<(usize, usize)>, Vec<JoinStage>);

/// Lowers `j` over `tables` — the one place a join's shape is checked.
/// Every relation after the first must be keyed by an `on` pair: a
/// cross join gives a walk nothing to seek on. Errs with the first
/// unkeyed relation's table; a rule records that as a
/// [`crate::program::ProgramBuilder::build`] error, a read panics. A
/// cross join is written as an opaque rule that loops over a query.
pub(crate) fn lower<J: JoinShape>(
    j: J,
    tables: &mut impl sealed::Tables,
) -> Result<Lowered, TableId> {
    let ids = J::relation_ids(tables);
    let (root_less, stages) = j.lower(&ids);
    match stages.iter().find(|s| s.keys.is_empty()) {
        Some(unkeyed) => Err(unkeyed.probe_table),
        None => Ok((ids, root_less, stages)),
    }
}

mod sealed {
    use super::{Join, Join3, Relation};
    use crate::program::{Program, ProgramBuilder};
    use crate::schema::TableId;

    pub trait Sealed {}
    impl<A: Relation, B: Relation> Sealed for Join<A, B> {}
    impl<A: Relation, B: Relation, C: Relation> Sealed for Join3<A, B, C> {}

    /// Where a join's relations get their table ids: a program being
    /// built registers them (a rule), a built one looks them up (a read).
    pub trait Tables {
        fn id<R: Relation>(&mut self) -> TableId;
    }

    impl Tables for ProgramBuilder {
        fn id<R: Relation>(&mut self) -> TableId {
            self.relation::<R>().id()
        }
    }

    impl Tables for &Program {
        fn id<R: Relation>(&mut self) -> TableId {
            self.handle::<R>().id()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orderby::{seq, strat, OrderComponent};

    /// A hand-written relation (what the macro generates).
    #[derive(Debug, Clone, PartialEq)]
    struct Ship {
        frame: i64,
        x: i64,
    }

    impl Ship {
        #[allow(non_upper_case_globals)]
        const frame: Field<Ship, i64> = Field::new(0, "frame");
        #[allow(non_upper_case_globals)]
        const x: Field<Ship, i64> = Field::new(1, "x");
    }

    impl Relation for Ship {
        const NAME: &'static str = "Ship";
        const COLUMNS: &'static [ColumnSpec] = &[
            ColumnSpec {
                name: "frame",
                ty: ValueType::Int,
            },
            ColumnSpec {
                name: "x",
                ty: ValueType::Int,
            },
        ];
        const KEY_ARITY: Option<usize> = Some(1);
        fn orderby() -> Vec<OrderComponent> {
            vec![strat("Int"), seq("frame")]
        }
        fn from_tuple(t: &Tuple) -> Self {
            Ship {
                frame: FieldValue::from_value(t.get(0)),
                x: FieldValue::from_value(t.get(1)),
            }
        }
        fn into_values(self) -> Vec<Value> {
            vec![self.frame.into_value(), self.x.into_value()]
        }
    }

    #[test]
    fn roundtrip_through_tuple() {
        let s = Ship { frame: 3, x: 460 };
        let t = Tuple::new(TableId(7), s.clone().into_values());
        assert_eq!(Ship::from_tuple(&t), s);
        assert_eq!(t.int(0), 3);
    }

    #[test]
    fn typed_query_lowers_to_positional() {
        let q = Ship::query().eq(Ship::frame, 3).lt(Ship::x, 400);
        let lowered = q.lower(TableId(7));
        assert_eq!(lowered.table, TableId(7));
        assert_eq!(lowered.eq, vec![(0, Value::Int(3))]);
        assert_eq!(lowered.ranges.len(), 1);
        assert_eq!(lowered.ranges[0].field, 1);
    }

    #[test]
    fn typed_filter_decodes_the_relation() {
        let q = Ship::query().filter(|s| s.x % 2 == 0).lower(TableId(0));
        assert!(q.matches(&Tuple::new(TableId(0), vec![Value::Int(0), Value::Int(2)])));
        assert!(!q.matches(&Tuple::new(TableId(0), vec![Value::Int(0), Value::Int(3)])));
    }

    #[test]
    fn prepared_query_is_reusable() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(2));
        let pq = Ship::query().ge(Ship::x, 100).prepare(h);
        for _ in 0..3 {
            assert!(pq.as_query().matches(&Tuple::new(
                TableId(2),
                vec![Value::Int(0), Value::Int(150)]
            )));
        }
        assert_eq!(pq.as_query().table, TableId(2));
    }

    #[test]
    fn bound_query_reads_each_calls_values() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(1));
        let pq = Ship::query()
            .bind_eq(Ship::frame)
            .bind_le(Ship::x)
            .prepare(h);
        assert_eq!(pq.slot_count(), 2);
        let row = |f: i64, x: i64| Tuple::new(TableId(1), vec![Value::Int(f), Value::Int(x)]);
        for (frame, x, matching, other) in
            [(3i64, 100i64, (3, 80), (3, 150)), (7, 10, (7, 10), (6, 10))]
        {
            let b = pq.binder().set(Ship::frame, frame).set(Ship::x, x);
            let q = b.probe();
            assert_eq!(q.table(), TableId(1));
            assert_eq!(q.eq_value(0), Some(&Value::Int(frame)));
            assert!(q.matches(&row(matching.0, matching.1)));
            assert!(!q.matches(&row(other.0, other.1)));
        }
    }

    #[test]
    fn bound_queries_nest_on_one_thread() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let outer = Ship::query().bind_eq(Ship::frame).prepare(h);
        let inner = Ship::query().bind_ge(Ship::x).prepare(h);
        let row = |f: i64, x: i64| Tuple::new(TableId(0), vec![Value::Int(f), Value::Int(x)]);
        let bo = outer.binder().set(Ship::frame, 2i64);
        let qo = bo.probe();
        assert!(qo.matches(&row(2, 0)));
        {
            let bi = inner.binder().set(Ship::x, 50i64);
            let qi = bi.probe();
            assert!(qi.matches(&row(9, 50)));
            assert!(!qi.matches(&row(9, 49)));
            // The same prepared query bound again, inside its own use.
            let bj = inner.binder().set(Ship::x, 60i64);
            assert!(!bj.probe().matches(&row(9, 50)));
            assert!(qi.matches(&row(9, 50)), "each binding is its own");
            // And the outer one, rebound inside itself.
            let bo2 = outer.binder().set(Ship::frame, 3i64);
            assert!(bo2.probe().matches(&row(3, 0)));
        }
        // The outer binding is still intact after the nested use.
        assert!(qo.matches(&row(2, 123)));
        assert!(!qo.matches(&row(3, 123)));
    }

    #[test]
    fn rebinding_overwrites_previous_values() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query().bind_eq(Ship::frame).prepare(h);
        let row = |f: i64| Tuple::new(TableId(0), vec![Value::Int(f), Value::Int(0)]);
        assert!(pq.binder().set(Ship::frame, 1i64).probe().matches(&row(1)));
        let b = pq.binder().set(Ship::frame, 2i64);
        assert!(b.probe().matches(&row(2)));
        assert!(!b.probe().matches(&row(1)), "stale binding must be gone");
    }

    #[test]
    fn binder_names_slots_by_field_in_any_order() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(1));
        let pq = Ship::query()
            .bind_eq(Ship::frame)
            .bind_le(Ship::x)
            .prepare(h);
        let row = |f: i64, x: i64| Tuple::new(TableId(1), vec![Value::Int(f), Value::Int(x)]);
        // set() order is the *reverse* of bind order — the binder maps
        // by column, so the query still constrains correctly.
        let b = pq.binder().set(Ship::x, 100i64).set(Ship::frame, 3i64);
        let q = b.probe();
        assert!(q.matches(&row(3, 80)));
        assert!(!q.matches(&row(3, 150)), "x bound must be the le slot");
        assert!(!q.matches(&row(4, 80)), "frame bound must be the eq slot");
    }

    #[test]
    fn binder_fills_same_field_slots_in_bind_order() {
        // A range over one column: bind_ge(x) then bind_le(x). Repeated
        // set(x, ...) fills them in that order.
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query().bind_ge(Ship::x).bind_le(Ship::x).prepare(h);
        let row = |x: i64| Tuple::new(TableId(0), vec![Value::Int(0), Value::Int(x)]);
        let b = pq
            .binder()
            .set(Ship::x, 10i64) // → the ge slot
            .set(Ship::x, 20i64); // → the le slot
        let q = b.probe();
        assert!(q.matches(&row(15)));
        assert!(!q.matches(&row(9)));
        assert!(!q.matches(&row(21)));
    }

    #[test]
    #[should_panic(expected = "no unbound slot")]
    fn binder_rejects_a_field_without_a_slot() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query().bind_eq(Ship::frame).prepare(h);
        let _ = pq.binder().set(Ship::x, 5i64);
    }

    #[test]
    #[should_panic(expected = "every bind slot must be set")]
    fn binder_rejects_evaluation_with_unset_slots() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query()
            .bind_eq(Ship::frame)
            .bind_le(Ship::x)
            .prepare(h);
        let _ = pq.binder().set(Ship::frame, 1i64).probe();
    }

    #[test]
    #[should_panic(expected = "no unbound slot")]
    fn wrong_bind_arity_panics() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query().bind_eq(Ship::frame).prepare(h);
        let _ = pq.binder().set(Ship::frame, 1i64).set(Ship::frame, 2i64);
    }

    #[test]
    #[should_panic(expected = "prepare() it once and evaluate it through binder()")]
    fn lowering_a_bind_slot_query_panics() {
        let _ = Ship::query().bind_eq(Ship::frame).lower(TableId(0));
    }

    #[test]
    #[should_panic(expected = "at most MAX_BIND_SLOTS = 8 bind slots")]
    fn preparing_more_slots_than_a_binder_holds_panics() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let mut q = Ship::query();
        for _ in 0..=MAX_BIND_SLOTS {
            q = q.bind_ge(Ship::x);
        }
        let _ = q.prepare(h);
    }

    #[test]
    fn field_tokens_expose_index_and_name() {
        assert_eq!(Ship::x.index(), 1);
        assert_eq!(Ship::x.name(), "x");
        assert_eq!(format!("{:?}", Ship::frame), "Field(frame#0)");
    }

    #[test]
    fn field_value_mappings() {
        assert_eq!(<i64 as FieldValue>::TYPE, ValueType::Int);
        assert_eq!(<f64 as FieldValue>::TYPE, ValueType::Double);
        assert_eq!(<bool as FieldValue>::TYPE, ValueType::Bool);
        assert_eq!(<Arc<str> as FieldValue>::TYPE, ValueType::Str);
        let s: Arc<str> = FieldValue::from_value(&Value::str("hi"));
        assert_eq!(&*s, "hi");
        assert_eq!(s.into_value(), Value::str("hi"));
    }

    #[test]
    fn join_on_collects_typed_pairs() {
        let j = join::<Ship, Ship>()
            .on(Ship::frame, Ship::x)
            .lt(Ship::x, Ship::x)
            .on(Ship::x, Ship::frame);
        let (root_less, stages) = j.lower(&[TableId(2), TableId(3)]);
        assert!(root_less.is_empty());
        // Both lists source row 0, the trigger; the inequality sits
        // next to the keys, not among them.
        let [stage] = &stages[..] else {
            panic!("one stage per relation after the first")
        };
        assert_eq!(stage.probe_table, TableId(3));
        assert_eq!(stage.keys, vec![((0, 0), 1), ((0, 1), 0)]);
        assert_eq!(stage.less, vec![((0, 1), 1)]);
    }

    #[test]
    fn join3_lowers_c_keys_in_call_order() {
        // Whichever of on_ac / on_bc comes first keys the C stage; the
        // rest follow in call order as residuals.
        let ids = [TableId(1), TableId(2), TableId(3)];
        let ac_first = join3::<Ship, Ship, Ship>()
            .on_ab(Ship::x, Ship::frame)
            .on_ac(Ship::frame, Ship::frame)
            .on_bc(Ship::x, Ship::x)
            .on_ac(Ship::x, Ship::x);
        let (_, stages) = ac_first.lower(&ids);
        assert_eq!(stages[1].probe_table, TableId(3));
        assert_eq!(stages[1].keys, vec![((0, 0), 0), ((1, 1), 1), ((0, 1), 1)]);
        let bc_first = join3::<Ship, Ship, Ship>()
            .on_ab(Ship::x, Ship::frame)
            .on_bc(Ship::x, Ship::x)
            .on_ac(Ship::frame, Ship::frame);
        let (_, stages) = bc_first.lower(&ids);
        assert_eq!(stages[1].keys, vec![((1, 1), 1), ((0, 0), 0)]);
    }

    #[test]
    fn table_handle_converts_to_table_id() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(4));
        let id: TableId = h.into();
        assert_eq!(id, TableId(4));
        assert_eq!(h.id(), TableId(4));
    }
}
