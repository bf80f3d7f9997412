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
        let at = match op {
            SlotOp::Eq => self.eq.len(),
            _ => self.ranges.len(),
        };
        self.slots.push(Slot {
            field: field.index(),
            op,
            at,
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

    /// The query's constraint structure, one entry per comparison:
    /// which column it touches, whether it is an equality or a
    /// lower/upper bound, and whether its value is a constant or a
    /// `bind_*` placeholder filled per invocation. Equalities come
    /// first, then range sides, each in declaration order.
    ///
    /// This is the introspection surface the delta-join planner builds
    /// on: a rule whose probe query is *shaped* as equalities bound to
    /// trigger fields can be executed as one batched join walk over a
    /// whole extracted class instead of one indexed probe per tuple
    /// (see [`crate::program::ProgramBuilder::rule_rel_join`]). Note a
    /// residual [`TypedQuery::filter`] predicate is invisible here by
    /// design — shapes describe only the indexable constraints, and
    /// [`PreparedQuery::has_residual`] reports the rest.
    pub fn shape(&self) -> Vec<ConstraintShape> {
        let (eq_slots, range_slots): (Vec<&Slot>, Vec<&Slot>) =
            self.slots.iter().partition(|s| s.op == SlotOp::Eq);
        let bound = |out: &mut Vec<ConstraintShape>, slots: &[&Slot], at: usize| {
            for s in slots.iter().filter(|s| s.at == at) {
                let kind = match s.op {
                    SlotOp::Eq => ConstraintKind::Eq,
                    SlotOp::Gt | SlotOp::Ge => ConstraintKind::Lower,
                    SlotOp::Lt | SlotOp::Le => ConstraintKind::Upper,
                };
                out.push(ConstraintShape {
                    field: s.field,
                    kind,
                    bound: true,
                });
            }
        };
        let constant = |field, kind| ConstraintShape {
            field,
            kind,
            bound: false,
        };
        let mut out = Vec::new();
        for (i, (field, _)) in self.query.eq.iter().enumerate() {
            bound(&mut out, &eq_slots, i);
            out.push(constant(*field, ConstraintKind::Eq));
        }
        bound(&mut out, &eq_slots, self.query.eq.len());
        for (i, r) in self.query.ranges.iter().enumerate() {
            bound(&mut out, &range_slots, i);
            if !matches!(r.lo, Bound::Unbounded) {
                out.push(constant(r.field, ConstraintKind::Lower));
            }
            if !matches!(r.hi, Bound::Unbounded) {
                out.push(constant(r.field, ConstraintKind::Upper));
            }
        }
        bound(&mut out, &range_slots, self.query.ranges.len());
        out
    }

    /// Whether the query carries a residual predicate (a
    /// [`TypedQuery::filter`] / [`TypedQuery::filter_tuple`] lambda)
    /// beyond the constraints [`PreparedQuery::shape`] reports.
    pub fn has_residual(&self) -> bool {
        self.query.pred.is_some()
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

/// The comparison class of one query constraint, as reported by
/// [`PreparedQuery::shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// `field == value` (an `eq` / `bind_eq` constraint).
    Eq,
    /// A lower bound: `field > value` or `field >= value`.
    Lower,
    /// An upper bound: `field < value` or `field <= value`.
    Upper,
}

/// One constraint of a prepared query's inspectable structure: the
/// column it addresses, its comparison class, and whether its value is
/// a per-invocation `bind_*` placeholder (`bound`) or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintShape {
    /// Positional column index the constraint addresses.
    pub field: usize,
    /// Comparison class.
    pub kind: ConstraintKind,
    /// `true` for a `bind_*` placeholder, `false` for a constant.
    pub bound: bool,
}

/// Typed equi-join key set between a trigger relation `R` and a probed
/// relation `S` — the declarative input of
/// [`crate::program::ProgramBuilder::rule_rel_join`].
///
/// Each [`JoinOn::eq`] pairs a trigger column with a probe column of
/// the *same* Rust type, so mismatched join keys (wrong relation, wrong
/// column type) are compile errors, exactly like [`TypedQuery`]
/// constraints. The pair list is what the engine sorts a delta class
/// by when it runs the rule as a batched join.
pub struct JoinOn<R, S> {
    pairs: Vec<(usize, usize)>,
    _marker: PhantomData<fn(R, S)>,
}

impl<R, S> Default for JoinOn<R, S> {
    fn default() -> Self {
        JoinOn::new()
    }
}

impl<R, S> JoinOn<R, S> {
    /// Starts an empty key set.
    pub fn new() -> Self {
        JoinOn {
            pairs: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Adds the equi-join pair `trigger.field == probe.field`.
    pub fn eq<T: FieldValue>(mut self, trigger: Field<R, T>, probe: Field<S, T>) -> Self {
        self.pairs.push((trigger.index(), probe.index()));
        self
    }

    /// The collected `(trigger_field, probe_field)` pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    pub(crate) fn into_pairs(self) -> Vec<(usize, usize)> {
        self.pairs
    }
}

/// Typed equi-join key set for the *second* probe stage of
/// [`crate::program::ProgramBuilder::rule_rel_join2`]: relation `S2`'s
/// candidates may be keyed against the trigger `R` ([`JoinOn2::eq_t`])
/// and/or the first probed relation `S1` ([`JoinOn2::eq_p`]).
///
/// Internally each pair records its source row — row 0 is the trigger,
/// row 1 the stage-1 tuple — matching [`crate::rule::JoinStage::keys`].
pub struct JoinOn2<R, S1, S2> {
    pairs: Vec<((usize, usize), usize)>,
    _marker: PhantomData<fn(R, S1, S2)>,
}

impl<R, S1, S2> Default for JoinOn2<R, S1, S2> {
    fn default() -> Self {
        JoinOn2::new()
    }
}

impl<R, S1, S2> JoinOn2<R, S1, S2> {
    /// Starts an empty key set.
    pub fn new() -> Self {
        JoinOn2 {
            pairs: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Adds the equi-join pair `trigger.field == probe.field`.
    pub fn eq_t<T: FieldValue>(mut self, trigger: Field<R, T>, probe: Field<S2, T>) -> Self {
        self.pairs.push(((0, trigger.index()), probe.index()));
        self
    }

    /// Adds the equi-join pair `stage1.field == probe.field`.
    pub fn eq_p<T: FieldValue>(mut self, prev: Field<S1, T>, probe: Field<S2, T>) -> Self {
        self.pairs.push(((1, prev.index()), probe.index()));
        self
    }

    /// The collected `((row, field), probe_field)` triples.
    pub fn pairs(&self) -> &[((usize, usize), usize)] {
        &self.pairs
    }

    pub(crate) fn into_pairs(self) -> Vec<((usize, usize), usize)> {
        self.pairs
    }
}

/// Starts a typed two-relation join over Gamma — the query-layer
/// worst-case-optimal join builder: `join::<Edge, Edge>()`.
///
/// The variable order is **fixed by declaration order** (`A` then `B`;
/// no cost-based optimizer): `A`'s column view is the root of one
/// leapfrog walk and `B`'s its single stage, both opened on the first
/// `on` pair's columns and intersected with coordinated seek/next
/// motions; any further `on` pairs are residual equalities inside
/// matched groups. Evaluate with [`crate::engine::Engine::join_rel`],
/// or with [`crate::engine::Engine::join_fold`] to split the walk over
/// the engine's pool.
pub fn join<A: Relation, B: Relation>() -> Join<A, B> {
    Join {
        on: Vec::new(),
        _marker: PhantomData,
    }
}

/// A typed two-relation equi-join (see [`join`]).
pub struct Join<A: Relation, B: Relation> {
    on: Vec<(usize, usize)>,
    _marker: PhantomData<fn(A, B)>,
}

/// What a read-side join lowers to — the input of the engine's one
/// leapfrog walk: the root relation's key column, then one
/// [`JoinStage`] per further relation (row 0 is `A`, row 1 `B`, …;
/// each stage's first key pair names the column its view is opened on).
pub(crate) struct ReadJoin {
    pub(crate) root: (TableId, usize),
    pub(crate) stages: Vec<JoinStage>,
}

impl<A: Relation, B: Relation> Join<A, B> {
    /// Adds the equi-join pair `a.field == b.field`. The first pair
    /// names the leapfrog columns; later pairs are residual checks.
    pub fn on<T: FieldValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.on.push((a.index(), b.index()));
        self
    }

    /// Panics when no `on` pair was declared (a cross join has nothing
    /// to merge on).
    pub(crate) fn lower(&self, program: &Program) -> ReadJoin {
        assert!(
            !self.on.is_empty(),
            "join::<A, B>() requires at least one on() pair"
        );
        ReadJoin {
            root: (program.handle::<A>().id(), self.on[0].0),
            stages: vec![JoinStage {
                probe_table: program.handle::<B>().id(),
                keys: self.on.iter().map(|&(af, bf)| ((0, af), bf)).collect(),
            }],
        }
    }
}

/// Starts a typed three-relation join over Gamma:
/// `join3::<Edge, Edge, Edge>()`. Variable order is fixed as `A`, `B`,
/// then `C` (declaration order; no optimizer): `A` and `B` leapfrog on
/// the first [`Join3::on_ab`] pair, then each matched `(a, b)` row
/// seeks a shared `C` view keyed by the first [`Join3::on_bc`] pair —
/// or the first [`Join3::on_ac`] pair when no `b`–`c` key exists —
/// with every remaining pair checked as a residual equality.
/// Evaluate with [`crate::engine::Engine::join3_rel`] or, over the
/// engine's pool, [`crate::engine::Engine::join3_fold`].
pub fn join3<A: Relation, B: Relation, C: Relation>() -> Join3<A, B, C> {
    Join3 {
        ab: Vec::new(),
        bc: Vec::new(),
        ac: Vec::new(),
        _marker: PhantomData,
    }
}

/// A typed three-relation equi-join (see [`join3`]).
pub struct Join3<A: Relation, B: Relation, C: Relation> {
    ab: Vec<(usize, usize)>,
    bc: Vec<(usize, usize)>,
    ac: Vec<(usize, usize)>,
    _marker: PhantomData<fn(A, B, C)>,
}

impl<A: Relation, B: Relation, C: Relation> Join3<A, B, C> {
    /// Adds the equi-join pair `a.field == b.field` (the first pair
    /// names the `A`–`B` leapfrog columns).
    pub fn on_ab<T: FieldValue>(mut self, a: Field<A, T>, b: Field<B, T>) -> Self {
        self.ab.push((a.index(), b.index()));
        self
    }

    /// Adds the equi-join pair `b.field == c.field`.
    pub fn on_bc<T: FieldValue>(mut self, b: Field<B, T>, c: Field<C, T>) -> Self {
        self.bc.push((b.index(), c.index()));
        self
    }

    /// Adds the equi-join pair `a.field == c.field`.
    pub fn on_ac<T: FieldValue>(mut self, a: Field<A, T>, c: Field<C, T>) -> Self {
        self.ac.push((a.index(), c.index()));
        self
    }

    /// Panics without an `on_ab` pair or without any `C`-side
    /// constraint. `C`'s keys list the `b`-sourced pairs first: a
    /// `b` key is preferred for the seek, an `a` key is the fallback.
    pub(crate) fn lower(&self, program: &Program) -> ReadJoin {
        assert!(
            !self.ab.is_empty(),
            "join3 requires at least one on_ab() pair"
        );
        assert!(
            !(self.bc.is_empty() && self.ac.is_empty()),
            "join3 requires an on_bc() or on_ac() pair to key C"
        );
        let from = |row: usize, pairs: &[(usize, usize)]| -> Vec<_> {
            pairs.iter().map(|&(f, pf)| ((row, f), pf)).collect()
        };
        let mut c_keys = from(1, &self.bc);
        c_keys.extend(from(0, &self.ac));
        ReadJoin {
            root: (program.handle::<A>().id(), self.ab[0].0),
            stages: vec![
                JoinStage {
                    probe_table: program.handle::<B>().id(),
                    keys: from(0, &self.ab),
                },
                JoinStage {
                    probe_table: program.handle::<C>().id(),
                    keys: c_keys,
                },
            ],
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
    fn shape_reports_eq_constraints_with_bound_flags() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query().eq(Ship::frame, 3).bind_eq(Ship::x).prepare(h);
        assert_eq!(
            pq.shape(),
            vec![
                ConstraintShape {
                    field: 0,
                    kind: ConstraintKind::Eq,
                    bound: false
                },
                ConstraintShape {
                    field: 1,
                    kind: ConstraintKind::Eq,
                    bound: true
                },
            ]
        );
        assert!(!pq.has_residual());
    }

    #[test]
    fn shape_reports_range_bounds_per_side() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        // A constant lower bound, a bound upper bound and a constant
        // two-sided range each produce one entry per bounded side.
        let pq = Ship::query()
            .ge(Ship::frame, 1)
            .bind_le(Ship::frame)
            .gt(Ship::x, 10)
            .lt(Ship::x, 20)
            .prepare(h);
        assert_eq!(
            pq.shape(),
            vec![
                ConstraintShape {
                    field: 0,
                    kind: ConstraintKind::Lower,
                    bound: false
                },
                ConstraintShape {
                    field: 0,
                    kind: ConstraintKind::Upper,
                    bound: true
                },
                ConstraintShape {
                    field: 1,
                    kind: ConstraintKind::Lower,
                    bound: false
                },
                ConstraintShape {
                    field: 1,
                    kind: ConstraintKind::Upper,
                    bound: false
                },
            ]
        );
    }

    #[test]
    fn shape_hides_residual_filters_but_reports_their_presence() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(0));
        let pq = Ship::query()
            .eq(Ship::frame, 1)
            .filter(|s: &Ship| s.x > 0)
            .prepare(h);
        assert_eq!(pq.shape().len(), 1);
        assert!(pq.has_residual());
    }

    #[test]
    fn join_on_collects_typed_pairs() {
        let on: JoinOn<Ship, Ship> = JoinOn::new()
            .eq(Ship::frame, Ship::x)
            .eq(Ship::x, Ship::frame);
        assert_eq!(on.pairs(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn table_handle_converts_to_table_id() {
        let h: TableHandle<Ship> = TableHandle::new(TableId(4));
        let id: TableId = h.into();
        assert_eq!(id, TableId(4));
        assert_eq!(h.id(), TableId(4));
    }
}
